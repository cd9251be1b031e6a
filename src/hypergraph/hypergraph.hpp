// Hypergraphs over integer vertices (query variables). The query hypergraph —
// one hyperedge per relational atom — drives the acyclicity machinery of
// Sections 4-5: GYO reduction, join trees, and the Y_j attribute sets of
// Theorem 2.
#ifndef PARAQUERY_HYPERGRAPH_HYPERGRAPH_H_
#define PARAQUERY_HYPERGRAPH_HYPERGRAPH_H_

#include <string>
#include <vector>

namespace paraquery {

/// Hypergraph on vertices 0..n-1 with ordered edge ids.
class Hypergraph {
 public:
  explicit Hypergraph(int num_vertices) : num_vertices_(num_vertices) {}

  int num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }

  /// Adds a hyperedge (vertices are sorted and deduplicated); returns its id.
  /// Empty hyperedges are allowed (they model 0-ary / constant-only atoms).
  int AddEdge(std::vector<int> vertices);

  /// Sorted distinct vertex list of edge `e`.
  const std::vector<int>& edge(int e) const { return edges_[e]; }

  /// True if edges `a` and `b` share at least one vertex.
  bool EdgesIntersect(int a, int b) const;

  /// True if vertices u and v occur together in some edge. O(edges).
  bool CoOccur(int u, int v) const;

  std::string ToString() const;

 private:
  int num_vertices_;
  std::vector<std::vector<int>> edges_;
};

}  // namespace paraquery

#endif  // PARAQUERY_HYPERGRAPH_HYPERGRAPH_H_
