#include "hypergraph/hypergraph.hpp"

#include <algorithm>
#include <sstream>

#include "common/status.hpp"

namespace paraquery {

int Hypergraph::AddEdge(std::vector<int> vertices) {
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
  for (int v : vertices) {
    PQ_CHECK(v >= 0 && v < num_vertices_, "Hypergraph vertex out of range");
  }
  edges_.push_back(std::move(vertices));
  return static_cast<int>(edges_.size()) - 1;
}

bool Hypergraph::EdgesIntersect(int a, int b) const {
  const auto& ea = edges_[a];
  const auto& eb = edges_[b];
  size_t i = 0, j = 0;
  while (i < ea.size() && j < eb.size()) {
    if (ea[i] == eb[j]) return true;
    if (ea[i] < eb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

bool Hypergraph::CoOccur(int u, int v) const {
  for (const auto& e : edges_) {
    bool has_u = std::binary_search(e.begin(), e.end(), u);
    bool has_v = std::binary_search(e.begin(), e.end(), v);
    if (has_u && has_v) return true;
  }
  return false;
}

std::string Hypergraph::ToString() const {
  std::ostringstream oss;
  oss << "H(V=" << num_vertices_ << "; ";
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (e > 0) oss << ", ";
    oss << "{";
    for (size_t i = 0; i < edges_[e].size(); ++i) {
      if (i > 0) oss << ",";
      oss << edges_[e][i];
    }
    oss << "}";
  }
  oss << ")";
  return oss.str();
}

}  // namespace paraquery
