// Span records of the traced run: the benchmark's own spans around calls
// into each library module, merged with the engine tracer's spans of the
// same query, plus self time and Chrome trace-event export.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  /// Chrome trace thread: 0 is the client thread (which also runs the
  /// engine's query track), 1.. are the engine's worker tracks.
  uint32_t track = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Operation id shared by every span of one benchmark operation.
  uint64_t qid = 0;
  /// Index of the enclosing span on the same track, -1 for a root. Set by
  /// LinkParents.
  int32_t parent = -1;

  uint64_t duration() const { return end_ns - start_ns; }
};

/// Sets every span's parent to the innermost span on the same track whose
/// interval contains it. Among spans with identical intervals, the one
/// recorded later (higher index) is the parent: spans are recorded when
/// they close, so an enclosing span closes last.
void LinkParents(std::vector<Span>& spans);

/// Self time of each span: its duration minus the part of its interval
/// covered by its children. Requires LinkParents.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Total length of the union of the given intervals.
uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals);

/// Parses the engine tracer's Chrome trace-event JSON (Tracer::
/// ChromeTraceJson: "X" events whose microsecond timestamps count from the
/// earliest span) into spans. The timestamps are shifted so that the
/// engine's outermost "query" span ends at `query_end_ns`, which places the
/// engine's spans on the benchmark's own steady clock.
std::vector<Span> ParseEngineTrace(const std::string& json,
                                   uint64_t query_end_ns, uint64_t qid);

/// Chrome trace-event JSON of `spans` (one pid, one tid per track, each
/// event carrying its operation id), loadable in Perfetto.
std::string ChromeTrace(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
