#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <set>

namespace perfbench {

void LinkParents(std::vector<Span>& spans) {
  std::vector<int32_t> order(spans.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.track != y.track) return x.track < y.track;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
    return a > b;
  });
  std::vector<int32_t> stack;
  uint32_t track = 0;
  for (int32_t i : order) {
    Span& s = spans[i];
    if (stack.empty() || s.track != track) {
      stack.clear();
      track = s.track;
    }
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.start_ns <= s.start_ns && s.end_ns <= top.end_ns) break;
      stack.pop_back();
    }
    s.parent = stack.empty() ? -1 : stack.back();
    stack.push_back(i);
  }
}

uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0;
  uint64_t cur_start = 0;
  uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t covered = CoveredNs(std::move(children[i]));
    self[i] = spans[i].duration() - std::min(covered, spans[i].duration());
  }
  return self;
}

std::vector<Span> ParseEngineTrace(const std::string& json,
                                   uint64_t query_end_ns, uint64_t qid) {
  struct Raw {
    std::string name;
    uint32_t tid;
    double ts_us;
    double dur_us;
  };
  std::vector<Raw> raw;
  // Field order is fixed by the exporter: ph, pid, tid, ts, dur, name.
  // Each field is located from the previous one, so parsing stays linear.
  const auto field = [&](const char* key, size_t from) {
    const size_t at = json.find(key, from);
    return at == std::string::npos ? at : at + std::strlen(key);
  };
  static constexpr char kEvent[] = "{\"ph\":\"X\"";
  for (size_t pos = json.find(kEvent); pos != std::string::npos;
       pos = json.find(kEvent, pos + 1)) {
    const size_t tid_at = field("\"tid\":", pos);
    const size_t ts_at = field("\"ts\":", tid_at);
    const size_t dur_at = field("\"dur\":", ts_at);
    const size_t name_at = field("\"name\":\"", dur_at);
    if (name_at == std::string::npos) break;
    const size_t name_end = json.find('"', name_at);
    if (name_end == std::string::npos) break;
    Raw r;
    r.tid = static_cast<uint32_t>(
        std::strtoul(json.c_str() + tid_at, nullptr, 10));
    r.ts_us = std::strtod(json.c_str() + ts_at, nullptr);
    r.dur_us = std::strtod(json.c_str() + dur_at, nullptr);
    r.name = json.substr(name_at, name_end - name_at);
    raw.push_back(std::move(r));
    pos = name_end;
  }
  double query_end_us = 0;
  for (const Raw& r : raw) {
    if (r.tid == 0 && r.name == "query") {
      query_end_us = std::max(query_end_us, r.ts_us + r.dur_us);
    }
  }
  const auto to_ns = [](double us) {
    return static_cast<uint64_t>(std::llround(us * 1e3));
  };
  const uint64_t base = query_end_ns - std::min(query_end_ns,
                                                to_ns(query_end_us));
  std::vector<Span> spans;
  spans.reserve(raw.size());
  for (Raw& r : raw) {
    Span s;
    s.name = std::move(r.name);
    s.track = r.tid;
    s.start_ns = base + to_ns(r.ts_us);
    s.end_ns = s.start_ns + to_ns(r.dur_us);
    s.qid = qid;
    spans.push_back(std::move(s));
  }
  return spans;
}

std::string ChromeTrace(const std::vector<Span>& spans) {
  uint64_t base = UINT64_MAX;
  std::set<uint32_t> tracks;
  for (const Span& s : spans) {
    base = std::min(base, s.start_ns);
    tracks.insert(s.track);
  }
  if (base == UINT64_MAX) base = 0;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (uint32_t t : tracks) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"%s %u\"}}",
                  first ? "" : ",", t, t == 0 ? "client" : "worker", t);
    out += buf;
    first = false;
  }
  for (const Span& s : spans) {
    // Span names are library and benchmark identifiers: no JSON escapes.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"qid\":%llu}}",
                  first ? "" : ",", s.track,
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.duration()) / 1e3, s.name.c_str(),
                  static_cast<unsigned long long>(s.qid));
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
