// Self time per span name over sampled traces.

#include <algorithm>
#include <map>

#include "bench.h"

namespace perfbench {

std::vector<std::pair<std::string, SpanSelf>> SelfTimes(
    const std::vector<const TraceLog*>& logs) {
  std::map<std::string, SpanSelf> by_name;
  for (const TraceLog* log : logs) {
    for (const auto& trace : *log) {
      const std::vector<firestore::TraceSpan> spans = trace->spans();
      // Ids are 1-based and dense: spans[id - 1].
      std::vector<std::vector<size_t>> children(spans.size());
      for (size_t i = 0; i < spans.size(); ++i) {
        int64_t parent = spans[i].parent_id;
        if (parent >= 1 && static_cast<size_t>(parent) <= spans.size()) {
          children[parent - 1].push_back(i);
        }
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        const firestore::TraceSpan& span = spans[i];
        if (span.end == 0 || span.parent_id == 0) continue;  // open or root
        // Union of the children's intervals, clipped to this span: async
        // children (a release resumed after the commit returned) may start
        // after their parent ended and then cover none of it.
        std::vector<std::pair<int64_t, int64_t>> covered;
        for (size_t c : children[i]) {
          int64_t lo = std::max(spans[c].start, span.start);
          int64_t hi = std::min(spans[c].end == 0 ? span.end : spans[c].end,
                                span.end);
          if (hi > lo) covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        int64_t child_us = 0;
        int64_t reach = span.start;
        for (const auto& [lo, hi] : covered) {
          int64_t from = std::max(lo, reach);
          if (hi > from) child_us += hi - from;
          reach = std::max(reach, hi);
        }
        SpanSelf& self = by_name[span.name];
        self.total_us += static_cast<double>(span.end - span.start - child_us);
        ++self.count;
      }
    }
  }
  return {by_name.begin(), by_name.end()};
}

}  // namespace perfbench
