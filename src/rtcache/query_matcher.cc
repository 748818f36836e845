#include "rtcache/query_matcher.h"

#include <algorithm>

#include "common/trace.h"

namespace firestore::rtcache {

QueryMatcher::QueryMatcher()
    : matched_counter_(FS_METRIC_COUNTER("rtcache.matcher.matched")),
      examined_counter_(FS_METRIC_COUNTER("rtcache.matcher.examined")) {}

void QueryMatcher::Subscribe(uint64_t subscription_id,
                             const std::string& database_id,
                             const query::Query& q,
                             const std::vector<RangeId>& ranges,
                             EventSink sink) {
  MutexLock lock(&mu_);
  Subscription sub{database_id, q, ranges, std::move(sink)};
  for (RangeId r : ranges) by_range_[r].push_back(subscription_id);
  subscriptions_[subscription_id] = std::move(sub);
}

void QueryMatcher::Unsubscribe(uint64_t subscription_id) {
  MutexLock lock(&mu_);
  auto it = subscriptions_.find(subscription_id);
  if (it == subscriptions_.end()) return;
  for (RangeId r : it->second.ranges) {
    auto& ids = by_range_[r];
    ids.erase(std::remove(ids.begin(), ids.end(), subscription_id),
              ids.end());
  }
  subscriptions_.erase(it);
}

void QueryMatcher::OnDocumentChange(const std::string& database_id,
                                    RangeId range, spanner::Timestamp ts,
                                    const backend::DocumentChange& change) {
  // Child of the Changelog's rtcache.release span (the caller resumed the
  // commit's trace context before this call).
  FS_SPAN("rtcache.match");
  // Copy the relevant sinks under the lock; call them outside it so a sink
  // may re-enter (e.g. to unsubscribe).
  std::vector<std::pair<uint64_t, EventSink>> targets;
  {
    MutexLock lock(&mu_);
    auto it = by_range_.find(range);
    if (it == by_range_.end()) return;
    for (uint64_t id : it->second) {
      const Subscription& sub = subscriptions_.at(id);
      if (sub.database_id != database_id) continue;
      examined_counter_.Increment();
      bool new_matches =
          change.new_doc.has_value() && sub.query.Matches(*change.new_doc);
      bool old_matches =
          change.old_doc.has_value() && sub.query.Matches(*change.old_doc);
      if (!new_matches && !old_matches) continue;  // irrelevant to query
      matched_counter_.Increment();
      targets.emplace_back(id, sub.sink);
    }
  }
  RangeEvent event;
  event.type = RangeEvent::Type::kChange;
  event.range = range;
  event.ts = ts;
  event.change = change;
  for (auto& [id, sink] : targets) sink(id, event);
}

void QueryMatcher::OnWatermark(RangeId range, spanner::Timestamp ts) {
  MutexLock lock(&mu_);
  if (static_cast<size_t>(range) >= watermarks_.size()) {
    watermarks_.resize(range + 1, 0);
  }
  watermarks_[range] = std::max(watermarks_[range], ts);
}

void QueryMatcher::OnOutOfSync(RangeId range) {
  std::vector<std::pair<uint64_t, EventSink>> targets;
  {
    MutexLock lock(&mu_);
    auto it = by_range_.find(range);
    if (it == by_range_.end()) return;
    for (uint64_t id : it->second) {
      targets.emplace_back(id, subscriptions_.at(id).sink);
    }
  }
  RangeEvent event;
  event.type = RangeEvent::Type::kOutOfSync;
  event.range = range;
  for (auto& [id, sink] : targets) sink(id, event);
}

spanner::Timestamp QueryMatcher::watermark(RangeId range) const {
  MutexLock lock(&mu_);
  return static_cast<size_t>(range) < watermarks_.size() ? watermarks_[range]
                                                         : 0;
}

std::vector<spanner::Timestamp> QueryMatcher::watermarks() const {
  MutexLock lock(&mu_);
  return watermarks_;
}

int QueryMatcher::subscription_count() const {
  MutexLock lock(&mu_);
  return static_cast<int>(subscriptions_.size());
}

}  // namespace firestore::rtcache
