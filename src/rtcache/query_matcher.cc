#include "rtcache/query_matcher.h"

#include <algorithm>

#include "common/trace.h"
#include "firestore/codec/value_codec.h"
#include "firestore/index/layout.h"

namespace firestore::rtcache {

namespace {

void EraseId(std::vector<uint64_t>& ids, uint64_t id) {
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
}

}  // namespace

QueryMatcher::QueryMatcher()
    : matched_counter_(FS_METRIC_COUNTER("rtcache.matcher.matched")),
      examined_counter_(FS_METRIC_COUNTER("rtcache.matcher.examined")) {}

void QueryMatcher::Subscribe(uint64_t subscription_id,
                             const std::string& database_id,
                             const query::Query& q,
                             const std::vector<RangeId>& ranges,
                             EventSink sink) {
  // Keyed like the collection's Entities rows, which is unambiguous.
  Subscription sub{q, ranges, std::move(sink),
                   index::EntityKeyPrefixForCollection(database_id,
                                                       q.CollectionPath()),
                   "", ""};
  const query::FieldFilter* equality = nullptr;
  for (const query::FieldFilter& f : q.filters()) {
    if (f.op == query::Operator::kEqual) {
      equality = &f;
      break;
    }
  }
  if (equality != nullptr) {
    sub.equality_field = equality->field.CanonicalString();
    codec::AppendValueAsc(sub.equality_term, equality->value);
  }
  MutexLock lock(&mu_);
  for (RangeId r : ranges) {
    CollectionIndex& index = candidates_[r][sub.collection_key];
    if (equality == nullptr) {
      index.unindexed.push_back(subscription_id);
      continue;
    }
    EqualityField& field = index.equality[sub.equality_field];
    field.path = equality->field;
    field.by_term[sub.equality_term].push_back(subscription_id);
  }
  subscriptions_[subscription_id] = std::move(sub);
}

void QueryMatcher::Unsubscribe(uint64_t subscription_id) {
  MutexLock lock(&mu_);
  auto it = subscriptions_.find(subscription_id);
  if (it == subscriptions_.end()) return;
  const Subscription& sub = it->second;
  for (RangeId r : sub.ranges) {
    auto range = candidates_.find(r);
    if (range == candidates_.end()) continue;
    auto collection = range->second.find(sub.collection_key);
    if (collection == range->second.end()) continue;
    CollectionIndex& index = collection->second;
    if (sub.equality_field.empty()) {
      EraseId(index.unindexed, subscription_id);
    } else if (auto field = index.equality.find(sub.equality_field);
               field != index.equality.end()) {
      auto& by_term = field->second.by_term;
      if (auto term = by_term.find(sub.equality_term); term != by_term.end()) {
        EraseId(term->second, subscription_id);
        if (term->second.empty()) by_term.erase(term);
      }
      if (by_term.empty()) index.equality.erase(field);
    }
    // Drop emptied entries so churn (resets re-subscribe) leaves no residue.
    if (index.unindexed.empty() && index.equality.empty()) {
      range->second.erase(collection);
    }
    if (range->second.empty()) candidates_.erase(range);
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
    auto range_it = candidates_.find(range);
    if (range_it == candidates_.end()) return;
    auto collection = range_it->second.find(
        index::EntityKeyPrefixForCollection(database_id,
                                            change.name.Parent()));
    if (collection == range_it->second.end()) return;
    const CollectionIndex& index = collection->second;
    // Candidates: every unindexed subscription, plus those whose first
    // equality term holds in the new or the old document (the old one so
    // that a document leaving a result set is still forwarded).
    std::vector<uint64_t> candidates = index.unindexed;
    std::string term;
    for (const auto& [name, field] : index.equality) {
      for (const auto* doc : {&change.new_doc, &change.old_doc}) {
        if (!doc->has_value()) continue;
        const model::Value* value = (*doc)->FindField(field.path);
        if (value == nullptr) continue;
        term.clear();
        codec::AppendValueAsc(term, *value);
        auto hit = field.by_term.find(term);
        if (hit == field.by_term.end()) continue;
        candidates.insert(candidates.end(), hit->second.begin(),
                          hit->second.end());
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    examined_counter_.Increment(static_cast<int64_t>(candidates.size()));
    // The index only prunes; Matches decides.
    for (uint64_t id : candidates) {
      const Subscription& sub = subscriptions_.at(id);
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
  spanner::Timestamp* published = &idle_watermark_;
  if (range != kEveryRange) {
    if (static_cast<size_t>(range) >= watermarks_.size()) {
      watermarks_.resize(range + 1, 0);
    }
    published = &watermarks_[range];
  }
  *published = std::max(*published, ts);
}

void QueryMatcher::AnnounceWatermarks() {
  std::function<void()> observer;
  {
    MutexLock lock(&mu_);
    observer = observer_;
  }
  if (observer) observer();
}

void QueryMatcher::OnOutOfSync(RangeId range) {
  std::vector<std::pair<uint64_t, EventSink>> targets;
  {
    MutexLock lock(&mu_);
    // A rare event: a walk over every subscription is cheap enough.
    for (const auto& [id, sub] : subscriptions_) {
      if (std::find(sub.ranges.begin(), sub.ranges.end(), range) !=
          sub.ranges.end()) {
        targets.emplace_back(id, sub.sink);
      }
    }
  }
  RangeEvent event;
  event.type = RangeEvent::Type::kOutOfSync;
  event.range = range;
  for (auto& [id, sink] : targets) sink(id, event);
}

spanner::Timestamp QueryMatcher::watermark(RangeId range) const {
  MutexLock lock(&mu_);
  return static_cast<size_t>(range) < watermarks_.size()
             ? std::max(watermarks_[range], idle_watermark_)
             : idle_watermark_;
}

void QueryMatcher::SetWatermarkObserver(std::function<void()> observer) {
  MutexLock lock(&mu_);
  observer_ = std::move(observer);
}

int QueryMatcher::subscription_count() const {
  MutexLock lock(&mu_);
  return static_cast<int>(subscriptions_.size());
}

}  // namespace firestore::rtcache
