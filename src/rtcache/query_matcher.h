// Query Matcher tasks (paper §IV-D4, Figure 5): hold the real-time queries
// registered for each document-name range; match every forwarded document
// update against them and send matches to the subscribing Frontend. The
// matcher also publishes one completeness watermark per range, plus the
// shared idle watermark that covers every range, and tells its observer
// (the Frontend) after each Changelog Accept or Tick: a watermark is a fact
// about a range, not about a subscription, so heartbeats cost the same with
// one listener or thousands.
//
// Matching costs per change, not per listener: each range indexes its
// subscriptions by their collection and first equality term, so a change
// is verified (Query::Matches) only against the subscriptions it could
// concern. See docs/realtime_protocol.md, "Query matching".

#ifndef FIRESTORE_RTCACHE_QUERY_MATCHER_H_
#define FIRESTORE_RTCACHE_QUERY_MATCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "backend/types.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "firestore/query/query.h"
#include "rtcache/range_ownership.h"
#include "spanner/truetime.h"

namespace firestore::rtcache {

// Events flowing from the Real-time Cache to a Frontend subscription.
struct RangeEvent {
  enum class Type {
    kChange,     // a committed document update relevant to the query
    kOutOfSync,  // ordering lost; the Frontend must reset the query
  };

  Type type = Type::kChange;
  RangeId range = 0;
  spanner::Timestamp ts = 0;
  backend::DocumentChange change;  // kChange only
};

using EventSink = std::function<void(uint64_t subscription_id,
                                     const RangeEvent& event)>;

// The range of the idle watermark, which covers every range.
constexpr RangeId kEveryRange = -1;

class QueryMatcher {
 public:
  QueryMatcher();

  // Registers a query for matching on `ranges` (the document-name ranges
  // covering its result set). The Subscribe carries the query itself so only
  // relevant changes are forwarded (unlike change streams that fan out whole
  // collections; see paper §VII on MongoDB). Events arrive via `sink`.
  void Subscribe(uint64_t subscription_id, const std::string& database_id,
                 const query::Query& q, const std::vector<RangeId>& ranges,
                 EventSink sink);

  void Unsubscribe(uint64_t subscription_id);

  // -- Feed from the Changelog --

  // A committed change, released in timestamp order per range. Calls the
  // sink of every subscription on `range` whose query matches the new or
  // the old document, in subscription-id order.
  void OnDocumentChange(const std::string& database_id, RangeId range,
                        spanner::Timestamp ts,
                        const backend::DocumentChange& change);

  // Completeness heartbeat: the range's update stream (every range's, for
  // kEveryRange) is complete through `ts`. Raises the published watermark
  // (never lowers it) and calls no sink. The Changelog calls this under its
  // lock, after every release at or below `ts` has reached its sinks.
  void OnWatermark(RangeId range, spanner::Timestamp ts);

  void OnOutOfSync(RangeId range);

  // -- Published watermarks --

  // The range's published watermark, or kEveryRange's where that is
  // higher; 0 before the first heartbeat.
  spanner::Timestamp watermark(RangeId range) const;

  // The Changelog calls this after each Accept and Tick, holding no lock:
  // runs the observer, outside the matcher's lock, since published
  // watermarks may have risen.
  void AnnounceWatermarks();
  // The one observer of AnnounceWatermarks; null removes it.
  void SetWatermarkObserver(std::function<void()> observer);

  int subscription_count() const;

 private:
  struct Subscription {
    query::Query query;
    std::vector<RangeId> ranges;
    EventSink sink;
    // Its place in each range's candidate index (see CollectionIndex):
    // the (database, collection) key, and unless `equality_field` is
    // empty, the first equality filter's field and encoded value.
    std::string collection_key;
    std::string equality_field;
    std::string equality_term;
  };

  // One equality field registered under a collection: subscriptions keyed
  // by the encoded value of their first `==` filter on it
  // (codec::AppendValueAsc, whose byte equality is Value::Compare == 0).
  struct EqualityField {
    model::FieldPath path;
    std::map<std::string, std::vector<uint64_t>> by_term;
  };

  // A range's subscriptions on one (database, collection):
  // queries without an equality filter, and the rest by their first one.
  struct CollectionIndex {
    std::vector<uint64_t> unindexed;
    std::map<std::string, EqualityField> equality;  // by canonical field
  };

  mutable Mutex mu_;
  std::map<uint64_t, Subscription> subscriptions_ FS_GUARDED_BY(mu_);
  // range -> collection key -> that collection's candidate index.
  std::map<RangeId, std::map<std::string, CollectionIndex>> candidates_
      FS_GUARDED_BY(mu_);
  // range -> published watermark (see OnWatermark).
  std::vector<spanner::Timestamp> watermarks_ FS_GUARDED_BY(mu_);
  spanner::Timestamp idle_watermark_ FS_GUARDED_BY(mu_) = 0;
  std::function<void()> observer_ FS_GUARDED_BY(mu_);
  // Registry-backed stats (rtcache.matcher.*, docs/OBSERVABILITY.md).
  Counter& matched_counter_;
  Counter& examined_counter_;
};

}  // namespace firestore::rtcache

#endif  // FIRESTORE_RTCACHE_QUERY_MATCHER_H_
