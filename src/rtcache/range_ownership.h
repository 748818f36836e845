// Consistent ownership of document-name ranges (paper §IV-D4): "A separate
// mechanism establishes and shares consistent ownership of document-name
// ranges to specific Changelog and Query Matcher tasks", load-balanced by
// the Slicer auto-sharding framework.
//
// Ranges partition the multi-tenant Entities key space (database id +
// encoded document name). Each range is handled by one logical Changelog
// task and one logical Query Matcher task.

#ifndef FIRESTORE_RTCACHE_RANGE_OWNERSHIP_H_
#define FIRESTORE_RTCACHE_RANGE_OWNERSHIP_H_

#include <string>
#include <vector>

namespace firestore::rtcache {

using RangeId = int;

class RangeOwnership {
 public:
  // Ranges are defined by sorted split points: range i covers
  // [points[i-1], points[i]), with unbounded first and last ranges.
  explicit RangeOwnership(std::vector<std::string> split_points = {});

  // Evenly spreads `n` ranges over the first key byte (a serviceable
  // stand-in for Slicer's load-based assignment).
  static RangeOwnership Uniform(int n);

  int num_ranges() const;

  RangeId OwnerOf(const std::string& key) const;

  // All ranges intersecting [start, limit); empty `limit` = unbounded.
  std::vector<RangeId> RangesCovering(const std::string& start,
                                      const std::string& limit) const;

 private:
  // Fixed at construction, because the Changelog's per-range state and the
  // matcher's subscriptions are keyed by these ranges; lookups need no lock.
  const std::vector<std::string> splits_;
};

}  // namespace firestore::rtcache

#endif  // FIRESTORE_RTCACHE_RANGE_OWNERSHIP_H_
