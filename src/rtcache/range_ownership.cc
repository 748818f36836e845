#include "rtcache/range_ownership.h"

#include <algorithm>

#include "common/logging.h"

namespace firestore::rtcache {

RangeOwnership::RangeOwnership(std::vector<std::string> split_points)
    : splits_(std::move(split_points)) {
  FS_CHECK(std::is_sorted(splits_.begin(), splits_.end()));
}

RangeOwnership RangeOwnership::Uniform(int n) {
  FS_CHECK_GT(n, 0);
  std::vector<std::string> splits;
  for (int i = 1; i < n; ++i) {
    int byte = i * 256 / n;
    splits.push_back(std::string(1, static_cast<char>(byte)));
  }
  return RangeOwnership(std::move(splits));
}

int RangeOwnership::num_ranges() const {
  return static_cast<int>(splits_.size()) + 1;
}

RangeId RangeOwnership::OwnerOf(const std::string& key) const {
  // First split strictly greater than key determines the range.
  auto it = std::upper_bound(splits_.begin(), splits_.end(), key);
  return static_cast<RangeId>(it - splits_.begin());
}

std::vector<RangeId> RangeOwnership::RangesCovering(
    const std::string& start, const std::string& limit) const {
  RangeId first = OwnerOf(start);
  RangeId last;
  if (limit.empty()) {
    last = static_cast<RangeId>(splits_.size());
  } else {
    // The limit key is exclusive; the range owning the last covered key is
    // the one owning limit minus epsilon, which equals OwnerOf(limit) unless
    // limit is exactly a split point.
    auto it = std::lower_bound(splits_.begin(), splits_.end(), limit);
    last = static_cast<RangeId>(it - splits_.begin());
  }
  std::vector<RangeId> result;
  for (RangeId r = first; r <= last; ++r) result.push_back(r);
  return result;
}

}  // namespace firestore::rtcache
