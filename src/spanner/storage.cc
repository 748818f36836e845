#include "spanner/storage.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace firestore::spanner {

bool Tablet::Contains(const Key& key) const {
  if (key < start_key_) return false;
  return limit_key_.empty() || key < limit_key_;
}

void Tablet::Apply(const Key& key, RowValue value, Timestamp ts) {
  FS_CHECK(Contains(key));
  Versions& versions = rows_[key];
  if (!versions.empty()) {
    FS_CHECK_GT(ts, versions.rbegin()->first);
    // Replace the byte accounting of the previous latest version.
    const RowValue& prev = versions.rbegin()->second;
    if (prev.has_value()) {
      stats_.bytes -= static_cast<int64_t>(prev->size() + key.size());
    }
  }
  if (value.has_value()) {
    stats_.bytes += static_cast<int64_t>(value->size() + key.size());
  }
  ++stats_.writes;
  // Registry mirror of the per-tablet load stats (which reset on split and
  // stay functional for load splitting): process-wide monotonic totals.
  FS_METRIC_COUNTER("spanner.rows.written").Increment();
  versions.emplace(ts, std::move(value));
}

RowValue Tablet::ReadAt(const Key& key, Timestamp ts,
                        Timestamp* version) const {
  ++stats_.reads;
  FS_METRIC_COUNTER("spanner.rows.read").Increment();
  if (version != nullptr) *version = 0;
  auto row = rows_.find(key);
  if (row == rows_.end()) return std::nullopt;
  const Versions& versions = row->second;
  // Latest version with timestamp <= ts.
  auto it = versions.upper_bound(ts);
  if (it == versions.begin()) return std::nullopt;
  --it;
  if (version != nullptr) *version = it->first;
  return it->second;
}

bool Tablet::ScanAt(
    const Key& start, const Key& limit, Timestamp ts,
    const std::function<bool(const Key&, const std::string&, Timestamp)>& cb)
    const {
  auto it = rows_.lower_bound(std::max(start, start_key_));
  for (; it != rows_.end(); ++it) {
    if (!limit.empty() && it->first >= limit) break;
    if (!limit_key_.empty() && it->first >= limit_key_) break;
    const Versions& versions = it->second;
    auto vit = versions.upper_bound(ts);
    if (vit == versions.begin()) continue;
    --vit;
    if (!vit->second.has_value()) continue;  // tombstone
    ++stats_.reads;
    FS_METRIC_COUNTER("spanner.rows.scanned").Increment();
    if (!cb(it->first, *vit->second, vit->first)) return true;
  }
  return false;
}

std::unique_ptr<Tablet> Tablet::SplitAt(const Key& split_key) {
  FS_CHECK(Contains(split_key));
  FS_CHECK(split_key != start_key_);
  auto upper = std::make_unique<Tablet>(split_key, limit_key_);
  limit_key_ = split_key;
  auto first_moved = rows_.lower_bound(split_key);
  for (auto it = first_moved; it != rows_.end(); ++it) {
    upper->rows_.emplace(it->first, std::move(it->second));
  }
  rows_.erase(first_moved, rows_.end());
  // Split byte accounting approximately in half; load counters reset.
  upper->stats_.bytes = stats_.bytes / 2;
  stats_.bytes -= upper->stats_.bytes;
  stats_.reads = 0;
  stats_.writes = 0;
  return upper;
}

std::optional<Key> Tablet::MedianKey() const {
  if (rows_.size() < 2) return std::nullopt;
  auto it = rows_.begin();
  std::advance(it, rows_.size() / 2);
  if (it->first == start_key_) return std::nullopt;
  return it->first;
}

int64_t Tablet::GarbageCollect(Timestamp horizon) {
  int64_t dropped = 0;
  for (auto row = rows_.begin(); row != rows_.end();) {
    Versions& versions = row->second;
    // Keep the newest version <= horizon plus everything after horizon.
    auto keep = versions.upper_bound(horizon);
    if (keep != versions.begin()) --keep;
    dropped += std::distance(versions.begin(), keep);
    versions.erase(versions.begin(), keep);
    // Drop rows reduced to a single old tombstone.
    if (versions.size() == 1 && versions.begin()->first <= horizon &&
        !versions.begin()->second.has_value()) {
      ++dropped;
      row = rows_.erase(row);
    } else {
      ++row;
    }
  }
  return dropped;
}

void Tablet::ResetLoadStats() {
  stats_.reads = 0;
  stats_.writes = 0;
}

Table::Table(std::string name) : name_(std::move(name)) {
  tablets_.push_back(std::make_unique<Tablet>(Key(), Key()));
}

size_t Table::TabletIndexForKey(const Key& key) const {
  // Binary search over start keys: last tablet with start_key <= key.
  size_t lo = 0, hi = tablets_.size();
  while (hi - lo > 1) {
    size_t mid = (lo + hi) / 2;
    if (tablets_[mid]->start_key() <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Tablet* Table::TabletForKey(const Key& key) {
  return tablets_[TabletIndexForKey(key)].get();
}

const Tablet* Table::TabletForKey(const Key& key) const {
  return tablets_[TabletIndexForKey(key)].get();
}

void Table::Apply(const Key& key, RowValue value, Timestamp ts) {
  TabletForKey(key)->Apply(key, std::move(value), ts);
}

RowValue Table::ReadAt(const Key& key, Timestamp ts,
                       Timestamp* version) const {
  return TabletForKey(key)->ReadAt(key, ts, version);
}

void Table::ScanAt(
    const Key& start, const Key& limit, Timestamp ts,
    const std::function<bool(const Key&, const std::string&, Timestamp)>& cb)
    const {
  for (size_t i = TabletIndexForKey(start); i < tablets_.size(); ++i) {
    const Tablet& tablet = *tablets_[i];
    if (!limit.empty() && tablet.start_key() >= limit) break;
    if (tablet.ScanAt(start, limit, ts, cb)) break;
  }
}

int Table::MaybeSplit(int64_t load_threshold) {
  int splits = 0;
  for (size_t i = 0; i < tablets_.size(); ++i) {
    Tablet& tablet = *tablets_[i];
    const TabletStats& s = tablet.stats();
    if (s.reads + s.writes < load_threshold) continue;
    std::optional<Key> median = tablet.MedianKey();
    if (!median.has_value()) {
      tablet.ResetLoadStats();
      continue;
    }
    std::unique_ptr<Tablet> upper = tablet.SplitAt(*median);
    tablets_.insert(tablets_.begin() + static_cast<ptrdiff_t>(i) + 1,
                    std::move(upper));
    ++splits;
    ++i;  // skip the new upper half this round
  }
  return splits;
}

Status Table::SplitAt(const Key& split_key) {
  size_t idx = TabletIndexForKey(split_key);
  Tablet& tablet = *tablets_[idx];
  if (split_key == tablet.start_key()) {
    return AlreadyExistsError("split point is already a tablet boundary");
  }
  std::unique_ptr<Tablet> upper = tablet.SplitAt(split_key);
  tablets_.insert(tablets_.begin() + static_cast<ptrdiff_t>(idx) + 1,
                  std::move(upper));
  return Status::Ok();
}

int64_t Table::GarbageCollect(Timestamp horizon) {
  int64_t dropped = 0;
  for (auto& tablet : tablets_) dropped += tablet->GarbageCollect(horizon);
  return dropped;
}

int Table::ParticipantCount(const std::vector<Key>& keys) const {
  std::vector<const Tablet*> seen;
  for (const Key& key : keys) {
    const Tablet* t = TabletForKey(key);
    if (std::find(seen.begin(), seen.end(), t) == seen.end()) {
      seen.push_back(t);
    }
  }
  return static_cast<int>(seen.size());
}

}  // namespace firestore::spanner
