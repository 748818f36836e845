#include "spanner/storage.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "common/metrics.h"

namespace firestore::spanner {

bool Tablet::Contains(const Key& key) const {
  if (key < start_key_) return false;
  return limit_key_.empty() || key < limit_key_;
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
  auto row = rows_.try_emplace(key).first;
  Versions& versions = row->second;
  if (!versions.empty() || !value.has_value()) {
    FS_CHECK(versions.empty() || ts > versions.rbegin()->first);
    FS_CHECK(gc_queue_.empty() || ts >= gc_queue_.back().first);
    gc_queue_.emplace_back(ts, row);
  }
  ++TabletForKey(key)->stats_.writes;
  FS_METRIC_COUNTER("spanner.rows.written").Increment();
  versions.emplace(ts, std::move(value));
}

RowValue Table::ReadAt(const Key& key, Timestamp ts,
                       Timestamp* version) const {
  ++TabletForKey(key)->stats_.reads;
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

std::vector<ScanRow> Table::ScanAt(const Key& start, const Key& limit,
                                   Timestamp ts, int64_t max_rows) const {
  std::vector<ScanRow> rows;
  // Returned rows are charged to their tablet once per tablet crossed.
  const Tablet* tablet = TabletForKey(start);
  int64_t tablet_rows = 0;
  for (auto it = rows_.lower_bound(start); it != rows_.end(); ++it) {
    if (!limit.empty() && it->first >= limit) break;
    const Versions& versions = it->second;
    auto vit = versions.upper_bound(ts);
    if (vit == versions.begin()) continue;
    --vit;
    if (!vit->second.has_value()) continue;  // tombstone
    if (!tablet->Contains(it->first)) {
      tablet->stats_.reads += tablet_rows;
      tablet = TabletForKey(it->first);
      tablet_rows = 0;
    }
    ++tablet_rows;
    rows.push_back({it->first, *vit->second, vit->first});
    if (static_cast<int64_t>(rows.size()) == max_rows) break;
  }
  if (!rows.empty()) {
    tablet->stats_.reads += tablet_rows;
    FS_METRIC_COUNTER("spanner.rows.scanned")
        .Increment(static_cast<int64_t>(rows.size()));
  }
  return rows;
}

void Table::SplitTablet(size_t index, const Key& split_key) {
  Tablet& lower = *tablets_[index];
  FS_CHECK(lower.Contains(split_key));
  FS_CHECK(split_key != lower.start_key_);
  tablets_.insert(tablets_.begin() + static_cast<ptrdiff_t>(index) + 1,
                  std::make_unique<Tablet>(split_key, lower.limit_key_));
  lower.limit_key_ = split_key;
  lower.stats_.reads = 0;
  lower.stats_.writes = 0;
}

int Table::MaybeSplit(int64_t load_threshold) {
  int splits = 0;
  for (size_t i = 0; i < tablets_.size(); ++i) {
    Tablet& tablet = *tablets_[i];
    const TabletStats& s = tablet.stats_;
    if (s.reads + s.writes < load_threshold) continue;
    // The median of the tablet's stored keys (tombstoned rows included).
    auto first = rows_.lower_bound(tablet.start_key_);
    auto last = tablet.limit_key_.empty()
                    ? rows_.end()
                    : rows_.lower_bound(tablet.limit_key_);
    auto stored = std::distance(first, last);
    if (stored < 2) {
      tablet.stats_.reads = 0;
      tablet.stats_.writes = 0;
      continue;
    }
    SplitTablet(i, std::next(first, stored / 2)->first);
    ++splits;
    ++i;  // skip the new upper half this round
  }
  return splits;
}

Status Table::SplitAt(const Key& split_key) {
  size_t idx = TabletIndexForKey(split_key);
  if (split_key == tablets_[idx]->start_key()) {
    return AlreadyExistsError("split point is already a tablet boundary");
  }
  SplitTablet(idx, split_key);
  return Status::Ok();
}

int64_t Table::GarbageCollect(Timestamp horizon) {
  int64_t dropped = 0;
  while (!gc_queue_.empty() && gc_queue_.front().first <= horizon) {
    auto [ts, row] = gc_queue_.front();
    gc_queue_.pop_front();
    Versions& versions = row->second;
    // Keep the newest version <= horizon plus everything after horizon.
    auto keep = versions.upper_bound(horizon);
    if (keep != versions.begin()) --keep;
    dropped += std::distance(versions.begin(), keep);
    versions.erase(versions.begin(), keep);
    // A row whose newest write is an old tombstone goes with that write's
    // entry, its last, so no queued entry is left pointing at it.
    if (versions.rbegin()->first == ts && !versions.rbegin()->second) {
      ++dropped;
      rows_.erase(row);
    }
  }
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
