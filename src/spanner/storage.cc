#include "spanner/storage.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "common/metrics.h"

namespace firestore::spanner {

Table::Table(std::string name) : name_(std::move(name)) {
  tablets_.try_emplace(Key());
}

void Table::Apply(const Key& key, RowValue value, Timestamp ts) {
  auto row = rows_.try_emplace(key).first;
  Versions& versions = row->second;
  if (!versions.empty() || !value.has_value()) {
    FS_CHECK(versions.empty() || ts > versions.rbegin()->first);
    FS_CHECK(gc_queue_.empty() || ts >= gc_queue_.back().first);
    gc_queue_.emplace_back(ts, row);
  }
  ++TabletForKey(key)->second.writes;
  FS_METRIC_COUNTER("spanner.rows.written").Increment();
  versions.emplace(ts, std::move(value));
}

RowValue Table::ReadAt(const Key& key, Timestamp ts,
                       Timestamp* version) const {
  ++TabletForKey(key)->second.reads;
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
  auto tablet = TabletForKey(start);
  auto next = std::next(tablet);  // the tablet after, or end
  int64_t tablet_rows = 0;
  for (auto it = rows_.lower_bound(start); it != rows_.end(); ++it) {
    if (!limit.empty() && it->first >= limit) break;
    const Versions& versions = it->second;
    auto vit = versions.upper_bound(ts);
    if (vit == versions.begin()) continue;
    --vit;
    if (!vit->second.has_value()) continue;  // tombstone
    if (next != tablets_.end() && it->first >= next->first) {
      tablet->second.reads += tablet_rows;
      tablet = TabletForKey(it->first);
      next = std::next(tablet);
      tablet_rows = 0;
    }
    ++tablet_rows;
    rows.push_back({it->first, *vit->second, vit->first});
    if (static_cast<int64_t>(rows.size()) == max_rows) break;
  }
  if (!rows.empty()) {
    tablet->second.reads += tablet_rows;
    FS_METRIC_COUNTER("spanner.rows.scanned")
        .Increment(static_cast<int64_t>(rows.size()));
  }
  return rows;
}

int Table::MaybeSplit(int64_t load_threshold) {
  int splits = 0;
  for (auto tablet = tablets_.begin(); tablet != tablets_.end(); ++tablet) {
    const TabletStats& s = tablet->second;
    if (s.reads.exchange(0) + s.writes.exchange(0) < load_threshold) continue;
    // The median of the tablet's stored keys (tombstoned rows included).
    auto next = std::next(tablet);
    auto first = rows_.lower_bound(tablet->first);
    auto last =
        next == tablets_.end() ? rows_.end() : rows_.lower_bound(next->first);
    auto stored = std::distance(first, last);
    if (stored < 2) continue;
    // The new upper half starts at zero load; the loop steps past it.
    tablet = tablets_.try_emplace(next, std::next(first, stored / 2)->first);
    ++splits;
  }
  return splits;
}

Status Table::SplitAt(const Key& split_key) {
  if (!tablets_.try_emplace(split_key).second) {
    return AlreadyExistsError("split point is already a tablet boundary");
  }
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
  std::vector<Tablets::const_iterator> seen;
  for (const Key& key : keys) {
    auto tablet = TabletForKey(key);
    if (std::find(seen.begin(), seen.end(), tablet) == seen.end()) {
      seen.push_back(tablet);
    }
  }
  return static_cast<int>(seen.size());
}

}  // namespace firestore::spanner
