#include "spanner/storage.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <new>

#include "common/logging.h"
#include "common/metrics.h"

namespace firestore::spanner {

namespace {

// The first of `older` (ascending by timestamp) newer than `ts`.
template <typename Versions>
auto FirstAfter(const Versions& older, Timestamp ts) {
  return std::partition_point(older.begin(), older.end(),
                              [ts](const auto& v) { return v.first <= ts; });
}

// The block every empty value points at: a zero length and no bytes.
alignas(size_t) char kEmptyBlock[sizeof(size_t)] = {};

}  // namespace

Table::StoredValue::StoredValue(const RowValue& value) {
  if (!value.has_value()) return;
  const size_t size = value->size();
  if (size == 0) {
    block_ = kEmptyBlock;
    return;
  }
  block_ = static_cast<char*>(::operator new(sizeof(size_t) + size));
  std::memcpy(block_, &size, sizeof(size_t));
  std::memcpy(block_ + sizeof(size_t), value->data(), size);
}

Table::StoredValue::~StoredValue() {
  if (block_ != nullptr && block_ != kEmptyBlock) ::operator delete(block_);
}

std::string_view Table::StoredValue::bytes() const {
  size_t size;
  std::memcpy(&size, block_, sizeof(size_t));
  return {block_ + sizeof(size_t), size};
}

RowValue Table::StoredValue::ToRowValue() const {
  if (!has_value()) return std::nullopt;
  return std::string(bytes());
}

std::pair<Timestamp, const Table::StoredValue*> Table::Row::VersionAt(
    Timestamp at) const {
  if (ts <= at) return {ts, &value};
  if (older == nullptr) return {0, nullptr};
  auto it = FirstAfter(*older, at);
  if (it == older->begin()) return {0, nullptr};
  --it;
  return {it->first, &it->second};
}

void Table::RowDeleter::operator()(Row* row) const {
  row->~Row();
  ::operator delete(row);
}

Table::RowPtr Table::NewRow(std::string_view key) {
  void* block = ::operator new(sizeof(Row) + key.size());
  RowPtr row(new (block) Row);
  row->key_size = key.size();
  std::memcpy(static_cast<void*>(row.get() + 1), key.data(), key.size());
  return row;
}

Table::Table(std::string name) : name_(std::move(name)) {
  tablets_.try_emplace(Key());
}

Tablets::const_iterator Table::Apply(const Key& key, const RowValue& value,
                                     Timestamp ts) {
  // One walk finds the row or where a new one goes.
  auto row = rows_.lower_bound(key);
  const bool inserted = row == rows_.end() || (*row)->key() != key;
  if (inserted) row = rows_.emplace_hint(row, NewRow(key));
  Row& r = **row;
  if (!inserted || !value.has_value()) {
    FS_CHECK(inserted || ts > r.ts);
    FS_CHECK(gc_queue_.empty() || ts >= gc_queue_.back().first);
    gc_queue_.emplace_back(ts, row);
  }
  auto tablet = TabletForKey(key);
  ++tablet->second.writes;
  FS_METRIC_COUNTER("spanner.rows.written").Increment();
  if (!inserted) {
    if (r.older == nullptr) {
      r.older =
          std::make_unique<std::vector<std::pair<Timestamp, StoredValue>>>();
    }
    r.older->emplace_back(r.ts, std::move(r.value));
  }
  r.ts = ts;
  r.value = StoredValue(value);
  return tablet;
}

RowValue Table::ReadAt(const Key& key, Timestamp ts,
                       Timestamp* version) const {
  ++TabletForKey(key)->second.reads;
  FS_METRIC_COUNTER("spanner.rows.read").Increment();
  if (version != nullptr) *version = 0;
  auto row = rows_.find(key);
  if (row == rows_.end()) return std::nullopt;
  auto [found, value] = (*row)->VersionAt(ts);
  if (value == nullptr) return std::nullopt;
  if (version != nullptr) *version = found;
  return value->ToRowValue();
}

std::vector<ScanRow> Table::ScanAt(const Key& start, const Key& limit,
                                   Timestamp ts, int64_t max_rows) const {
  std::vector<ScanRow> rows;
  // Returned rows are charged to their tablet once per tablet crossed.
  auto tablet = TabletForKey(start);
  auto next = std::next(tablet);  // the tablet after, or end
  int64_t tablet_rows = 0;
  for (auto it = rows_.lower_bound(start); it != rows_.end(); ++it) {
    const std::string_view key = (*it)->key();
    if (!limit.empty() && key >= limit) break;
    auto [version, value] = (*it)->VersionAt(ts);
    if (value == nullptr || !value->has_value()) continue;  // none, tombstone
    if (next != tablets_.end() && key >= next->first) {
      tablet->second.reads += tablet_rows;
      tablet = TabletForKey(key);
      next = std::next(tablet);
      tablet_rows = 0;
    }
    ++tablet_rows;
    rows.push_back({Key(key), std::string(value->bytes()), version});
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
    tablet =
        tablets_.try_emplace(next, Key((*std::next(first, stored / 2))->key()));
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
    Row& r = **row;
    if (r.older != nullptr) {
      // Keep the newest version <= horizon plus everything after horizon.
      auto& older = *r.older;
      auto keep = older.cend();
      if (r.ts > horizon) {
        keep = FirstAfter(older, horizon);
        if (keep != older.cbegin()) --keep;
      }
      dropped += keep - older.cbegin();
      older.erase(older.cbegin(), keep);
      if (older.empty()) r.older.reset();
    }
    // A row whose newest write is an old tombstone goes with that write's
    // entry, its last, so no queued entry is left pointing at it.
    if (r.ts == ts && !r.value.has_value()) {
      ++dropped;
      rows_.erase(row);
    }
  }
  return dropped;
}

}  // namespace firestore::spanner
