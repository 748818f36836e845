// Ablation A3: sequential-value index hotspotting (paper §III-B, §IV-D2).
//
// "fields with sequentially increasing values, such as time, introduce
// hotspots that limit maximum write throughput" — every insert appends to
// the tail of the (timestamp) index, so Spanner's load-based splitting
// cannot spread the load: all writes land in the last tablet no matter how
// many splits happen. Random-valued fields spread across tablets.
//
// We insert documents whose indexed field is (a) a monotonically increasing
// timestamp and (b) a uniformly random value, run load-based splitting
// periodically, and report how concentrated the index write load is.

#include <cstdio>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "firestore/index/layout.h"
#include "service/service.h"

using namespace firestore;

namespace {

struct HotspotResult {
  size_t tablets = 0;
  double max_load_share = 0;  // fraction of recent writes on hottest tablet
};

HotspotResult Run(bool sequential) {
  RealClock clock;
  service::FirestoreService service(&clock);
  const std::string db = "projects/bench/databases/hotspot";
  FS_CHECK_OK(service.CreateDatabase(db));
  Rng rng(sequential ? 3 : 4);

  constexpr int kDocs = 6000;
  constexpr int kSplitEvery = 500;
  int64_t ts_counter = 1'000'000;
  for (int i = 0; i < kDocs; ++i) {
    int64_t v = sequential ? ts_counter++ : rng.Uniform(0, 1'000'000'000);
    auto result = service.Commit(
        db, {backend::Mutation::Set(
                model::ResourcePath::Parse("/events/e" + std::to_string(i))
                    .value(),
                {{"time", model::Value::Integer(v)}})});
    FS_CHECK(result.ok());
    // Maintenance between batches. Each pass starts a fresh load window, so
    // the final batch, left unsplit, is the last window: what it measures.
    if ((i + 1) % kSplitEvery == 0 && (i + 1) <= kDocs - kSplitEvery) {
      service.spanner().RunLoadSplitting(/*load_threshold=*/200);
    }
  }
  // Measure where the final burst of index writes landed.
  const spanner::Table* table =
      service.spanner().GetTable(index::kIndexEntriesTable);
  HotspotResult result;
  result.tablets = table->tablet_count();
  int64_t total = 0, hottest = 0;
  for (const auto& [start, stats] : table->tablets()) {
    total += stats.writes.load();
    hottest = std::max(hottest, stats.writes.load());
  }
  result.max_load_share =
      total > 0 ? static_cast<double>(hottest) / static_cast<double>(total)
                : 0;
  return result;
}

}  // namespace

int main() {
  std::printf("=== Ablation A3: sequential vs random indexed values ===\n");
  HotspotResult seq = Run(/*sequential=*/true);
  HotspotResult rnd = Run(/*sequential=*/false);
  std::printf("%-26s %10s %26s\n", "indexed field", "tablets",
              "hottest-tablet write share");
  std::printf("%-26s %10zu %25.0f%%\n", "sequential timestamp",
              seq.tablets, seq.max_load_share * 100);
  std::printf("%-26s %10zu %25.0f%%\n", "uniform random", rnd.tablets,
              rnd.max_load_share * 100);
  std::printf("\nshape check: with sequential values the write load "
              "concentrates on the tail tablet (splitting cannot help — "
              "\"this workload is inherently difficult to split\"); random "
              "values spread across tablets.\n");
  FS_CHECK_GT(seq.max_load_share, rnd.max_load_share * 2);
  FS_CHECK_GT(rnd.tablets, 1u);
  return 0;
}
