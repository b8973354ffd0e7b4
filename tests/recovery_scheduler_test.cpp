// Tests for the batched RecoveryScheduler and the background Scrubber:
// batched multi-page repair must be byte-identical to per-page repair —
// also when one batch mixes backup sources — must read shared log
// segments instead of one random read per chain record, must read only
// the archive runs that hold the burst's chains, and a background sweep
// must heal cold-page faults no foreground read would ever touch.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "db/database.h"

namespace spf {
namespace {

using bench::Key;

DatabaseOptions FastOptions() {
  DatabaseOptions o;
  o.num_pages = 2048;
  o.buffer_frames = 256;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  o.backup_policy.updates_threshold = 0;  // full backup is the only source
  return o;
}

constexpr int kRecords = 3000;
constexpr int kVictimStride = 150;
constexpr int kUpdateRounds = 4;

/// Interleaved per-page log chains + all victim leaves, via the shared
/// burst construction the E8b/E9 benches use.
std::unique_ptr<Database> MakeChainedDb(DatabaseOptions options,
                                        std::vector<PageId>* victims) {
  return bench::MakeChainedBurstDb(std::move(options), kRecords,
                                   /*burst=*/SIZE_MAX, victims, kUpdateRounds,
                                   kVictimStride);
}

void CorruptAll(Database* db, const std::vector<PageId>& victims) {
  db->pool()->DiscardAll();
  for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);
}

std::vector<std::string> SnapshotPages(Database* db,
                                       const std::vector<PageId>& victims) {
  std::vector<std::string> images;
  const uint32_t page_size = db->options().page_size;
  for (PageId v : victims) {
    std::string img(page_size, '\0');
    db->data_device()->RawRead(v, img.data());
    images.push_back(std::move(img));
  }
  return images;
}

TEST(RecoverySchedulerTest, BatchedRepairMatchesSerialByteForByte) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_GE(victims.size(), 8u);

  // Serial baseline: one RepairPage per page.
  CorruptAll(db.get(), victims);
  BatchRepairResult serial = bench::RepairEachPage(db.get(), victims);
  EXPECT_EQ(serial.repaired, victims.size());
  EXPECT_EQ(serial.failed, 0u);
  std::vector<std::string> serial_images = SnapshotPages(db.get(), victims);

  // Batched repair of the identical damage.
  CorruptAll(db.get(), victims);
  auto batched = db->RepairPages(victims);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(batched->repaired, victims.size());
  EXPECT_EQ(batched->failed, 0u);
  std::vector<std::string> batched_images = SnapshotPages(db.get(), victims);

  for (size_t i = 0; i < victims.size(); ++i) {
    EXPECT_EQ(serial_images[i], batched_images[i])
        << "page " << victims[i] << " differs between serial and batched";
  }

  // Both result in a healthy, fully readable database.
  uint64_t checked = 0;
  ASSERT_TRUE(db->CheckOffline(&checked).ok());
  EXPECT_GT(checked, 0u);
}

TEST(RecoverySchedulerTest, BatchReadsSharedSegmentsNotPerRecord) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_GE(victims.size(), 8u);
  SinglePageRecovery* spr = db->single_page_recovery();

  // Serial baseline: one random log read per chain record.
  CorruptAll(db.get(), victims);
  spr->ResetStats();
  ASSERT_EQ(bench::RepairEachPage(db.get(), victims).failed, 0u);
  SinglePageRecoveryStats serial = spr->stats();
  ASSERT_EQ(serial.repairs_succeeded, victims.size());
  // Every page was updated after its backup, so chains are non-trivial
  // and the serial walk paid at least pages × chain_length log reads.
  ASSERT_GE(serial.log_records_applied, victims.size() * kUpdateRounds);
  ASSERT_GE(serial.log_reads, serial.log_records_applied);

  // Batched: the same records must be applied, but the log is read in
  // shared segments — strictly fewer fetches than pages × chain_length.
  CorruptAll(db.get(), victims);
  spr->ResetStats();
  db->recovery_scheduler()->ResetStats();
  ASSERT_TRUE(db->RepairPages(victims).ok());
  SinglePageRecoveryStats batched = spr->stats();
  EXPECT_EQ(batched.repairs_succeeded, victims.size());
  EXPECT_EQ(batched.log_records_applied, serial.log_records_applied);
  EXPECT_LT(batched.log_reads, serial.log_reads);
  EXPECT_LT(batched.log_reads, victims.size() * kUpdateRounds);

  RecoverySchedulerStats sched = db->recovery_scheduler()->stats();
  EXPECT_EQ(sched.batches, 1u);
  EXPECT_EQ(sched.pages_repaired, victims.size());
  EXPECT_GT(sched.segment_fetches, 0u);
  EXPECT_GE(sched.chain_clusters, 1u);
}

TEST(RecoverySchedulerTest, SparseBurstReadsOnlyTheArchivedChains) {
  // Backup images from the load, then churn on every other leaf that the
  // merge ladder folds into a multi-level archive, then a short chain on
  // each of a few scattered victims: their floors predate all the churn
  // runs, but their chains sit in the newest run only.
  constexpr int kSparseRecords = 20000;
  constexpr int kSparseStride = 2500;
  DatabaseOptions o = FastOptions();
  o.archive_run_bytes = 16 * 1024;
  o.archive_merge_fanin = 3;
  auto db = bench::MakeLoadedDb(o, kSparseRecords);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  std::set<PageId> victim_set;
  for (int i = 0; i < kSparseRecords; i += kSparseStride) {
    victim_set.insert(*db->LeafPageOf(Key(i)));
  }
  std::vector<PageId> victims(victim_set.begin(), victim_set.end());
  ASSERT_EQ(victims.size(), 8u);
  Random rng(11);
  for (int u = 0; u < 1500; ++u) {
    const int key = static_cast<int>(rng.Uniform(kSparseRecords));
    if (victim_set.count(*db->LeafPageOf(Key(key)))) continue;
    Txn t = db->BeginTxn();
    ASSERT_TRUE(t.Update(Key(key), "churn" + std::to_string(u)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kSparseRecords; i += kSparseStride) {
      Txn t = db->BeginTxn();
      ASSERT_TRUE(t.Update(Key(i), "victim" + std::to_string(round)).ok());
      ASSERT_TRUE(t.Commit().ok());
    }
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  std::set<uint32_t> levels;
  for (const ArchiveRunInfo& r : db->archiver()->runs()) levels.insert(r.level);
  ASSERT_GE(levels.size(), 3u) << "archive spans fewer than three levels";
  const std::vector<std::string> live = SnapshotPages(db.get(), victims);

  CorruptAll(db.get(), victims);
  const DeviceStats before = db->archive_device()->stats();
  auto archived = db->RecoverPages(victims);
  const DeviceStats after = db->archive_device()->stats();
  ASSERT_TRUE(archived.ok()) << archived.status().ToString();
  EXPECT_EQ(archived->path, RecoveryPath::kSinglePage);
  EXPECT_EQ(archived->repaired_single_page, victims.size());
  const std::vector<std::string> from_archive = SnapshotPages(db.get(), victims);
  EXPECT_GT(after.page_reads, before.page_reads) << "archive not used";
  EXPECT_LE(after.page_reads - before.page_reads, 4 * victims.size())
      << "archive pages read per repaired page above 4";

  // Tail-only baseline: the same burst with no archive wired in.
  db->single_page_recovery()->SetArchive(nullptr);
  CorruptAll(db.get(), victims);
  auto tail = db->RecoverPages(victims);
  db->single_page_recovery()->SetArchive(db->archiver());
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail->repaired_single_page, victims.size());
  const std::vector<std::string> from_tail = SnapshotPages(db.get(), victims);
  for (size_t i = 0; i < victims.size(); ++i) {
    EXPECT_EQ(from_archive[i], from_tail[i]) << "page " << victims[i];
    EXPECT_EQ(from_archive[i], live[i]) << "page " << victims[i];
  }
}

TEST(RecoverySchedulerTest, MixedSourceBatchMatchesPerPageRepair) {
  // One batch whose pages load from every kind of source: the full
  // backup, a per-page copy (the update threshold crossed after the
  // backup), and the format record of a page born after the backup. Both
  // batch entry points must rebuild every page byte-identically to a
  // per-page RepairPage, and the full-backup pages must load in one
  // sorted pass: one positioning on the disk backup device.
  constexpr uint32_t kThreshold = 16;
  constexpr int kMixedRecords = 2000;
  DatabaseOptions o = FastOptions();
  o.backup_profile = DeviceProfile::Hdd100();
  o.backup_policy.updates_threshold = kThreshold;
  auto db = bench::MakeLoadedDb(o, kMixedRecords);
  // The flush copies every page the load pushed past the threshold and
  // restarts its update count; the full backup then supersedes the copies.
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->TakeFullBackup().ok());
  auto update = [&](int key, int times) {
    for (int i = 0; i < times; ++i) {
      Txn t = db->BeginTxn();
      ASSERT_TRUE(t.Update(Key(key), "u" + std::to_string(i)).ok());
      ASSERT_TRUE(t.Commit().ok());
    }
  };
  // Full-backup pages with short chains.
  for (int key = 100; key <= 700; key += 200) update(key, 2);
  // A per-page copy, then a chain on top of it.
  update(1500, kThreshold);
  ASSERT_TRUE(db->FlushAll().ok());
  update(1500, 3);
  // Appends past the loaded range until the last leaf splits: the new
  // leaf's only backup source is its format record. A few appends stay
  // below the threshold, so it keeps that source.
  const PageId last_leaf = *db->LeafPageOf(Key(kMixedRecords - 1));
  int newest = kMixedRecords;
  for (int after_split = 0; after_split < 3; ++newest) {
    Txn t = db->BeginTxn();
    ASSERT_TRUE(t.Insert(Key(newest), "new").ok());
    ASSERT_TRUE(t.Commit().ok());
    if (*db->LeafPageOf(Key(newest)) != last_leaf) after_split++;
    ASSERT_LT(newest, 2 * kMixedRecords) << "the last leaf never split";
  }
  ASSERT_TRUE(db->FlushAll().ok());

  std::set<PageId> victim_set;
  for (int key = 100; key <= 700; key += 200) {
    victim_set.insert(*db->LeafPageOf(Key(key)));
  }
  victim_set.insert(*db->LeafPageOf(Key(1500)));
  victim_set.insert(*db->LeafPageOf(Key(newest - 1)));
  std::vector<PageId> victims(victim_set.begin(), victim_set.end());
  std::map<BackupKind, size_t> kinds;
  for (PageId v : victims) {
    auto entry = db->pri()->Lookup(v);
    ASSERT_TRUE(entry.ok());
    kinds[entry->backup.kind]++;
  }
  ASSERT_GE(kinds[BackupKind::kFullBackup], 2u);
  ASSERT_EQ(kinds[BackupKind::kBackupPage], 1u);
  ASSERT_GE(kinds[BackupKind::kFormatRecord], 1u);
  const std::vector<std::string> live = SnapshotPages(db.get(), victims);

  CorruptAll(db.get(), victims);
  ASSERT_EQ(bench::RepairEachPage(db.get(), victims).failed, 0u);
  const std::vector<std::string> per_page = SnapshotPages(db.get(), victims);
  EXPECT_EQ(per_page, live);

  // The full-backup pass costs one positioning, the per-page copy one more.
  CorruptAll(db.get(), victims);
  DeviceStats b0 = db->backup_device()->stats();
  auto batch = db->recovery_scheduler()->RepairBatchNoEscalation(victims);
  DeviceStats b1 = db->backup_device()->stats();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->repaired, victims.size());
  EXPECT_EQ(b1.random_accesses - b0.random_accesses, 2u);
  EXPECT_EQ(SnapshotPages(db.get(), victims), per_page);

  auto backup = db->backups()->latest_full_backup();
  ASSERT_TRUE(backup.has_value());
  CorruptAll(db.get(), victims);
  PartialRestoreBreakdown bd;
  b0 = db->backup_device()->stats();
  auto restore = db->recovery_scheduler()->RepairBatchFromBackup(
      victims, backup->id, &bd);
  b1 = db->backup_device()->stats();
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  EXPECT_EQ(restore->repaired, victims.size());
  EXPECT_EQ(bd.backup_runs, 1u);
  EXPECT_EQ(bd.backup_pages_loaded, kinds[BackupKind::kFullBackup]);
  EXPECT_EQ(bd.per_page_loads, victims.size() - bd.backup_pages_loaded);
  EXPECT_EQ(b1.random_accesses - b0.random_accesses, 2u);
  EXPECT_EQ(SnapshotPages(db.get(), victims), per_page);
}

TEST(RecoverySchedulerTest, EmptyAndDuplicateBatches) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);

  auto empty = db->RepairPages({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->repaired, 0u);

  CorruptAll(db.get(), {victims[0]});
  auto dup = db->RepairPages({victims[0], victims[0], victims[0]});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->repaired, 1u);
}

TEST(RecoverySchedulerTest, ForegroundReadsStillFunnelThroughScheduler) {
  // With auto-escalation OFF the pre-funnel wiring applies: a foreground
  // read of the corrupted page repairs inline (Figure 8) and is accounted
  // as a single-page request on the scheduler.
  DatabaseOptions options = FastOptions();
  options.auto_escalate = false;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  CorruptAll(db.get(), {victims[0]});

  auto v = db->Get(Key(0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_GT(db->recovery_scheduler()->stats().single_repairs, 0u);
  EXPECT_GT(db->single_page_recovery()->stats().repairs_succeeded, 0u);
}

TEST(RecoverySchedulerTest, ForegroundReadsRouteThroughTheFunnelByDefault) {
  // Default wiring: the read path reports into the failure funnel and
  // waits; the repair still runs through the scheduler's batch machinery
  // (RecoverPages' single-page rung), not the inline single_repairs hook.
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  CorruptAll(db.get(), {victims[0]});

  auto v = db->Get(Key(0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  StatsSnapshot stats = db->Stats();
  EXPECT_EQ(stats.scheduler.single_repairs, 0u);
  EXPECT_GE(stats.funnel.from_foreground, 1u);
  EXPECT_GE(stats.funnel.repaired_spr, 1u);
  EXPECT_GT(stats.spr.repairs_succeeded, 0u);
}

TEST(ScrubberTest, IncrementalTicksCoverTheWholeDevice) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  CorruptAll(db.get(), victims);

  // Tick with a small budget until one full sweep completed; every
  // injected fault must be found and reported into the failure funnel,
  // which heals it without any foreground read.
  uint64_t reported = 0;
  for (int i = 0; i < 1000; ++i) {
    auto tick = db->scrubber()->Tick();
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    reported += tick->failures_reported;
    if (db->scrubber()->totals().sweeps_completed >= 1) break;
  }
  EXPECT_EQ(db->scrubber()->totals().sweeps_completed, 1u);
  EXPECT_GE(reported, victims.size());
  db->funnel()->WaitIdle();
  FunnelTotals funnel = db->funnel()->totals();
  EXPECT_GE(funnel.repaired_spr + funnel.repaired_partial, victims.size());
  EXPECT_EQ(funnel.failed, 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(ScrubberTest, BackgroundScrubHealsColdPageWithoutForegroundRead) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);

  // A cold page develops a latent fault. No foreground read ever touches
  // it; only the background sweep can notice.
  PageId cold = victims[victims.size() / 2];
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(cold);

  db->scrubber()->Start();
  ASSERT_TRUE(db->scrubber()->running());
  // Wall-clock bound; simulated time advances through the sweep's own
  // device reads. Wait for the funnel to have HEALED the report, not
  // just for the sweep to pass over it.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (db->funnel()->totals().repaired_spr < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  db->scrubber()->Stop();
  ASSERT_FALSE(db->scrubber()->running());
  db->funnel()->WaitIdle();

  ScrubberTotals totals = db->scrubber()->totals();
  EXPECT_GE(totals.failures_detected, 1u);
  EXPECT_GE(totals.failures_reported, 1u);
  EXPECT_EQ(totals.escalations, 0u);
  FunnelTotals funnel = db->funnel()->totals();
  EXPECT_GE(funnel.from_scrubber, 1u);
  EXPECT_GE(funnel.repaired_spr, 1u);
  EXPECT_EQ(funnel.failed, 0u);

  // The device copy is healed in place — verified WITHOUT any database
  // read path.
  PageBuffer buf(db->options().page_size);
  db->data_device()->RawRead(cold, buf.data());
  EXPECT_TRUE(buf.view().Verify(cold).ok());
}

TEST(ScrubberTest, ScrubIsThinWrapperOverScrubberSweep) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  CorruptAll(db.get(), victims);

  auto scrub = db->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_GE(scrub->failures_detected, victims.size());
  EXPECT_GE(scrub->pages_repaired, victims.size());
  EXPECT_EQ(db->scrubber()->totals().sweeps_completed, 1u);

  // Second sweep is clean.
  auto again = db->Scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->failures_detected, 0u);
}

}  // namespace
}  // namespace spf
