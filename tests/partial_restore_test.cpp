// Tests for partial media restore (the "instant restore" bridge) and the
// RecoverPages escalation ladder: partial restore must be byte-identical
// to full restore-and-replay for the damaged set, the policy must route
// small batches to single-page repair / bounded damage to partial restore
// / unbounded damage to full restore, and the scrubber's tick accounting
// and write-back TOCTOU re-check must hold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "recovery/media_recovery.h"

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

std::unique_ptr<Database> MakeChainedDb(DatabaseOptions options,
                                        std::vector<PageId>* victims) {
  return bench::MakeChainedBurstDb(std::move(options), kRecords,
                                   /*burst=*/SIZE_MAX, victims,
                                   /*rounds=*/4, /*stride=*/150);
}

std::vector<std::string> SnapshotPages(Database* db,
                                       const std::vector<PageId>& pages) {
  std::vector<std::string> images;
  const uint32_t page_size = db->options().page_size;
  for (PageId p : pages) {
    std::string img(page_size, '\0');
    db->data_device()->RawRead(p, img.data());
    images.push_back(std::move(img));
  }
  return images;
}

TEST(PartialRestoreTest, ByteIdenticalToFullMediaRecovery) {
  DatabaseOptions options = FastOptions();
  options.spr_batch_limit = 0;  // route every batch straight to partial
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  ASSERT_GE(victims.size(), 8u);
  db->log()->ForceAll();

  // Bounded damage: every victim location fails reads until rewritten.
  for (PageId v : victims) db->data_device()->FailPageRange(v, 1);

  auto rec = db->RecoverPages(victims);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->path, RecoveryPath::kPartialRestore);
  EXPECT_EQ(rec->escalated_to_partial, victims.size());
  EXPECT_EQ(rec->media.pages_restored, victims.size());
  EXPECT_GT(rec->media.redo_applied, 0u);
  std::vector<std::string> partial_images = SnapshotPages(db.get(), victims);

  // The healed pages serve reads again with no repair machinery involved.
  uint64_t checked = 0;
  ASSERT_TRUE(db->CheckOffline(&checked).ok());
  EXPECT_GT(checked, 0u);

  // Now lose the WHOLE device and run traditional restore-and-replay;
  // the damaged set must come back byte-identical to the partial path.
  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  auto full = db->RecoverMedia();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  std::vector<std::string> full_images = SnapshotPages(db.get(), victims);

  for (size_t i = 0; i < victims.size(); ++i) {
    EXPECT_EQ(partial_images[i], full_images[i])
        << "page " << victims[i]
        << " differs between partial and full restore";
  }
}

TEST(PartialRestoreTest, PartialReadsBackupSequentiallyAndLogInSegments) {
  DatabaseOptions options = FastOptions();
  options.spr_batch_limit = 0;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  ASSERT_GE(victims.size(), 8u);

  for (PageId v : victims) db->data_device()->FailPageRange(v, 1);
  db->recovery_scheduler()->ResetStats();
  auto rec = db->RecoverPages(victims);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->path, RecoveryPath::kPartialRestore);

  RecoverySchedulerStats sched = db->recovery_scheduler()->stats();
  EXPECT_EQ(sched.partial_restores, 1u);
  EXPECT_EQ(sched.pages_repaired, victims.size());
  // Chains were replayed through shared segments, not per-record reads.
  EXPECT_GT(sched.segment_fetches, 0u);
  EXPECT_LT(sched.segment_fetches, rec->media.redo_applied);
}

TEST(PartialRestoreTest, EscalationPolicyRouting) {
  DatabaseOptions options = FastOptions();
  options.spr_batch_limit = 4;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  ASSERT_GE(victims.size(), 8u);

  // Small batch (<= limit): coordinated single-page repair suffices.
  std::vector<PageId> small(victims.begin(), victims.begin() + 3);
  for (PageId v : small) db->data_device()->InjectSilentCorruption(v);
  auto rec = db->RecoverPages(small);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->path, RecoveryPath::kSinglePage);
  EXPECT_EQ(rec->repaired_single_page, small.size());
  EXPECT_EQ(rec->escalated_to_partial, 0u);

  // Bounded damage above the limit: straight to partial restore.
  for (PageId v : victims) db->data_device()->FailPageRange(v, 1);
  rec = db->RecoverPages(victims);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->path, RecoveryPath::kPartialRestore);
  EXPECT_EQ(rec->repaired_single_page, 0u);
  EXPECT_EQ(rec->media.pages_restored, victims.size());

  // Unbounded damage: the whole device is gone — full restore-and-replay.
  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  rec = db->RecoverPages({victims.front()});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->path, RecoveryPath::kFullRestore);
  EXPECT_EQ(rec->media.pages_restored, bench::RestoreSetSize(db.get()));
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(PartialRestoreTest, SprWithoutBackupEscalatesToPartialRestore) {
  DatabaseOptions options = FastOptions();
  options.spr_batch_limit = 64;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  ASSERT_GE(victims.size(), 3u);

  // One page loses its PRI backup reference (the section 5.2.5 lost-update
  // shape): single-page repair has no image source for it, but partial
  // restore does not care — the page is still in the full backup.
  std::vector<PageId> small(victims.begin(), victims.begin() + 3);
  PageId orphan = small[1];
  auto entry = db->pri()->Lookup(orphan);
  ASSERT_TRUE(entry.ok());
  db->pri()->Apply(orphan, PriEntry{BackupRef{BackupKind::kNone, 0},
                                    entry->last_lsn});
  for (PageId v : small) db->data_device()->InjectSilentCorruption(v);

  auto rec = db->RecoverPages(small);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->path, RecoveryPath::kPartialRestore);
  EXPECT_EQ(rec->repaired_single_page, small.size() - 1);
  EXPECT_EQ(rec->escalated_to_partial, 1u);
  EXPECT_EQ(rec->media.pages_restored, 1u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(PartialRestoreTest, PageBornAfterBackupLoadsFromItsPerPageSource) {
  // A page allocated AFTER the full backup is not in it — its slot holds
  // pre-birth bytes. Once its PRI reference upgrades from the format
  // record to a per-page copy, partial restore must still route it to
  // that per-page source rather than misreading the full backup (which
  // would abort the partial path and force a full-device restore).
  DatabaseOptions options = FastOptions();
  options.spr_batch_limit = 0;            // every batch → partial restore
  options.backup_policy.updates_threshold = 3;
  auto db = bench::MakeLoadedDb(options, 1500);
  ASSERT_TRUE(db->TakeFullBackup().ok());

  // Allocation frontier at backup time: fresh ids are handed out
  // monotonically and nothing is freed here, so any later page id above
  // it was born after the backup.
  PriLayout layout = PriLayout::Compute(db->options().num_pages);
  PageId frontier = 0;
  for (PageId p = 0; p < layout.pri_b_start; ++p) {
    if (db->allocator()->IsAllocated(p)) frontier = p;
  }

  // Grow the tree: splits allocate pages the backup has never seen. The
  // tiny per-page backup threshold upgrades their PRI references from
  // the format record to an individual copy on first write-back.
  for (int base = 1500; base < 3000; base += 500) {
    Txn t = db->BeginTxn();
    for (int i = base; i < base + 500; ++i) {
      ASSERT_TRUE(t.Insert(Key(i), "post-backup").ok());
    }
    ASSERT_TRUE(t.Commit().ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  int young_key = -1;
  PageId young = kInvalidPageId;
  for (int i = 1500; i < 3000; i += 50) {
    auto leaf = db->LeafPageOf(Key(i));
    ASSERT_TRUE(leaf.ok());
    if (*leaf > frontier) {
      young_key = i;
      young = *leaf;
      break;
    }
  }
  ASSERT_NE(young_key, -1) << "no page born after the backup found";

  bench::UpdateKeyNTimes(db.get(), young_key, 4);
  ASSERT_TRUE(db->FlushAll().ok());
  auto entry = db->pri()->Lookup(young);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(entry->backup.kind, BackupKind::kBackupPage);

  db->pool()->DiscardAll();
  db->data_device()->FailPageRange(young, 1);
  auto rec = db->RecoverPages({young});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->path, RecoveryPath::kPartialRestore);
  EXPECT_EQ(rec->media.pages_restored, 1u);
  auto v = db->Get(Key(young_key));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "u3");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(PartialRestoreTest, DirtyBufferedPagesAreSkippedNotRestored) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);

  // Dirty a leaf in the pool; its device image is legitimately stale and
  // must NOT be "recovered" backward under the in-memory copy.
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update(Key(0), "dirty-in-pool").ok());
  ASSERT_TRUE(t.Commit().ok());
  auto leaf = db->LeafPageOf(Key(0));
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(db->pool()->IsDirty(*leaf));

  auto rec = db->RecoverPages({*leaf});
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->path, RecoveryPath::kNone);
  EXPECT_EQ(rec->skipped_dirty, 1u);
  auto v = db->Get(Key(0));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "dirty-in-pool");
}

// --- allocation-aware full restore ------------------------------------------

/// Device images of every allocated data page (PRI pages excluded: full
/// restore rebuilds the index in memory, not its on-device windows).
std::map<PageId, std::string> AllocatedImages(Database* db) {
  PriLayout layout = PriLayout::Compute(db->options().num_pages);
  std::map<PageId, std::string> images;
  for (PageId p : db->allocator()->AllocatedPages()) {
    if (layout.IsPriPage(p)) continue;
    std::string img(db->options().page_size, '\0');
    db->data_device()->RawRead(p, img.data());
    images.emplace(p, std::move(img));
  }
  return images;
}

/// Fails the whole device, runs a full restore, and checks the restore
/// moved exactly the restore set: backup reads = the backup's own pages
/// (Instant profile, so nothing is bridged), writes = the restore set,
/// and every allocated page comes back byte-identical.
void ExpectAllocatedOnlyFullRestore(Database* db) {
  ASSERT_TRUE(db->FlushAll().ok());
  const std::map<PageId, std::string> before = AllocatedImages(db);
  auto backup = db->backups()->latest_full_backup();
  ASSERT_TRUE(backup.has_value());
  const uint64_t restore_set = bench::RestoreSetSize(db);
  ASSERT_LT(restore_set, db->options().num_pages / 2)
      << "the device needs a never-allocated tail";

  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  const DeviceStats backup0 = db->backup_device()->stats();
  const DeviceStats data0 = db->data_device()->stats();
  auto stats = db->RecoverMedia();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const DeviceStats backup1 = db->backup_device()->stats();
  const DeviceStats data1 = db->data_device()->stats();

  EXPECT_EQ(stats->pages_restored, restore_set);
  EXPECT_EQ(backup1.page_reads - backup0.page_reads, backup->pages.size());
  // Checkpoint writes after the sweep touch only PRI pages.
  EXPECT_GE(data1.page_writes - data0.page_writes, restore_set);
  EXPECT_EQ(AllocatedImages(db), before);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(AllocatedRestoreTest, FullRestoreReadsOnlyTheBackupSet) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  auto backup = db->backups()->latest_full_backup();
  ASSERT_TRUE(backup.has_value());
  EXPECT_EQ(backup->pages, db->allocator()->AllocatedPages());
  ExpectAllocatedOnlyFullRestore(db.get());
}

TEST(AllocatedRestoreTest, PagesBornAfterBackupRebuildFromFormatRecords) {
  auto db = bench::MakeLoadedDb(FastOptions(), 1500);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  // Splits allocate pages the backup never copied; updates give the old
  // pages log tails as well.
  for (int base = 1500; base < 4500; base += 500) {
    Txn t = db->BeginTxn();
    for (int i = base; i < base + 500; ++i) {
      ASSERT_TRUE(t.Insert(Key(i), "post-backup").ok());
    }
    ASSERT_TRUE(t.Commit().ok());
  }
  bench::UpdateKeyNTimes(db.get(), 7, 3);
  auto backup = db->backups()->latest_full_backup();
  ASSERT_TRUE(backup.has_value());
  uint64_t born_after = 0;
  for (PageId p : db->allocator()->AllocatedPages()) {
    if (!backup->Contains(p)) born_after++;
  }
  ASSERT_GE(born_after, 4u);
  ExpectAllocatedOnlyFullRestore(db.get());
  for (int i = 0; i < 4500; i += 499) {
    auto v = db->Get(Key(i));
    ASSERT_TRUE(v.ok()) << v.status().ToString();
  }
}

TEST(AllocatedRestoreTest, UnformattedPageOutsideBackupIsCorruption) {
  auto db = bench::MakeLoadedDb(FastOptions(), 1500);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  auto leaf = db->LeafPageOf(Key(10));
  ASSERT_TRUE(leaf.ok());
  // A backup that missed an allocated page: its replay starts with an
  // update, not a format record, and its slot must not be trusted.
  db->log()->ForceAll();
  std::vector<PageId> pages = db->allocator()->AllocatedPages();
  pages.erase(std::find(pages.begin(), pages.end(), *leaf));
  ASSERT_TRUE(
      db->backups()->TakeFullBackup(db->log()->durable_lsn(), pages).ok());
  bench::UpdateKeyNTimes(db.get(), 10, 1);
  db->log()->ForceAll();

  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  auto stats = db->RecoverMedia();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
  EXPECT_NE(stats.status().ToString().find("not in the full backup"),
            std::string::npos)
      << stats.status().ToString();
}

TEST(AllocatedRestoreTest, AllocationWithoutFormatRecordIsLeftUnwritten) {
  auto db = bench::MakeLoadedDb(FastOptions(), 1500);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  // An allocation whose format record never reached the log (a split
  // parked between Allocate and its log append): nothing to restore.
  auto pid = db->allocator()->Allocate();
  ASSERT_TRUE(pid.ok());
  std::string marker(db->options().page_size, 'M');
  db->data_device()->RawWrite(*pid, marker.data());

  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  auto stats = db->RecoverMedia();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->pages_restored, bench::RestoreSetSize(db.get()) - 1);
  std::string img(db->options().page_size, '\0');
  db->data_device()->RawRead(*pid, img.data());
  EXPECT_EQ(img, marker);
  auto v = db->Get(Key(700));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
}

TEST(AllocatedRestoreTest, PartialRestoreFailsOnlyTheUnreadableBackupPage) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_GE(victims.size(), 4u);
  const std::vector<std::string> before = SnapshotPages(db.get(), victims);
  auto backup = db->backups()->latest_full_backup();
  ASSERT_TRUE(backup.has_value());

  const PageId bad = victims[1];
  db->backup_device()->InjectReadError(bad);
  for (PageId v : victims) db->data_device()->FailPageRange(v, 1);
  PartialRestoreBreakdown bd;
  auto result = db->recovery_scheduler()->RepairBatchFromBackup(
      victims, backup->id, &bd);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failed, 1u);
  EXPECT_EQ(result->repaired, victims.size() - 1);
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_EQ(result->failures[0].page_id, bad);
  EXPECT_EQ(bd.backup_pages_loaded, victims.size() - 1);

  const std::vector<std::string> after = SnapshotPages(db.get(), victims);
  for (size_t i = 0; i < victims.size(); ++i) {
    if (victims[i] == bad) continue;
    EXPECT_EQ(after[i], before[i]) << "page " << victims[i];
  }
}

TEST(AllocatedRestoreTest, BatchRepairReadsBackupThroughSortedReader) {
  DatabaseOptions options = FastOptions();
  options.backup_profile = DeviceProfile::Hdd100();
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  ASSERT_GE(victims.size(), 4u);
  const std::vector<std::string> before = SnapshotPages(db.get(), victims);
  for (PageId v : victims) {
    auto entry = db->pri()->Lookup(v);
    ASSERT_TRUE(entry.ok());
    ASSERT_EQ(entry->backup.kind, BackupKind::kFullBackup);
  }
  // Victims are a few pages apart: one positioning, the gaps read through.
  ASSERT_LT(victims.back() - victims.front(), 100u);

  // A corrupt backup image still fails its page's Verify — only that page.
  const PageId bad = victims[2];
  db->backup_device()->InjectSilentCorruption(bad);
  for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);
  const DeviceStats b0 = db->backup_device()->stats();
  auto result = db->recovery_scheduler()->RepairBatchNoEscalation(victims);
  const DeviceStats b1 = db->backup_device()->stats();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->repaired, victims.size() - 1);
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_EQ(result->failures[0].page_id, bad);
  EXPECT_EQ(b1.random_accesses - b0.random_accesses, 1u);
  EXPECT_EQ(b1.page_reads - b0.page_reads,
            victims.back() - victims.front() + 1);

  const std::vector<std::string> after = SnapshotPages(db.get(), victims);
  for (size_t i = 0; i < victims.size(); ++i) {
    if (victims[i] == bad) continue;
    EXPECT_EQ(after[i], before[i]) << "page " << victims[i];
  }
}

TEST(BackupRangeReadTest, SequentialRunsMatchPointReads) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  auto backup = db->backups()->latest_full_backup();
  ASSERT_TRUE(backup.has_value());

  // Three runs of pages the backup copied; a never-allocated page is not
  // in it and reads NotFound.
  std::vector<PageId> pages{10, 11, 12, 16, 20, 21};
  for (PageId p : pages) ASSERT_TRUE(backup->Contains(p)) << "page " << p;
  ASSERT_FALSE(db->allocator()->IsAllocated(100));
  EXPECT_FALSE(backup->Contains(100));
  const uint32_t page_size = db->options().page_size;
  std::vector<std::string> range_images(pages.size(),
                                        std::string(page_size, '\0'));
  std::vector<char*> frames;
  for (auto& img : range_images) frames.push_back(img.data());

  auto runs = db->backups()->ReadPagesFromFullBackup(backup->id, pages,
                                                     frames.data());
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  EXPECT_EQ(*runs, 3u);  // {10,11,12}, {16}, {20,21}

  for (size_t i = 0; i < pages.size(); ++i) {
    std::string point(page_size, '\0');
    ASSERT_TRUE(db->backups()
                    ->ReadFromFullBackup(backup->id, pages[i], point.data())
                    .ok());
    EXPECT_EQ(range_images[i], point) << "page " << pages[i];
  }
  std::string never(page_size, '\0');
  EXPECT_TRUE(db->backups()
                  ->ReadFromFullBackup(backup->id, 100, never.data())
                  .IsNotFound());

  // Descending / duplicate ids are rejected rather than silently reread.
  std::string scratch(page_size, '\0');
  char* one_frame[] = {scratch.data(), scratch.data()};
  std::vector<PageId> unsorted{12, 10};
  EXPECT_FALSE(db->backups()
                   ->ReadPagesFromFullBackup(backup->id, unsorted, one_frame)
                   .ok());
}

TEST(ScrubberAccountingTest, TickNeverExceedsOnePass) {
  auto db = bench::MakeLoadedDb(FastOptions(), 6000);
  ASSERT_TRUE(db->FlushAll().ok());

  // The page space's last id belongs to PRI partition B, so the
  // wrap-around page is SKIPPED by the scan — exactly the case where the
  // old wrap check (placed after the skip `continue`s) let a tick run on
  // into a second pass.
  PriLayout layout = PriLayout::Compute(db->options().num_pages);
  ASSERT_TRUE(layout.IsPriPage(db->options().num_pages - 1));

  // Measure one full pass with a throwaway scrubber.
  ScrubberOptions probe_opts;
  probe_opts.pages_per_tick = db->options().num_pages;
  Scrubber probe(db->recovery_scheduler(), db->allocator(), db->pool(),
                 db->data_device(), nullptr, db->bad_blocks(), layout,
                 db->clock(), probe_opts);
  auto sweep = probe.SweepAll();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  const uint64_t scannable = sweep->pages_scanned;
  ASSERT_GT(scannable, 16u);

  // Budget > remaining-to-wrap: tick 1 parks the cursor mid-space, tick 2
  // crosses the wrap and must STOP there instead of filling its budget
  // from the next pass.
  ScrubberOptions opts;
  opts.pages_per_tick = scannable / 2 + scannable / 8;
  Scrubber scrubber(db->recovery_scheduler(), db->allocator(), db->pool(),
                    db->data_device(), nullptr, db->bad_blocks(), layout,
                    db->clock(), opts);
  auto tick1 = scrubber.Tick();
  ASSERT_TRUE(tick1.ok());
  EXPECT_EQ(tick1->pages_scanned, opts.pages_per_tick);
  EXPECT_EQ(scrubber.totals().sweeps_completed, 0u);

  auto tick2 = scrubber.Tick();
  ASSERT_TRUE(tick2.ok());
  EXPECT_EQ(tick2->pages_scanned, scannable - opts.pages_per_tick);
  EXPECT_EQ(scrubber.totals().sweeps_completed, 1u);
  EXPECT_EQ(scrubber.totals().pages_scanned, scannable);

  // Tick 3 starts a fresh pass from page 0.
  auto tick3 = scrubber.Tick();
  ASSERT_TRUE(tick3.ok());
  EXPECT_EQ(tick3->pages_scanned, opts.pages_per_tick);
  EXPECT_EQ(scrubber.totals().sweeps_completed, 1u);
}

TEST(ScrubberAccountingTest, PartialProgressSurvivesMidSpanMediaFailure) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);

  // A healthy tick first, then the whole device dies mid-sweep: the pages
  // scanned before the failure and the tick itself must still be counted.
  auto tick = db->scrubber()->Tick();
  ASSERT_TRUE(tick.ok());
  ScrubberTotals before = db->scrubber()->totals();
  ASSERT_GT(before.pages_scanned, 0u);

  db->data_device()->FailDevice();
  auto failed = db->scrubber()->Tick();
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsMediaFailure());

  ScrubberTotals after = db->scrubber()->totals();
  EXPECT_EQ(after.ticks, before.ticks + 1);
  // The aborted tick scanned at least one page before the read failed.
  EXPECT_GT(after.pages_scanned, before.pages_scanned);
}

TEST(ScrubberAccountingTest, WriteBackRaceIsSkippedNotRepairedBackward) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  PageId victim = victims.front();

  // Freeze the device image at its current (older) state, apply one more
  // update, and flush — then revert the device while the pool still holds
  // the newer clean frame. The device now shows exactly what a scrub scan
  // sees when a write-back lands between its dirty-check and device read:
  // an internally consistent image older than the PRI-certified LSN.
  std::string key;
  for (int i = 0; i < kRecords; i += 150) {
    auto leaf = db->LeafPageOf(Key(i));
    ASSERT_TRUE(leaf.ok());
    if (*leaf == victim) {
      key = Key(i);
      break;
    }
  }
  ASSERT_FALSE(key.empty());
  db->data_device()->CapturePageVersion(victim);
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update(key, "newer").ok());
  ASSERT_TRUE(t.Commit().ok());
  ASSERT_TRUE(db->pool()->FlushPage(victim).ok());
  ASSERT_TRUE(db->pool()->IsCached(victim));
  ASSERT_FALSE(db->pool()->IsDirty(victim));
  ASSERT_TRUE(db->data_device()->InjectStaleVersion(victim));

  auto scrub = db->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_EQ(scrub->failures_detected, 0u);
  EXPECT_GE(scrub->transient_skips, 1u);

  // Once the pooled copy is gone there is nothing shadowing the stale
  // image: now it IS a failure and the scrubber repairs it forward.
  ASSERT_TRUE(db->pool()->DiscardPage(victim));
  scrub = db->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_EQ(scrub->failures_detected, 1u);
  EXPECT_EQ(scrub->pages_repaired, 1u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

}  // namespace
}  // namespace spf
