// Tests for the sorted log archive (log/log_archive.h): crash-mid-run
// durability (the archive is always a prefix-valid set of runs and
// re-archiving is idempotent), the merge ladder's run-count bound and
// log-tiling invariant, repair equivalence (an archive-merge repair is
// byte-identical to the tail-only chain-walk repair), the
// archive-truncation watermark handed to the LogManager, and the
// chain-following reader (FetchChains): it returns exactly the records a
// brute-force filter of the full archive stream gives, costs one
// positioned read per run that holds a chain, isolates a corrupt chain to
// its own page, and runs safely alongside merges.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>

#include "common/random.h"
#include "db/database.h"
#include "log/log_archive.h"

namespace spf {
namespace {

std::string Key(int i) {
  char buf[20];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

DatabaseOptions FastOptions() {
  DatabaseOptions o;
  o.num_pages = 2048;
  o.buffer_frames = 256;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  // Small runs + small fan-in so a unit-test-sized workload exercises
  // multiple level-0 cuts and the merge ladder.
  o.archive_run_bytes = 4 * 1024;
  o.archive_merge_fanin = 3;
  return o;
}

void Load(Database* db, int lo, int hi, const char* tag = "v") {
  for (int i = lo; i < hi; ++i) {
    Txn t = db->BeginTxn();
    ASSERT_TRUE(t.Put(Key(i), std::string(200, 'a') + tag).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
}

// Every run list published by the archiver tiles the archived log
// interval [first_lsn, archived_upto) contiguously — even across merges.
void ExpectTiling(const std::vector<ArchiveRunInfo>& runs, Lsn first_lsn,
                  Lsn archived_upto) {
  ASSERT_FALSE(runs.empty());
  EXPECT_EQ(runs.front().log_start, first_lsn);
  for (size_t i = 0; i + 1 < runs.size(); ++i) {
    EXPECT_EQ(runs[i].log_end, runs[i + 1].log_start) << "gap after run " << i;
  }
  EXPECT_EQ(runs.back().log_end, archived_upto);
}

TEST(LogArchiveTest, CrashMidRunWriteLeavesPrefixValidArchive) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Load(db.get(), 0, 150);

  LogArchiver* ar = db->archiver();
  // Archive part of the history.
  ASSERT_TRUE(ar->ArchiveTick().ok());
  ASSERT_TRUE(ar->ArchiveTick().ok());
  const Lsn published = ar->archived_upto();
  const size_t runs_published = ar->runs().size();
  ASSERT_GT(published, 0u);
  ASSERT_GT(runs_published, 0u);

  // Crash mid-run-write: the data and header pages of the next run reach
  // the device but the directory publish never happens.
  Load(db.get(), 150, 250);
  ar->FailNextPublishForTest();
  auto crashed = ar->ArchiveTick();
  EXPECT_FALSE(crashed.ok());
  EXPECT_TRUE(crashed.status().IsIOError()) << crashed.status().ToString();
  EXPECT_EQ(ar->archived_upto(), published);
  EXPECT_EQ(ar->runs().size(), runs_published);

  // Recovery from the volume alone: the previous directory is intact, so
  // the orphaned extent is invisible and the archive is exactly the
  // published prefix.
  ArchiverOptions opts;
  opts.run_bytes = FastOptions().archive_run_bytes;
  opts.merge_fanin = FastOptions().archive_merge_fanin;
  LogArchiver recovered(db->archive_device(), db->log(), opts);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.archived_upto(), published);
  EXPECT_EQ(recovered.runs().size(), runs_published);

  // Idempotent re-archive: the next drain restarts from the published
  // watermark, re-covers the interval the crashed run spanned, and the
  // final run list tiles the whole durable log.
  ASSERT_TRUE(recovered.ArchiveAll().ok());
  EXPECT_EQ(recovered.archived_upto(), db->log()->durable_lsn());
  ExpectTiling(recovered.runs(), db->log()->first_lsn(),
               recovered.archived_upto());
}

TEST(LogArchiveTest, ArchiveRepairByteIdenticalToTailOnlyRepair) {
  DatabaseOptions o = FastOptions();
  // No per-page copies: the chain anchors at the full backup, giving a
  // long archived history to replay.
  o.backup_policy.updates_threshold = 0;
  auto db = std::move(Database::Create(o)).value();

  Load(db.get(), 0, 100);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  for (int round = 0; round < 20; ++round) {
    Txn t = db->BeginTxn();
    ASSERT_TRUE(t.Put(Key(7), "round" + std::to_string(round)).ok());
    ASSERT_TRUE(t.Commit().ok());
    if (round % 5 == 4) {
      ASSERT_TRUE(db->FlushAll().ok());
    }
  }
  ASSERT_TRUE(db->FlushAll().ok());

  auto leaf = db->LeafPageOf(Key(7));
  ASSERT_TRUE(leaf.ok());
  const PageId p = *leaf;
  const uint32_t page_size = db->options().page_size;
  std::vector<char> ref(page_size);
  db->data_device()->RawRead(p, ref.data());

  SinglePageRecovery* spr = db->single_page_recovery();

  // Baseline: tail-only chain walk (one random log read per record).
  spr->SetArchive(nullptr);
  ASSERT_TRUE(db->pool()->DiscardPage(p));
  db->data_device()->InjectSilentCorruption(p);
  std::vector<char> tail_repaired(page_size);
  ASSERT_TRUE(spr->RepairPage(p, tail_repaired.data()).ok());
  EXPECT_EQ(std::memcmp(tail_repaired.data(), ref.data(), page_size), 0);

  // Archive everything, then repair the same page through the sorted
  // runs: positioned sequential archive reads replace the chain walk and
  // the result must be byte-identical.
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  ASSERT_GT(db->archiver()->archived_upto(), 0u);
  spr->SetArchive(db->archiver());
  const uint64_t archive_reads_before = spr->stats().archive_reads;

  ASSERT_TRUE(db->pool()->DiscardPage(p));
  db->data_device()->InjectSilentCorruption(p);
  std::vector<char> archive_repaired(page_size);
  ASSERT_TRUE(spr->RepairPage(p, archive_repaired.data()).ok());

  EXPECT_GT(spr->stats().archive_reads, archive_reads_before)
      << "repair did not touch the archive";
  EXPECT_EQ(std::memcmp(archive_repaired.data(), ref.data(), page_size), 0);
  EXPECT_EQ(std::memcmp(archive_repaired.data(), tail_repaired.data(),
                        page_size),
            0);
}

TEST(LogArchiveTest, MergeLadderBoundsRunCountAndKeepsTiling) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Load(db.get(), 0, 400);
  LogArchiver* ar = db->archiver();
  ASSERT_TRUE(ar->ArchiveAll().ok());

  ArchiveStats stats = ar->stats();
  EXPECT_GT(stats.runs_written, FastOptions().archive_merge_fanin)
      << "workload too small to exercise the ladder";
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GE(stats.runs_merged, 2 * stats.merges);

  // Post-quiescence no level holds a full fan-in of runs, so the run
  // count stays logarithmic in the number of level-0 cuts.
  std::map<uint32_t, size_t> per_level;
  for (const ArchiveRunInfo& r : ar->runs()) per_level[r.level]++;
  for (const auto& [level, count] : per_level) {
    EXPECT_LT(count, FastOptions().archive_merge_fanin) << "level " << level;
  }
  ExpectTiling(ar->runs(), db->log()->first_lsn(), ar->archived_upto());

  // Every archived record streams out per-page ascending, and the totals
  // match the run headers.
  uint64_t streamed = 0;
  std::map<PageId, Lsn> last_seen;
  auto fetched = ar->FetchRange(0, kInvalidPageId - 1, 0,
                                [&](LogRecord&& rec) {
                                  auto it = last_seen.find(rec.page_id);
                                  if (it != last_seen.end()) {
                                    EXPECT_GT(rec.lsn, it->second);
                                  }
                                  last_seen[rec.page_id] = rec.lsn;
                                  streamed++;
                                });
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(streamed, stats.records_archived);
}

TEST(LogArchiveTest, TruncationWatermarkNeedsArchiveAndCheckpoint) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Load(db.get(), 0, 100);

  // Archived but the master record still points at the bootstrap
  // checkpoint: the watermark is capped by the checkpoint.
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  const Lsn w1 = db->log()->truncation_watermark();
  EXPECT_EQ(w1, std::min(db->archiver()->archived_upto(),
                         db->log()->GetMasterRecord()));

  // Checkpoint, more traffic, re-archive: the watermark advances but
  // never beyond either bound.
  ASSERT_TRUE(db->Checkpoint().ok());
  Load(db.get(), 100, 150);
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  const Lsn w2 = db->log()->truncation_watermark();
  EXPECT_GT(w2, w1);
  EXPECT_LE(w2, db->archiver()->archived_upto());
  EXPECT_LE(w2, db->log()->GetMasterRecord());

  // Counters surface through the versioned snapshot.
  StatsSnapshot snap = db->Stats();
  EXPECT_EQ(snap.version, StatsSnapshot::kVersion);
  EXPECT_GT(snap.archive.runs_written, 0u);
  EXPECT_GT(snap.archive.archived_bytes, 0u);
  EXPECT_GT(snap.archive.truncated_log_bytes, 0u);
  EXPECT_EQ(snap.archive.archived_upto, db->archiver()->archived_upto());
}

// --- FetchChains ------------------------------------------------------------

/// The PageLSN of every data-device page after a flush: real images whose
/// LSNs serve as chain floors.
std::vector<Lsn> ImageLsns(Database* db) {
  EXPECT_TRUE(db->FlushAll().ok());
  const uint32_t page_size = db->options().page_size;
  std::vector<char> buf(page_size);
  std::vector<Lsn> lsns(db->options().num_pages);
  for (PageId p = 0; p < lsns.size(); ++p) {
    db->data_device()->RawRead(p, buf.data());
    lsns[p] = PageView(buf.data(), page_size).page_lsn();
  }
  return lsns;
}

/// Every archived record, grouped by page, ascending by LSN.
std::map<PageId, std::vector<LogRecord>> WholeArchive(LogArchiver* ar) {
  std::map<PageId, std::vector<LogRecord>> all;
  auto streamed = ar->FetchRange(0, kInvalidPageId - 1, 0, [&](LogRecord&& r) {
    all[r.page_id].push_back(std::move(r));
  });
  EXPECT_TRUE(streamed.ok()) << streamed.status().ToString();
  return all;
}

uint32_t MaxLevel(LogArchiver* ar) {
  uint32_t level = 0;
  for (const ArchiveRunInfo& r : ar->runs()) level = std::max(level, r.level);
  return level;
}

void UpdateKey(Database* db, int i, const std::string& value) {
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Put(Key(i), value).ok());
  ASSERT_TRUE(t.Commit().ok());
}

TEST(LogArchiveTest, FetchChainsMatchesBruteForceFilter) {
  auto db = std::move(Database::Create(FastOptions())).value();
  LogArchiver* ar = db->archiver();
  Random rng(15);
  std::vector<std::vector<Lsn>> images{ImageLsns(db.get())};
  Load(db.get(), 0, 300);
  images.push_back(ImageLsns(db.get()));
  for (int round = 0; round < 4; ++round) {
    for (int u = 0; u < 150; ++u) {
      UpdateKey(db.get(), static_cast<int>(rng.Uniform(300)),
                "r" + std::to_string(round) + "u" + std::to_string(u));
    }
    images.push_back(ImageLsns(db.get()));
    ASSERT_TRUE(ar->ArchiveAll().ok());
  }
  ASSERT_GE(MaxLevel(ar), 2u) << "archive too shallow to exercise old runs";

  const std::map<PageId, std::vector<LogRecord>> all = WholeArchive(ar);
  // Pages whose current image was produced by an archived record: their
  // newest chain record is that image's PageLSN.
  const std::vector<Lsn>& newest = images.back();
  std::vector<PageId> pages;
  for (const auto& [page, recs] : all) {
    if (!recs.empty() && recs.back().lsn == newest[page]) pages.push_back(page);
  }
  ASSERT_GE(pages.size(), 8u);

  for (int trial = 0; trial < 25; ++trial) {
    std::vector<ChainRequest> requests;
    for (PageId page : pages) {
      if (rng.Uniform(3) != 0) continue;
      const Lsn floor = images[rng.Uniform(images.size())][page];
      requests.push_back({page, floor, newest[page]});
    }
    std::vector<ChainFetch> got;
    auto pages_read = ar->FetchChains(requests, &got);
    ASSERT_TRUE(pages_read.ok()) << pages_read.status().ToString();
    ASSERT_EQ(got.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const ChainRequest& q = requests[i];
      ASSERT_TRUE(got[i].status.ok())
          << "page " << q.page_id << ": " << got[i].status.ToString();
      std::vector<const LogRecord*> expected;  // newest first
      const std::vector<LogRecord>& recs = all.at(q.page_id);
      for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
        if (it->lsn > q.floor && it->lsn <= q.newest) expected.push_back(&*it);
      }
      ASSERT_EQ(got[i].newest_first.size(), expected.size())
          << "page " << q.page_id << " floor " << q.floor;
      for (size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(got[i].newest_first[k].lsn, expected[k]->lsn);
        EXPECT_EQ(got[i].newest_first[k].Serialize(), expected[k]->Serialize());
      }
    }
  }
}

TEST(LogArchiveTest, FetchChainsReadsOnlyTheRunHoldingTheChain) {
  DatabaseOptions o = FastOptions();
  o.log_profile = DeviceProfile::Ssd();  // the archive volume's profile
  o.archive_merge_fanin = 16;  // no merges: every churn run stays a run
  auto db = std::move(Database::Create(o)).value();
  LogArchiver* ar = db->archiver();
  Load(db.get(), 0, 300);
  const PageId leaf = *db->LeafPageOf(Key(0));
  std::vector<int> others;  // keys on every leaf but `leaf`
  for (int i = 0; i < 300; ++i) {
    if (*db->LeafPageOf(Key(i)) != leaf) others.push_back(i);
  }
  ASSERT_TRUE(ar->ArchiveAll().ok());
  Lsn floor = ImageLsns(db.get())[leaf];
  Random rng(3);

  // Each step: churn every other leaf into more (older) runs, then one
  // update of `leaf`, whose chain above `floor` is that single record in
  // the newest run.
  std::vector<size_t> runs_spanned;
  for (int step = 0; step < 2; ++step) {
    for (int u = 0; u < (step == 0 ? 40 : 100); ++u) {
      UpdateKey(db.get(), others[rng.Uniform(others.size())], "churn");
    }
    ASSERT_TRUE(ar->ArchiveAll().ok());
    UpdateKey(db.get(), 0, "step" + std::to_string(step));
    const Lsn newest = ImageLsns(db.get())[leaf];
    ASSERT_TRUE(ar->ArchiveAll().ok());

    size_t spanned = 0;  // runs whose log interval overlaps (floor, newest]
    for (const ArchiveRunInfo& r : ar->runs()) {
      if (r.log_end > floor + 1 && r.log_start <= newest) spanned++;
    }
    runs_spanned.push_back(spanned);

    const DeviceStats before = db->archive_device()->stats();
    std::vector<ChainFetch> got;
    auto pages_read = ar->FetchChains({{leaf, floor, newest}}, &got);
    const DeviceStats after = db->archive_device()->stats();
    ASSERT_TRUE(pages_read.ok());
    ASSERT_TRUE(got[0].status.ok()) << got[0].status.ToString();
    ASSERT_EQ(got[0].newest_first.size(), 1u);
    EXPECT_EQ(got[0].newest_first[0].lsn, newest);
    EXPECT_EQ(after.random_accesses - before.random_accesses, 1u)
        << "step " << step;
    EXPECT_EQ(after.page_reads - before.page_reads, 1u) << "step " << step;
    EXPECT_EQ(*pages_read, 1u);
    floor = newest;
  }
  // The second step's chain sat above more runs, at the same cost.
  EXPECT_GE(runs_spanned[0], 3u);
  EXPECT_GT(runs_spanned[1], runs_spanned[0]);
}

/// A log built record by record, so chain pointers (including broken
/// ones) are exactly what a test says; each Archive() cuts what was
/// appended since the previous one into its own run.
class CraftedArchive {
 public:
  CraftedArchive()
      : wal_("wal", DeviceProfile::Instant(), &clock_),
        log_(&wal_),
        volume_("archive", 4096, 64, DeviceProfile::Instant(), &clock_),
        archiver_(&volume_, &log_, ArchiverOptions()) {
    EXPECT_TRUE(archiver_.Recover().ok());
  }

  Lsn Append(PageId page, Lsn page_prev) {
    LogRecord rec;
    rec.type = LogRecordType::kBTreeUpdate;
    rec.txn_id = 1;
    rec.page_id = page;
    rec.page_prev_lsn = page_prev;
    rec.body = "p" + std::to_string(page);
    const Lsn lsn = log_.Append(&rec);
    log_.ForceAll();
    return lsn;
  }

  void Archive() { ASSERT_TRUE(archiver_.ArchiveAll().ok()); }
  LogArchiver* archiver() { return &archiver_; }

 private:
  SimClock clock_;
  SimLogDevice wal_;
  LogManager log_;
  SimDevice volume_;
  LogArchiver archiver_;
};

std::vector<Lsn> Lsns(const ChainFetch& f) {
  std::vector<Lsn> out;
  for (const LogRecord& r : f.newest_first) out.push_back(r.lsn);
  return out;
}

TEST(LogArchiveTest, FetchChainsIsolatesCorruptChainsToTheirPage) {
  CraftedArchive c;
  const Lsn a1 = c.Append(5, 0);
  const Lsn b1 = c.Append(6, 0);
  const Lsn x1 = c.Append(7, 0);
  c.Archive();  // run 1
  const Lsn a2 = c.Append(5, a1);
  c.Append(6, b1);
  const Lsn x2 = c.Append(7, x1);
  const Lsn c1 = c.Append(8, 0);
  c.Archive();  // run 2
  const Lsn a3 = c.Append(5, a2);
  const Lsn b3 = c.Append(6, x2);  // points at page 7's record (older run)
  const Lsn d1 = c.Append(10, 0);
  const Lsn e1 = c.Append(11, d1);  // points at page 10's record (same run)
  c.Archive();  // run 3
  LogArchiver* ar = c.archiver();
  ASSERT_EQ(ar->runs().size(), 3u);

  std::vector<ChainFetch> got;
  ASSERT_TRUE(ar->FetchChains({{5, 0, a3},
                               {6, 0, b3},
                               {11, 0, e1},
                               {8, 0, c1 + 1},
                               {10, d1, d1}},
                              &got)
                  .ok());
  EXPECT_TRUE(got[0].status.ok()) << got[0].status.ToString();
  EXPECT_EQ(Lsns(got[0]), (std::vector<Lsn>{a3, a2, a1}));
  EXPECT_TRUE(got[1].status.IsCorruption()) << "foreign record, older run";
  EXPECT_TRUE(got[1].newest_first.empty());
  EXPECT_TRUE(got[2].status.IsCorruption()) << "foreign record, same run";
  EXPECT_TRUE(got[3].status.IsCorruption()) << "newest record missing";
  EXPECT_TRUE(got[4].status.ok()) << "nothing above the floor to fetch";
  EXPECT_TRUE(got[4].newest_first.empty());

  // A floor the chain skips over (it links a2 -> a1, never to a1 + 1),
  // next to a healthy chain that starts above its floor.
  ASSERT_TRUE(
      ar->FetchChains({{5, a1 + 1, a3}, {8, 0, c1}, {7, x1, x2}}, &got).ok());
  EXPECT_TRUE(got[0].status.IsCorruption()) << "chain skips its floor";
  EXPECT_TRUE(got[1].status.ok());
  EXPECT_EQ(Lsns(got[1]), (std::vector<Lsn>{c1}));
  EXPECT_TRUE(got[2].status.ok());
  EXPECT_EQ(Lsns(got[2]), (std::vector<Lsn>{x2}));

  // A newest LSN past the archive, and a repeated page.
  ASSERT_TRUE(ar->FetchChains({{5, 0, ar->archived_upto() + 100}}, &got).ok());
  EXPECT_TRUE(got[0].status.IsCorruption());
  EXPECT_TRUE(ar->FetchChains({{5, 0, a3}, {5, a1, a3}}, &got)
                  .status()
                  .IsInvalidArgument());
}

TEST(LogArchiveTest, FetchChainsRunsConcurrentlyWithMerges) {
  auto db = std::move(Database::Create(FastOptions())).value();
  LogArchiver* ar = db->archiver();
  Load(db.get(), 0, 200);
  const std::vector<Lsn> floors = ImageLsns(db.get());
  for (int i = 0; i < 200; i += 3) UpdateKey(db.get(), i, "x");
  const std::vector<Lsn> newest = ImageLsns(db.get());
  ASSERT_TRUE(ar->ArchiveAll().ok());

  // Requests whose answers can no longer change: merges move records
  // between runs but never add or drop one in (floor, newest].
  std::vector<ChainRequest> requests;
  const std::map<PageId, std::vector<LogRecord>> all = WholeArchive(ar);
  for (const auto& [page, recs] : all) {
    if (recs.back().lsn == newest[page] && newest[page] > floors[page]) {
      requests.push_back({page, floors[page], newest[page]});
    }
  }
  ASSERT_GE(requests.size(), 4u);
  std::vector<ChainFetch> expected;
  ASSERT_TRUE(ar->FetchChains(requests, &expected).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        std::vector<ChainFetch> got;
        auto pages = ar->FetchChains(requests, &got);
        if (!pages.ok()) {
          mismatches++;
          continue;
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (!got[i].status.ok() || Lsns(got[i]) != Lsns(expected[i])) {
            mismatches++;
          }
        }
      }
    });
  }
  // More traffic through the merge ladder while the readers run.
  const uint64_t merges_before = ar->stats().merges;
  for (int i = 200; i < 500; ++i) {
    UpdateKey(db.get(), i, "y");
    if (i % 10 == 0) {
      ASSERT_TRUE(ar->ArchiveTick().ok());
    }
  }
  ASSERT_TRUE(ar->ArchiveAll().ok());
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(ar->stats().merges, merges_before);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace spf
