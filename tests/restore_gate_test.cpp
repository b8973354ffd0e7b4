// Tests for the rung-5 restore-gate protocol: a full media restore under
// live traffic — transactions in flight at failure time run to commit
// (no aborts), new transactions park at the admission gate and resume
// while the restore sweep is still running (early admission, on-demand
// segments), stragglers past the drain deadline take the fallback-abort
// branch with handles that stay valid, and restored pages come back
// byte-identical.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/sim_clock.h"
#include "db/database.h"
#include "recovery/restore_gate.h"

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

/// First stride key whose leaf is `target`; empty if none.
std::string KeyOnLeaf(Database* db, PageId target) {
  for (int i = 0; i < kRecords; i += 150) {
    auto leaf = db->LeafPageOf(Key(i));
    if (leaf.ok() && *leaf == target) return Key(i);
  }
  return std::string();
}

template <typename Pred>
bool WaitFor(Pred pred, int sec = 30) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(sec);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The headline scenario: a transaction in flight when the device dies
// commits during the drain, a transaction begun mid-restore is admitted
// early and commits before the sweep finishes, a transaction after the
// restore behaves normally — and nothing was aborted.
TEST(RestoreGateTest, LiveTrafficCommitsThroughFullRestore) {
  DatabaseOptions options = FastOptions();
  // Tiny segments so the B-tree (pages ~6..25) spans several of them —
  // a mid-restore fault then genuinely waits for an unrestored segment.
  options.restore_segment_pages = 4;
  options.restore_drain_timeout = std::chrono::milliseconds(10000);
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  ASSERT_NE(db->restore_gate(), nullptr);
  ASSERT_GE(victims.size(), 2u);

  // key_a lives on the first victim leaf; key_b on the last (highest page
  // id — the segment the sequential sweep reaches last, so a fault on it
  // during the restore exercises on-demand service).
  std::string key_a = KeyOnLeaf(db.get(), victims.front());
  std::string key_b = KeyOnLeaf(db.get(), victims.back());
  ASSERT_FALSE(key_a.empty());
  ASSERT_FALSE(key_b.empty());

  std::vector<std::string> before = SnapshotPages(db.get(), victims);

  // Transaction A: in flight at failure time, working set cached.
  Txn a = db->BeginTxn();
  ASSERT_TRUE(a.Update(key_a, "live-a").ok());

  db->data_device()->FailDevice();

  // Widen the restore window so the during-restore transaction has wall
  // time to run: throttle the first segments; once B has had its chance
  // the rest of the sweep runs free. The observer also tracks the
  // published watermark, which must only ever move forward.
  std::atomic<bool> restore_running{false};
  std::atomic<bool> watermark_monotonic{true};
  std::atomic<PageId> last_watermark{0};
  db->restore_gate()->SetObserver([&](uint64_t done, uint64_t) {
    restore_running.store(true);
    PageId w = db->restore_gate()->watermark();
    if (w < last_watermark.load()) watermark_monotonic.store(false);
    last_watermark.store(w);
    if (done < 32) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });

  StatusOr<MediaRecoveryStats> result = Status::Internal("restore not run");
  std::atomic<bool> restore_done{false};
  std::thread restorer([&] {
    result = db->RecoverMedia();
    restore_done.store(true);
  });

  // A commits during the drain phase — the restore waits for it.
  ASSERT_TRUE(WaitFor([&] { return db->txns()->gate_closed(); }));
  EXPECT_TRUE(a.Commit().ok());

  // Transaction B: begun during the restore, admitted early; its reads
  // fault on pages the sweep has not reached and come back on demand.
  ASSERT_TRUE(WaitFor([&] { return restore_running.load(); }));
  Txn b = db->BeginTxn();
  auto vb = b.Get(key_b);
  ASSERT_TRUE(vb.ok()) << vb.status().ToString();
  EXPECT_EQ(*vb, "r3");  // MakeChainedBurstDb's last round
  ASSERT_TRUE(b.Update(key_b, "live-b").ok());
  EXPECT_TRUE(b.Commit().ok());
  bool committed_mid_restore = !restore_done.load();

  restorer.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Transaction C: after the restore, business as usual.
  Txn c = db->BeginTxn();
  ASSERT_TRUE(c.Update(key_a, "post-restore").ok());
  EXPECT_TRUE(c.Commit().ok());

  // Nothing was aborted: A drained, B was admitted early, C is ordinary.
  EXPECT_EQ(result->phases.doomed, 0u);
  EXPECT_GE(result->phases.drained, 1u);
  EXPECT_EQ(db->txns()->stats().user_aborted, 0u);
  EXPECT_EQ(db->txns()->stats().doomed, 0u);
  EXPECT_EQ(result->pages_restored, bench::RestoreSetSize(db.get()));
  EXPECT_TRUE(committed_mid_restore)
      << "B only committed after the sweep finished; widen the observer "
         "delay if this host is very slow";
  if (committed_mid_restore) {
    EXPECT_GE(result->phases.admission_waits, 1u);
    EXPECT_GE(result->on_demand_segments, 1u);
    EXPECT_GE(result->phases.first_admission_sim_s, 0.0);
  }

  // Byte identity: every page no live transaction touched matches its
  // pre-failure image (A/B/C wrote key_a's and key_b's leaves).
  std::vector<std::string> after = SnapshotPages(db.get(), victims);
  for (size_t i = 0; i < victims.size(); ++i) {
    if (victims[i] == victims.front() || victims[i] == victims.back()) continue;
    EXPECT_EQ(before[i], after[i])
        << "page " << victims[i] << " not byte-identical after the restore";
  }

  // Progress publication: the watermark only moved forward and ended at
  // the device size; every page reads as restored once the sweep is over.
  EXPECT_TRUE(watermark_monotonic.load());
  EXPECT_EQ(db->restore_gate()->watermark(), options.num_pages);
  EXPECT_TRUE(db->restore_gate()->IsRestored(victims.back()));
  // Nothing is parked in the funnel, so no frame stayed pinned.
  EXPECT_EQ(db->pool()->PinnedFrames(), 0u);

  // And the committed live traffic is durable and consistent.
  EXPECT_EQ(*db->Get(key_a), "post-restore");
  EXPECT_EQ(*db->Get(key_b), "live-b");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// A straggler past the drain deadline takes the fallback-abort branch:
// its updates are compensated, its handle stays valid but only ever
// returns Aborted, and the rest of the database is intact.
TEST(RestoreGateTest, DrainDeadlineDoomsStragglers) {
  DatabaseOptions options = FastOptions();
  options.restore_drain_timeout = std::chrono::milliseconds(50);
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);

  Txn straggler = db->BeginTxn();
  ASSERT_TRUE(straggler.Insert("in-flight", "x").ok());
  db->log()->ForceAll();  // durable, but never committed

  db->data_device()->FailDevice();
  auto stats = db->RecoverMedia();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->phases.doomed, 1u);
  EXPECT_EQ(stats->phases.drained, 0u);
  EXPECT_GE(stats->phases.drain_wall_ms, 40.0);

  // The straggler's replayed update was compensated.
  EXPECT_TRUE(db->Get("in-flight").status().IsNotFound());
  // The doomed handle is safe and classified: every operation reports
  // the forced abort as kDoomed (dead handle, database healing — begin a
  // fresh transaction), never as a retryable error.
  TxnError commit_err = straggler.Commit();
  EXPECT_EQ(commit_err.kind(), TxnError::Kind::kDoomed);
  EXPECT_FALSE(commit_err.retryable());
  EXPECT_TRUE(commit_err.status().IsAborted());
  EXPECT_EQ(straggler.Update("y", "z").kind(), TxnError::Kind::kDoomed);
  EXPECT_TRUE(straggler.Get(Key(0)).status().IsAborted());
  EXPECT_EQ(straggler.last_error().kind(), TxnError::Kind::kDoomed);
  EXPECT_FALSE(straggler.active());
  EXPECT_TRUE(straggler.doomed());
  EXPECT_EQ(db->txns()->active_count(), 0u);
  EXPECT_EQ(db->txns()->stats().doomed, 1u);

  EXPECT_EQ(*db->Get(Key(0)), "r3");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());

  // Shared-state teardown replaces the old zombie-retention scheme: the
  // engine retired the transaction during the restore, so the handle
  // holds the LAST reference; dropping it frees the object immediately
  // (ASan owns the leak check), and the next restores owe it nothing.
  straggler = Txn();
  db->data_device()->FailDevice();
  ASSERT_TRUE(db->RecoverMedia().ok());
  db->data_device()->FailDevice();
  ASSERT_TRUE(db->RecoverMedia().ok());
  EXPECT_EQ(db->txns()->active_count(), 0u);
}

// restore_early_admission=false: the admission gate stays closed for the
// whole restore — a transaction begun mid-restore parks until the sweep
// completes, and nothing ever waits on the per-page admission check.
TEST(RestoreGateTest, EarlyAdmissionOffParksUntilRestoreCompletes) {
  DatabaseOptions options = FastOptions();
  options.restore_early_admission = false;
  options.restore_segment_pages = 64;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  std::string key = KeyOnLeaf(db.get(), victims.front());
  ASSERT_FALSE(key.empty());

  std::atomic<bool> restore_running{false};
  db->restore_gate()->SetObserver([&](uint64_t, uint64_t) {
    restore_running.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });

  db->data_device()->FailDevice();
  StatusOr<MediaRecoveryStats> result = Status::Internal("restore not run");
  std::atomic<bool> restore_done{false};
  std::thread restorer([&] {
    result = db->RecoverMedia();
    restore_done.store(true);
  });

  ASSERT_TRUE(WaitFor([&] { return restore_running.load(); }));
  std::atomic<bool> b_committed{false};
  std::thread parked([&] {
    Txn b = db->BeginTxn();  // parks at the closed gate
    auto v = b.Get(key);
    if (v.ok()) (void)b.Commit();
    b_committed.store(true);
  });

  // While the sweep runs, the parked transaction cannot have begun.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(restore_done.load() || !b_committed.load());

  restorer.join();
  parked.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(b_committed.load());
  EXPECT_FALSE(result->phases.early_admission);
  EXPECT_EQ(result->phases.admission_waits, 0u);
  EXPECT_GE(db->txns()->stats().gate_parked, 1u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// A straggler whose in-flight operation is still executing when the
// restore's bounded rollback wait expires is NOT rolled back
// concurrently with that operation: the compensation defers to the
// owner's thread, which runs it as soon as the operation drains out of
// the facade. The op-in-flight state is pinned with the transaction's
// own facade bracket (Transaction::BeginOp/EndOp — exactly what
// Database's TxnOpGuard uses), which keeps busy() true across the whole
// restore deterministically.
TEST(RestoreGateTest, BusyStragglerRollbackDefersToOwnerThread) {
  DatabaseOptions options = FastOptions();
  options.restore_drain_timeout = std::chrono::milliseconds(50);
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);

  Txn straggler = db->BeginTxn();
  ASSERT_TRUE(straggler.Insert("in-flight", "x").ok());
  db->log()->ForceAll();  // durable, but never committed
  straggler.handle()->BeginOp();  // an operation outliving every deadline

  db->data_device()->FailDevice();
  auto stats = db->RecoverMedia();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->phases.doomed, 1u);
  EXPECT_EQ(stats->phases.deferred_rollbacks, 1u);
  EXPECT_EQ(db->funnel()->totals().deferred_rollbacks, 1u);

  // The restore completed its protocol without racing the busy op: the
  // straggler's replayed update is still on the restored device (its
  // locks are still held), pending the owner-side compensation.
  EXPECT_EQ(*db->Get("in-flight"), "x");
  EXPECT_EQ(db->txns()->active_count(), 1u);

  // The op drains; the owner's next facade call runs the deferred
  // rollback before reporting the forced abort.
  straggler.handle()->EndOp();
  EXPECT_EQ(straggler.Commit().kind(), TxnError::Kind::kDoomed);
  EXPECT_TRUE(db->Get("in-flight").status().IsNotFound());
  EXPECT_EQ(db->txns()->active_count(), 0u);
  EXPECT_EQ(*db->Get(Key(0)), "r3");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// Admission is sealed from the replay-plan scan until a page's segment
// is restored: the check parks even though no restore sweep has begun —
// this covers both the exclusive cache hit that would otherwise log an
// update the plan never saw, and the buffer fault that would load a
// stale pre-failure image from the revived device. During the earlier
// gate/drain phases (protocol active, nothing sealed) admission is
// free. The parked fault demands its segment, which jumps the sweep
// queue.
TEST(RestoreGateTest, AdmissionSealedUntilSegmentRestored) {
  SimClock clock;
  RestoreGate gate(&clock);
  gate.BeginProtocol();
  ASSERT_TRUE(gate.active());
  // Drain window: in-flight transactions still run on their cached
  // working sets unthrottled.
  EXPECT_TRUE(gate.AwaitRestored(5).ok());

  gate.SealAdmission();
  std::atomic<bool> admitted{false};
  std::thread fault([&] {
    Status s = gate.AwaitRestored(5);
    EXPECT_TRUE(s.ok()) << s.ToString();
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(admitted.load());

  // The sweep starts: still parked — segment 1 (page 5, 4-page segments)
  // is not restored yet — but now registered as demanded.
  gate.BeginRestore(/*num_pages=*/64, /*segment_pages=*/4);
  ASSERT_TRUE(WaitFor([&] { return gate.admission_waits() >= 1; }));
  EXPECT_FALSE(admitted.load());

  uint64_t seg = 0;
  bool on_demand = false;
  ASSERT_TRUE(gate.ClaimNextSegment(&seg, &on_demand));
  EXPECT_EQ(seg, 1u);  // the demanded segment jumps the queue
  EXPECT_TRUE(on_demand);
  gate.MarkSegmentRestored(seg);
  fault.join();
  EXPECT_TRUE(admitted.load());
  // Once restored, further admissions on the segment are free.
  EXPECT_TRUE(gate.AwaitRestored(5).ok());

  while (gate.ClaimNextSegment(&seg, &on_demand)) gate.MarkSegmentRestored(seg);
  gate.EndRestore(Status::OK());
  gate.EndProtocol();
  EXPECT_FALSE(gate.active());
}

// Back-to-back restores with different segment geometries: a waiter from
// the first restore whose wake-up races the second BeginRestore must
// re-evaluate against the new geometry (epoch check) instead of indexing
// the first restore's (larger) segment state.
TEST(RestoreGateTest, WaiterSurvivesBackToBackRestores) {
  SimClock clock;
  RestoreGate gate(&clock);
  for (int round = 0; round < 50; ++round) {
    gate.BeginRestore(/*num_pages=*/1024, /*segment_pages=*/1);
    std::thread waiter([&] {
      // Parks on segment 1000 of the first restore; wakes somewhere
      // across EndRestore → BeginRestore. Either outcome is legal —
      // the old restore's "ended before the page was recovered" error
      // or admission against the new 2-segment geometry (page 1000 is
      // beyond it) — but indexing freed/shrunk state is not, which
      // ASan/TSan runs of this loop would catch.
      Status s = gate.AwaitRestored(1000);
      EXPECT_TRUE(s.ok() || s.IsMediaFailure()) << s.ToString();
    });
    while (gate.admission_waits() < 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    gate.EndRestore(Status::OK());
    gate.BeginRestore(/*num_pages=*/8, /*segment_pages=*/4);
    waiter.join();
    uint64_t seg = 0;
    bool on_demand = false;
    while (gate.ClaimNextSegment(&seg, &on_demand)) {
      gate.MarkSegmentRestored(seg);
    }
    gate.EndRestore(Status::OK());
  }
}

// A funnel-driven rung-5 climb records the protocol's per-phase totals
// on the RecoveryCoordinator.
TEST(RestoreGateTest, FunnelExposesRestorePhaseTotals) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  RecoveryCoordinator* funnel = db->funnel();
  ASSERT_NE(funnel, nullptr);

  db->log()->ForceAll();
  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  Status healed =
      funnel->ReportAndWait(victims.front(), FailureOrigin::kExplicit);
  ASSERT_TRUE(healed.ok()) << healed.ToString();

  FunnelTotals totals = funnel->totals();
  EXPECT_EQ(totals.gated_restores, 1u);
  EXPECT_EQ(totals.escalated_full, 1u);
  EXPECT_EQ(totals.txns_doomed, 0u);
  EXPECT_EQ(totals.failed, 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// The background scrubber pauses while a restore owns the device instead
// of flooding the funnel with reports on half-restored pages.
TEST(RestoreGateTest, ScrubberSkipsTicksDuringRestore) {
  DatabaseOptions options = FastOptions();
  options.scrub_wall_interval = std::chrono::milliseconds(1);
  options.scrub_pages_per_tick = 64;
  options.restore_segment_pages = 64;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);

  db->restore_gate()->SetObserver([&](uint64_t, uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  db->scrubber()->Start();
  ASSERT_TRUE(WaitFor([&] { return db->scrubber()->totals().ticks >= 1; }));

  db->data_device()->FailDevice();
  ASSERT_TRUE(db->RecoverMedia().ok());
  ASSERT_TRUE(
      WaitFor([&] { return db->scrubber()->totals().restore_skips >= 1; }));
  db->scrubber()->Stop();

  EXPECT_GE(db->scrubber()->totals().restore_skips, 1u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// A synchronous SweepAll issued while a full restore is running does not
// race the half-restored device (which would flood the funnel with moot
// reports): it waits the protocol out, then sweeps the restored device
// clean — counted as a restore_wait, unlike the background ticks' skips.
TEST(RestoreGateTest, SyncSweepWaitsOutActiveRestore) {
  DatabaseOptions options = FastOptions();
  options.restore_segment_pages = 64;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);

  std::atomic<bool> restore_running{false};
  db->restore_gate()->SetObserver([&](uint64_t, uint64_t) {
    restore_running.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });

  db->data_device()->FailDevice();
  StatusOr<MediaRecoveryStats> restore_result = Status::Internal("not run");
  std::thread restorer([&] { restore_result = db->RecoverMedia(); });
  ASSERT_TRUE(WaitFor([&] { return restore_running.load(); }));

  // Issued mid-restore: must block until the protocol ends, then find a
  // fully restored, failure-free device.
  auto sweep = db->Scrub();
  restorer.join();
  ASSERT_TRUE(restore_result.ok()) << restore_result.status().ToString();
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(sweep->failures_detected, 0u);
  EXPECT_GE(db->scrubber()->totals().restore_waits, 1u);
  EXPECT_FALSE(db->restore_gate()->active());
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

}  // namespace
}  // namespace spf
