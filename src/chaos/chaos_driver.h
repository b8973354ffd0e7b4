// ChaosDriver: executes one ChaosSchedule against a live Database —
// concurrent writers running a mixed workload (point ops, scans,
// WriteBatches, a serialized hot-key lane) with retry-until-acked
// transaction plans, while the schedule's failure events are injected
// between and under them — and checks the online invariants the whole
// way (byte-identity vs the shadow model, per-retirement lock probes,
// funnel conservation, snapshot monotonicity, archive tiling, offline
// page verification at quiesce).
//
// Determinism contract (what makes --replay byte-exact):
//   * each writer owns a private key range; its transaction plans are a
//     pure function of (schedule seed, writer id, txn index) plus its own
//     committed history, and a plan retries unchanged until its commit is
//     acknowledged — so each writer's final committed range state is a
//     pure function of the schedule;
//   * hot (contended) keys are serialized by a commit-order mutex so the
//     shadow tracks the engine exactly, but their final values depend on
//     thread scheduling, so they are verified for byte-identity yet
//     EXCLUDED from the replay digest;
//   * crashes and other writer-unsafe events run at a pause barrier
//     (every writer parked between transactions), so no commit
//     acknowledgment is ever ambiguous.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/chaos_schedule.h"
#include "chaos/invariants.h"
#include "chaos/shadow_model.h"
#include "common/sync.h"
#include "db/database.h"

namespace spf {
namespace chaos {

/// Outcome of one chaos run.
struct ChaosReport {
  /// Invariant violations and harness-fatal errors; empty = clean run.
  std::vector<std::string> violations;
  uint64_t committed_txns = 0;  ///< acked commits (== schedule total)
  uint64_t events_fired = 0;    ///< schedule events actually injected
  /// FNV-1a over the final committed state (seed records + every
  /// writer's range; hot keys excluded — see determinism contract).
  uint64_t shadow_digest = 0;
  uint64_t schedule_digest = 0;  ///< FNV-1a of the serialized schedule
  /// Pages single-page repair healed during restart redo, summed over the
  /// run's restarts. A crash alone damages no page, so a run without
  /// fault events must report zero (Figure 12: a lost PriUpdate is
  /// regenerated, not repaired).
  uint64_t restart_repairs = 0;
  StatsSnapshot final_stats;     ///< for trace annotation / debugging

  bool ok() const { return violations.empty(); }
  TraceResult ToTraceResult() const {
    TraceResult r;
    r.present = true;
    r.schedule_digest = schedule_digest;
    r.shadow_digest = shadow_digest;
    r.committed_txns = committed_txns;
    r.events_fired = events_fired;
    return r;
  }
};

/// Key-space naming shared by the driver, tests, and trace tooling.
std::string SeedKey(uint64_t i);                  ///< immutable preload
std::string WriterKey(uint32_t writer, uint64_t i);  ///< private ranges
std::string HotKey(uint64_t i);                   ///< contended lane

/// One schedule, one run. Not reusable.
class ChaosDriver {
 public:
  explicit ChaosDriver(ChaosSchedule schedule);

  /// Runs the whole schedule to completion (including the final quiesce)
  /// and returns the report. `verbose` narrates events to stderr.
  ChaosReport Run(bool verbose = false);

 private:
  struct Plan;

  void WriterBody(uint32_t writer);
  Plan MakePlan(Random* rng, uint32_t writer, uint32_t txn_index,
                const ShadowMap& shadow) const;
  /// One transaction attempt; true when the commit was acknowledged.
  bool AttemptPlan(const Plan& plan, ShadowMap* shadow);
  void ProbeLockLeak(const Plan& plan);

  void FireEvent(const ChaosEvent& e);
  void RequestPause();
  void ReleasePause();
  void MaybePark(uint32_t writer);
  bool AllWritersDone();

  void CrashAndRestart();
  void RestartDaemons();
  /// Full invariant suite; requires the pause barrier to be held.
  void QuiescePaused();
  /// Byte-identity sweep of every key space; requires the pause barrier.
  void ShadowSweepPaused();
  void NeutralizeWornPages();

  StatusOr<PageId> PageOfSeedKey(uint64_t ordinal);
  void AddViolation(std::string what);
  void Note(const std::string& what);

  const ChaosSchedule sched_;
  bool verbose_ = false;
  std::unique_ptr<Database> db_;

  // Writer control: pause barrier + progress counters.
  OrderedMutex mu_{LockRank::kHarness};
  CondVar cv_;
  bool pause_ SPF_GUARDED_BY(mu_) = false;
  std::atomic<bool> abort_{false};  ///< harness-fatal: writers bail out
  uint32_t parked_ SPF_GUARDED_BY(mu_) = 0;
  uint32_t finished_ SPF_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> acked_total_{0};

  // Shadows. Writer w owns writer_shadows_[w] exclusively while running;
  // the driver reads them only at pause barriers. Hot keys are guarded by
  // hot_mu_ held across each contended attempt AND its shadow update.
  std::vector<ShadowMap> writer_shadows_;
  OrderedMutex hot_mu_{LockRank::kHarness};
  ShadowMap hot_shadow_ SPF_GUARDED_BY(hot_mu_);
  ShadowMap seed_shadow_;

  OrderedMutex violations_mu_{LockRank::kStats};
  std::vector<std::string> violations_ SPF_GUARDED_BY(violations_mu_);

  SnapshotMonotonicity monotonicity_;
  std::vector<PageId> worn_pages_;
  std::unordered_map<uint64_t, PageId> stale_pages_;  ///< capture key→page
  uint64_t events_fired_ = 0;
  uint64_t restart_repairs_ = 0;
};

}  // namespace chaos
}  // namespace spf
