// Workload definitions and the state one benchmark run shares across its
// phases (set-up, serving, drill).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "layers.h"
#include "trace.h"
#include "util.h"

namespace spfbench {

struct Workload {
  std::string name;
  uint64_t records = 0;       ///< loaded keys (100 B values)
  double zipf_theta = 0;      ///< 0 = uniform key choice
  int clients = 0;            ///< TCP client connections (0 = no serving phase)
  bool heal_probe = false;    ///< 4th connection failing and reading pages
  bool background_archiver = false;
};

/// The three named workloads; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

// Writer ids of the write log (0 is the loaded value).
constexpr uint32_t kReplayWriterBase = 100;  ///< + client index
constexpr uint32_t kDrillWriter = 200;       ///< drill update burst
constexpr uint32_t kCommitterWriter = 201;   ///< first-ack committer

/// Cap on a single frame's time, retries included: past it the frame is
/// abandoned and counted as failed (the stall limit). It equals
/// spf::Client's default receive timeout, so only a frame the server
/// does not answer at all fails; a slow one is a stall (kStallNs).
constexpr int64_t kStallLimitNs = 30'000'000'000;
/// A frame (drill: an update) slower than this counts in frame.stalls.
constexpr int64_t kStallNs = 2'000'000'000;
constexpr int kMaxAttempts = 64;

struct Run {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;

  WriteLog writes;
  /// Per writer: sequence numbers below this have finished (acked or
  /// failed); a read may never return an older write than these.
  std::unique_ptr<std::atomic<uint64_t>[]> completed{
      new std::atomic<uint64_t>[WriteLog::kMaxWriters]};

  std::unique_ptr<Tracer> tracer;  ///< set when tracing

  MetricMap end_to_end;
  MetricMap per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Records a correctness violation (thread-safe); the run then reports
  /// correct=false.
  void Fail(const std::string& what);
  bool correct() const;

  Tracer::Buffer* TraceBuffer() { return tracer ? tracer->NewBuffer() : nullptr; }
  void E2e(const std::string& name, double v, const char* unit) {
    end_to_end[name] = {v, unit};
  }
  void Layer(const std::string& name, double v, const char* unit) {
    per_layer[name] = {v, unit};
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
};

/// Creates the database and loads `records` keys; times the phases.
struct SetupTimes {
  double load_s = 0, backup_s = 0, archive_s = 0, total_s = 0;
};
std::unique_ptr<spf::Database> SetupDatabase(Run* run, SetupTimes* times,
                                             Tracer::Buffer* tb);

/// Which write each key holds (writer, sequence), by key index.
using Versions = std::vector<std::pair<uint32_t, uint64_t>>;

/// Scans the whole database, checks every pair against the write log,
/// and returns the order-independent digest and the key count; fills
/// `versions` when given.
uint64_t FullDigest(spf::Database* db, Run* run, uint64_t* keys,
                    Versions* versions = nullptr);

/// Names the first keys whose version differs between two scans.
std::string DescribeDiff(const Versions& before, const Versions& after);

/// serve_hot / heal_spill: the TCP closed loop (plus the traced replay).
void RunServing(spf::Database* db, Run* run);

/// Reports the engine-layer metrics (locks, log, archive, B-tree, pool,
/// storage write amplification, repair, funnel, PRI) of a measured phase
/// that ran `ops` operations and put `user_bytes_put` bytes.
void ReportEngineLayers(Run* run, const LayerTotals& totals, uint64_t ops,
                        uint64_t user_bytes_put);

/// The recovery drill; `cycles` full cycles. `primary` means the drill
/// is the workload itself (its update burst feeds the serving metrics).
void RunDrill(spf::Database* db, Run* run, int cycles, bool primary);

}  // namespace spfbench
