// Single-page recovery (paper section 5.2.3, Figure 10) and the
// read-time detection hooks (section 4.2 / 5.2.2, Figure 8).
//
// Recovery procedure for one failed page:
//   1. look up the page in the page recovery index;
//   2. fetch the most recent backup (individual copy, full backup, in-log
//      image, or the page's formatting log record) into the buffer frame;
//   3. follow the per-page log chain from the PRI's PageLSN back to the
//      backup, pushing record pointers onto a last-in-first-out stack;
//   4. pop and apply the "redo" actions in order, with the defensive
//      check that each record's page_prev_lsn equals the current PageLSN
//      (section 5.1.4);
//   5. verify the result; the page is up to date in the buffer pool and
//      the affected transaction merely waited — no abort.
// If anything fails, the error escalates (the caller treats it as a media
// failure, exactly the paper's fallback).
//
// Concurrency: the repair procedure itself only touches thread-safe
// components (PRI, log, backups, device), so many repairs may run at
// once. The cumulative counters are sharded by page id so concurrent
// repairs do not serialize on one stats mutex; the RecoveryScheduler
// drives the sharded pieces (LoadBackupImage / ApplyChain / FinishRepair)
// directly when it repairs a whole batch of pages coordinately.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "backup/backup_manager.h"
#include "buffer/buffer_pool.h"
#include "common/sync.h"
#include "core/pri_manager.h"
#include "log/log_manager.h"
#include "log/log_archive.h"
#include "storage/sim_device.h"

namespace spf {

/// Cumulative counters plus the most recent repair's breakdown (benches
/// read the latter right after inducing one failure).
struct SinglePageRecoveryStats {
  uint64_t repairs_attempted = 0;
  uint64_t repairs_succeeded = 0;
  uint64_t escalations = 0;
  uint64_t log_records_applied = 0;
  uint64_t log_reads = 0;
  uint64_t archive_reads = 0;  ///< sequential archive data pages read
  uint64_t backup_reads = 0;

  // Most recent successful repair:
  uint64_t last_chain_length = 0;
  uint64_t last_sim_ns = 0;
  BackupKind last_backup_kind = BackupKind::kNone;
};

/// PageRepairer implementation plugged into the buffer pool (Figure 8).
class SinglePageRecovery : public PageRepairer {
 public:
  SinglePageRecovery(PriManager* pri_manager, LogManager* log,
                     BackupManager* backups, SimDevice* data_device,
                     SimClock* clock);

  SPF_DISALLOW_COPY(SinglePageRecovery);

  /// Rebuilds page `id` into `frame` from its backup plus the per-page
  /// log chain, then writes the healed image back to the device (healing
  /// transient faults in place). Returns MediaFailure when escalation is
  /// the only option. Thread-safe; concurrent repairs of distinct pages
  /// proceed in parallel.
  Status RepairPage(PageId id, char* frame) override;

  // --- building blocks for the batched RecoveryScheduler ---------------------
  //
  // Each accumulates its I/O counters into `*acc` (a caller-local stats
  // struct) instead of the shared shards; the caller merges once with
  // MergeStats. This keeps a batch's worth of repairs off any shared lock.

  /// PRI lookup; MediaFailure if the index knows nothing about the page.
  StatusOr<PriEntry> LookupEntry(PageId id) const;

  /// Chain-anchor lookup for partial restore: tolerates a lost backup
  /// reference (the image comes from the full backup instead).
  StatusOr<PriEntry> LookupChainAnchor(PageId id) const;

  /// Step 2: fetches the most recent backup image of `id` into `frame`.
  Status LoadBackupImage(PageId id, const PriEntry& entry, char* frame,
                         SinglePageRecoveryStats* acc);

  /// Steps 3-4: collects the per-page chain and replays it. The chain is
  /// walked backward through the log tail, one random read per record,
  /// down to the archive watermark; the archived remainder arrives from
  /// one LogArchiver::FetchChains call. Without an archive wired in the
  /// whole chain comes from the tail (the serial per-record baseline).
  Status ReplayChain(PageId id, const PriEntry& entry, char* frame,
                     SinglePageRecoveryStats* acc);

  /// Wires the sorted log archive in as the source of archived chain
  /// history, for single-page repair (ReplayChain) and for the
  /// RecoveryScheduler's cluster walks alike. nullptr (the default)
  /// walks every chain through the log tail only. Call during database
  /// assembly, before repairs can run; not thread-safe vs. in-flight
  /// repairs.
  void SetArchive(LogArchiver* archive) { archive_ = archive; }

  /// The wired archive, or nullptr for tail-only chain walks.
  LogArchiver* archive() const { return archive_; }

  /// Step 4 alone: pops a collected chain (newest-first LIFO) and applies
  /// the redo actions with the defensive redo-sequence check. Consumes
  /// `*chain`. Shared by ReplayChain and the scheduler's batched walk so
  /// per-page and batched repair can never diverge here.
  Status ApplyChain(std::vector<LogRecord>* chain, char* frame,
                    SinglePageRecoveryStats* acc);

  /// Figure 10's escalation wrap: any non-media failure becomes a
  /// MediaFailure naming the page.
  static Status Escalate(PageId id, const Status& s);

  /// Step 5: verifies the recovered image against the PRI target LSN and
  /// heals the stored copy (device write-back).
  Status FinishRepair(PageId id, const PriEntry& entry, char* frame,
                      SinglePageRecoveryStats* acc);

  /// Adds a batch-local accumulator into the shard owning `shard_key`.
  void MergeStats(const SinglePageRecoveryStats& acc, PageId shard_key);

  /// Publishes the "most recent successful repair" snapshot.
  void NoteLastRepair(uint64_t chain_length, uint64_t sim_ns, BackupKind kind);

  SinglePageRecoveryStats stats() const;  ///< aggregated over all shards
  void ResetStats();

  PriManager* pri_manager() const { return pri_manager_; }
  LogManager* log() const { return log_; }
  BackupManager* backups() const { return backups_; }
  SimDevice* data_device() const { return data_device_; }
  SimClock* clock() const { return clock_; }
  uint32_t page_size() const { return page_size_; }

 private:
  static constexpr size_t kStatShards = 8;
  struct alignas(64) StatShard {
    mutable OrderedMutex mu{LockRank::kStats};
    SinglePageRecoveryStats s SPF_GUARDED_BY(mu);
  };

  PriManager* const pri_manager_;
  LogManager* const log_;
  BackupManager* const backups_;
  SimDevice* const data_device_;
  SimClock* const clock_;
  const uint32_t page_size_;

  LogArchiver* archive_ = nullptr;  // archived chain history; null: tail only

  StatShard shards_[kStatShards];
  mutable OrderedMutex last_mu_{LockRank::kStats};  // last_* snapshot
  uint64_t last_chain_length_ SPF_GUARDED_BY(last_mu_) = 0;
  uint64_t last_sim_ns_ SPF_GUARDED_BY(last_mu_) = 0;
  BackupKind last_backup_kind_ SPF_GUARDED_BY(last_mu_) = BackupKind::kNone;
};

/// ReadVerifier implementation: the PageLSN-vs-PRI cross-check credited to
/// Gary Smith in the paper's acknowledgements (section 5.2.2: "comparing
/// the PageLSN in the data page with the information in the page recovery
/// index is an additional consistency check that could prevent the
/// nightmare recounted in the introduction"). Catches stale pages whose
/// in-page checksum is valid.
///
/// Restart window (Figure 12, third row): a crash loses the PriUpdate
/// records of write-backs after the last log force, so the reloaded PRI
/// certifies an older PageLSN than the device holds. While restart runs,
/// a page whose PageLSN is AHEAD of the PRI is accepted as such a
/// completed write — provided the durable log holds this page's own
/// record at exactly that PageLSN, which the WAL rule guarantees for
/// every real write-back. The lost PriUpdate is regenerated and the page
/// is not repaired. Every other mismatch stays a single-page failure: a
/// PageLSN behind the PRI (stale image), past the durable log end, not on
/// a record boundary, or naming another page's record.
class PageLsnCrossCheck : public ReadVerifier {
 public:
  PageLsnCrossCheck(PriManager* pri_manager, const LogManager* log)
      : pri_manager_(pri_manager), log_(log) {}

  Status VerifyOnRead(PageView page) override;

  /// Per-page-chain records as (LSN, page id), in ascending LSN order.
  using PageRecords = std::vector<std::pair<Lsn, PageId>>;

  /// Opens the restart window over the log that survived the crash, which
  /// ends at `durable_end`. `scanned` holds every per-page-chain record at
  /// or after `scanned_from` — restart analysis collects them on its pass,
  /// so checking a PageLSN there costs no log read. An older PageLSN is
  /// checked by reading its record.
  void BeginRestart(Lsn durable_end, Lsn scanned_from, PageRecords scanned);
  void EndRestart();

  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  uint64_t mismatches() const {
    return mismatches_.load(std::memory_order_relaxed);
  }

 private:
  /// True when the restart window is open and the durable log holds a
  /// per-page-chain record of this page at exactly its PageLSN.
  bool IsLostPriUpdate(PageView page) const;

  PriManager* const pri_manager_;
  const LogManager* const log_;
  /// Restart window; consulted only for a page ahead of the PRI, so the
  /// ordinary read path never takes this lock.
  mutable OrderedMutex window_mu_{LockRank::kStats};
  /// kInvalidLsn while closed: no PageLSN lies below it.
  Lsn durable_end_ SPF_GUARDED_BY(window_mu_) = kInvalidLsn;
  Lsn scanned_from_ SPF_GUARDED_BY(window_mu_) = kInvalidLsn;
  PageRecords scanned_ SPF_GUARDED_BY(window_mu_);
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> mismatches_{0};
};

}  // namespace spf
