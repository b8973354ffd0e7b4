// Media recovery (paper section 5.1.3) — the traditional baseline that
// single-page recovery is measured against, upgraded to an INCREMENTAL
// ("instant", Sauer, Graefe & Härder, arXiv:1702.08042) protocol.
//
// Run() restores the device from the latest full backup in page-id
// SEGMENTS: one sequential log pass builds a per-page replay plan (the
// LSNs each page needs — re-read per segment at apply time, modeling the
// partitioned log runs of instant restore), then every segment is served
// as one sorted backup read, an in-memory per-page chain apply, and one
// ascending device write-back. Only the RESTORE SET moves: the pages the
// backup copied plus the pages allocated when the plan is built. A page
// born after the backup is rebuilt from its kPageFormat record, and a
// segment holding no page of the set is published without any I/O, so
// restore cost follows the allocated data, not the device capacity.
// Progress is published through an
// optional RestoreGate: parked buffer faults are admitted as soon as
// THEIR segment is back, and a waiting fault's segment is restored on
// demand ahead of the sequential sweep. Without a gate the sweep is a
// plain sequential restore with the same cost model as the paper's
// baseline (device transfer rate bound: 100 GB of data at 100 MB/s =
// 1,000 s, section 6; the replay is random-log-read bound).
//
// RunPartial() is the bounded-damage variant: only the damaged pages are
// read from the full backup (one sorted pass), and only those
// pages' per-page log chains are replayed — through the batched
// RecoveryScheduler's shared-segment cluster walk, one buffered log pass
// instead of a full-log scan or one random read per record. The device
// stays online and the rest of the buffer pool stays warm.

#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "backup/backup_manager.h"
#include "buffer/buffer_pool.h"
#include "core/pri_manager.h"
#include "core/recovery_scheduler.h"
#include "log/log_manager.h"
#include "recovery/restore_gate.h"
#include "storage/allocation.h"
#include "storage/sim_device.h"

namespace spf {

struct MediaRecoveryStats {
  uint64_t pages_restored = 0;
  uint64_t records_scanned = 0;
  uint64_t redo_applied = 0;
  uint64_t redo_skipped = 0;
  uint64_t segments = 0;            ///< page-id segments the sweep served
  uint64_t on_demand_segments = 0;  ///< served ahead of the sweep order
  double restore_sim_seconds = 0;
  double replay_sim_seconds = 0;
  double total_sim_seconds = 0;
  /// Per-phase outcome of the gated protocol (Database::RecoverMedia
  /// fills the drain-side fields; zeroed for partial restores).
  RestorePhases phases;
};

/// How a full restore runs (MediaRecovery::Run overload).
struct FullRestoreOptions {
  /// Live allocator: the pages it holds when the replay plan is built
  /// join the backup's page set as the restore set. Null restores only
  /// the backup's set.
  const PageAllocator* allocator = nullptr;
  /// Progress publication + per-page admission; null = no publication
  /// (plain offline restore).
  RestoreGate* gate = nullptr;
  /// Pages per restore segment; 0 = the whole device in one segment.
  uint64_t segment_pages = 0;
  /// Invoked once the replay plan is built and the sweep is about to
  /// start — the early-readmission hook (Database reopens the transaction
  /// admission gate here, while the restore is still running).
  std::function<void()> on_sweep_begin;
};

class MediaRecovery {
 public:
  /// `pri_manager` may be null; when present, the PRI is rebuilt to
  /// reference the restored full backup — per segment, BEFORE the segment
  /// is published as restored, so early-admitted readers never see a PRI
  /// entry that lags the restored image. `archive` may be null; when
  /// present, Run()'s replay-plan scan covers only the unarchived log
  /// tail and each segment's older history is served as a merge of
  /// sequential sorted-run reads.
  MediaRecovery(LogManager* log, BackupManager* backups, SimDevice* data,
                BufferPool* pool, PriManager* pri_manager, SimClock* clock,
                LogArchiver* archive = nullptr)
      : log_(log),
        backups_(backups),
        data_(data),
        pool_(pool),
        pri_manager_(pri_manager),
        clock_(clock),
        archive_(archive) {}

  /// Incremental full restore + replay; see the file comment for the
  /// segment protocol. The device is revived first (simulating the
  /// replacement of the failed unit).
  StatusOr<MediaRecoveryStats> Run(const FullRestoreOptions& options);

  /// Partial restore-and-replay of a bounded damaged set through
  /// `scheduler`. Either heals every listed page to its PRI-certified
  /// state or returns an error for the caller to escalate to Run():
  /// requires a full backup, a live PRI (`pri_manager` non-null), and a
  /// device that is not failed as a whole. Pages with a dirty buffered
  /// copy must NOT be passed (nothing was lost — write-back overwrites
  /// the device image); Database::RecoverPages filters them.
  StatusOr<MediaRecoveryStats> RunPartial(std::vector<PageId> pages,
                                          RecoveryScheduler* scheduler);

 private:
  /// Restores `pages` (one segment's slice of the restore set; ascending,
  /// non-empty): sorted backup read of those the backup copied, a zeroed
  /// frame for the rest, archived history via one sorted-run range fetch
  /// (records at or above the backup LSN and below `tail_plan_start`),
  /// per-page tail apply from `plan`, ascending device write-back, then
  /// per-page PRI publication. A page outside the backup whose replay
  /// does not start with a kPageFormat record is Corruption; one with no
  /// record at all holds nothing durable and is left unwritten. Buffers
  /// through `seg_buf` (pages.size() * page_size bytes).
  Status RestoreSegment(const FullBackupInfo& backup,
                        const std::vector<PageId>& pages, Lsn tail_plan_start,
                        const std::unordered_map<PageId, std::vector<Lsn>>& plan,
                        char* seg_buf, MediaRecoveryStats* stats);

  LogManager* const log_;
  BackupManager* const backups_;
  SimDevice* const data_;
  BufferPool* const pool_;
  PriManager* const pri_manager_;
  SimClock* const clock_;
  LogArchiver* const archive_;
};

}  // namespace spf
