// ARIES-style restart recovery after a system failure (paper section
// 5.1.2), extended with the page-recovery-index interplay of section 5.2.5
// / Figure 12:
//
//   Analysis  — from the last checkpoint: rebuilds the dirty page table
//               (DPT), the loser transaction table, the allocator, and the
//               bad-block list. A PriUpdate (or PageWriteCompleted) record
//               certifies a completed write and CANCELS the recovery
//               requirement for records at or below the certified PageLSN —
//               the optimization that spares redo its random reads
//               (Figure 4). PriUpdate records are simultaneously applied to
//               the in-memory PRI.
//   Redo      — physical, page-oriented; reads only pages whose DPT entry
//               demands it, decides by PageLSN, and verifies the per-page
//               chain pointer before every application (defensive check of
//               section 5.1.4). If a page already reflects an update whose
//               PriUpdate record is missing, the write completed but its
//               PRI update was lost: restart generates the missing record
//               (Figure 12, third row). The same holds for a page whose
//               PageLSN is ahead of the PRI when the durable log holds its
//               record at that LSN — the PageLSN cross-check accepts it
//               while restart runs instead of reporting a failure. A page
//               that fails verification during redo is repaired online by
//               single-page recovery — the PRI was loaded before redo
//               began (section 5.2.5).
//   Undo      — logical compensation of loser transactions via the shared
//               rollback executor.

#pragma once

#include <map>

#include "btree/btree.h"
#include "buffer/buffer_pool.h"
#include "core/pri_manager.h"
#include "core/single_page_recovery.h"
#include "log/log_manager.h"
#include "recovery/checkpoint.h"
#include "recovery/rollback.h"
#include "storage/allocation.h"
#include "txn/txn_manager.h"

namespace spf {

struct RestartStats {
  Lsn analysis_start = kInvalidLsn;
  uint64_t analysis_records = 0;
  uint64_t dpt_entries_after_analysis = 0;
  uint64_t write_certifications_seen = 0;  ///< PriUpdate/WriteCompleted
  uint64_t losers = 0;

  uint64_t redo_records_considered = 0;
  uint64_t redo_applied = 0;
  uint64_t redo_skipped_by_dpt = 0;        ///< never read the page (Fig. 4 win)
  uint64_t redo_skipped_by_page_lsn = 0;   ///< read, found already applied
  uint64_t redo_page_reads = 0;            ///< buffer faults during redo
  /// Figure 12, third row: PriUpdates regenerated while redo and undo ran
  /// — pages the cross-check accepted, pages redo found already current,
  /// and single-page repairs that recovered an image newer than the PRI
  /// certified.
  uint64_t lost_pri_updates_regenerated = 0;
  uint64_t pages_repaired_during_redo = 0;

  uint64_t undo_records = 0;

  double analysis_sim_seconds = 0;
  double redo_sim_seconds = 0;
  double undo_sim_seconds = 0;
};

class RestartRecovery {
 public:
  /// `pri_manager` and `cross_check` may be null (WriteTrackingMode::kNone
  /// or kCompletedWrites baselines). Run() opens `cross_check`'s restart
  /// window for its redo and undo passes.
  RestartRecovery(LogManager* log, BufferPool* pool, TxnManager* txns,
                  BTree* tree, PageAllocator* alloc, BadBlockList* bbl,
                  PriManager* pri_manager, PageLsnCrossCheck* cross_check,
                  SimClock* clock)
      : log_(log),
        pool_(pool),
        txns_(txns),
        tree_(tree),
        alloc_(alloc),
        bbl_(bbl),
        pri_manager_(pri_manager),
        cross_check_(cross_check),
        clock_(clock) {}

  /// Runs the three passes. On success the database is consistent:
  /// committed effects present, loser effects compensated.
  StatusOr<RestartStats> Run();

 private:
  struct LoserInfo {
    Lsn last_lsn = kInvalidLsn;
    Lsn undo_next = kInvalidLsn;
  };

  Status Analysis(RestartStats* stats);
  Status Redo(RestartStats* stats);
  Status Undo(RestartStats* stats);

  LogManager* const log_;
  BufferPool* const pool_;
  TxnManager* const txns_;
  BTree* const tree_;
  PageAllocator* const alloc_;
  BadBlockList* const bbl_;
  PriManager* const pri_manager_;
  PageLsnCrossCheck* const cross_check_;
  SimClock* const clock_;

  std::map<PageId, Lsn> dpt_;  // page -> recLSN
  std::map<TxnId, LoserInfo> losers_;
  /// Lowest RECORD-BOUNDARY LSN ever inserted into the DPT. Write
  /// certifications raise individual recLSNs to certified+1, which is not
  /// a record boundary and therefore must never be used as a scan start;
  /// the floor stays a valid boundary (conservative: the scan may visit
  /// records that every entry then filters out).
  Lsn redo_scan_floor_ = kInvalidLsn;
  /// Page records analysis scanned, handed to the cross-check's restart
  /// window so it can confirm a PageLSN without a log read.
  PageLsnCrossCheck::PageRecords scanned_page_records_;
};

}  // namespace spf
