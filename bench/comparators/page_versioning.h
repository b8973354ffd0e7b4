// Page versioning via single-page rollback (paper section 5.1.4).
//
// "Snapshot isolation can be implemented by taking an up-to-date copy of a
// database page and rolling it back using 'undo' information in the
// recovery log" — the per-page log chain makes this efficient: starting
// from the current image, apply the UNDO side of each chained record,
// newest first, until the PageLSN drops to the requested point in time.
//
// Scope: rollback crosses content records (insert / ghost / update).
// Structural records (splits, formats, ghost reclamation, compensations)
// end the rollback window with NotSupported — reconstructing a pre-split
// image would need the donated records, which physiological logging does
// not retain on this page's chain. Real systems face the same boundary and
// cap version retention at structural changes.
//
// A paper comparator, not part of the engine: it lives with the benches
// and drives the engine only through its public headers.

#pragma once

#include <mutex>

#include "log/log_manager.h"
#include "storage/page.h"

namespace spf {

struct PageVersionStats {
  uint64_t versions_built = 0;
  uint64_t records_rolled_back = 0;
  uint64_t log_reads = 0;
};

/// Rolls page images backward along their per-page chains.
class PageVersioning {
 public:
  explicit PageVersioning(LogManager* log) : log_(log) {}

  /// Rolls `page` (a writable COPY of the current image, never the buffer
  /// pool frame) back until its PageLSN is <= `as_of_lsn`. On success the
  /// image shows exactly the state after the newest chained record with
  /// LSN <= as_of_lsn was applied.
  Status RollBackTo(PageView page, Lsn as_of_lsn);

  PageVersionStats stats() const {
    std::lock_guard<std::mutex> g(mu_);
    return stats_;
  }

 private:
  /// Applies the undo side of `rec` to `page`. NotSupported for record
  /// types without in-page undo information.
  Status UndoOnPage(const LogRecord& rec, PageView page);

  LogManager* const log_;
  mutable std::mutex mu_;  // guards stats_
  PageVersionStats stats_;
};

}  // namespace spf
