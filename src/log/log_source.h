// LogSource: where a per-page log chain comes from.
//
// Single-page repair needs one thing from the log subsystem: the chain of
// records that modified page P in (backup_lsn, target], newest first.
// There are two ways to materialize it:
//
//   * TailLogSource    — the classic walk: follow page_prev_lsn pointers
//                        backward with one random log read per record
//                        (paper Figure 10 steps 3; the serial baseline).
//   * ArchiveLogSource — walk the unarchived tail the same way, but stop
//                        at the archiver's watermark and follow the rest
//                        of the chain through the sorted runs: one
//                        positioned sequential read per run that holds
//                        part of it (instant-restore style).
//
// Both return an identical chain for an identical request — the archive
// stores byte-exact copies of the log records — so consumers can be wired
// to either without behavioral drift; only the I/O pattern changes. The
// defensive redo-sequence check in SinglePageRecovery::ApplyChain still
// validates the chain's internal continuity record by record either way.

#pragma once

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "log/log_archive.h"
#include "log/log_manager.h"
#include "log/log_record.h"

namespace spf {

/// I/O accounting for one chain fetch, accumulated into the caller's
/// repair stats.
struct LogSourceStats {
  uint64_t log_reads = 0;      ///< random per-record log reads (tail walk)
  uint64_t archive_reads = 0;  ///< sequential archive data pages read
};

/// Produces page `id`'s per-page chain in (backup_lsn, target], NEWEST
/// first (the LIFO order ApplyChain pops). Appends to `*newest_first`.
/// Returns Corruption when the chain is inconsistent with the backup
/// (foreign record, or the walk bypasses backup_lsn without touching it).
class LogSource {
 public:
  virtual ~LogSource() = default;
  virtual Status FetchChain(PageId id, Lsn backup_lsn, Lsn target,
                            std::vector<LogRecord>* newest_first,
                            LogSourceStats* stats) = 0;
};

/// Chain walk over the log device only: one random read per record.
class TailLogSource : public LogSource {
 public:
  explicit TailLogSource(const LogManager* log) : log_(log) {}
  SPF_DISALLOW_COPY(TailLogSource);

  Status FetchChain(PageId id, Lsn backup_lsn, Lsn target,
                    std::vector<LogRecord>* newest_first,
                    LogSourceStats* stats) override;

 private:
  const LogManager* const log_;
};

/// Tail walk down to the archiver's watermark, then LogArchiver::
/// FetchChains for the archived remainder. Degrades to a pure tail walk while the
/// archive is empty, so wiring this in changes nothing until the archiver
/// runs.
class ArchiveLogSource : public LogSource {
 public:
  ArchiveLogSource(LogArchiver* archive, const LogManager* log)
      : archive_(archive), log_(log) {}
  SPF_DISALLOW_COPY(ArchiveLogSource);

  Status FetchChain(PageId id, Lsn backup_lsn, Lsn target,
                    std::vector<LogRecord>* newest_first,
                    LogSourceStats* stats) override;

 private:
  LogArchiver* const archive_;
  const LogManager* const log_;
};

}  // namespace spf
