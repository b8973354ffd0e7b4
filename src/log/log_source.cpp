#include "log/log_source.h"

#include <utility>

namespace spf {

namespace {

// Shared tail-walk step: follow page_prev_lsn pointers from `*cur` down
// while records are above both `backup_lsn` and `floor`, pushing newest
// first. Leaves `*cur` at the first chain pointer not walked.
Status WalkTail(const LogManager* log, PageId id, Lsn backup_lsn, Lsn floor,
                Lsn* cur, std::vector<LogRecord>* newest_first,
                LogSourceStats* stats) {
  while (*cur != kInvalidLsn && *cur > backup_lsn && *cur >= floor) {
    SPF_ASSIGN_OR_RETURN(LogRecord rec, log->Read(*cur));
    stats->log_reads++;
    if (rec.page_id != id) {
      return Status::Corruption("per-page chain contains foreign record");
    }
    *cur = rec.page_prev_lsn;
    newest_first->push_back(std::move(rec));
  }
  return Status::OK();
}

}  // namespace

Status TailLogSource::FetchChain(PageId id, Lsn backup_lsn, Lsn target,
                                 std::vector<LogRecord>* newest_first,
                                 LogSourceStats* stats) {
  if (target == kInvalidLsn || target <= backup_lsn) return Status::OK();
  Lsn cur = target;
  SPF_RETURN_IF_ERROR(WalkTail(log_, id, backup_lsn, /*floor=*/0, &cur,
                               newest_first, stats));
  if (cur != backup_lsn && cur != kInvalidLsn) {
    // The chain bypassed the backup LSN — inconsistent chain/backup pair.
    return Status::Corruption("per-page chain does not reach the backup");
  }
  return Status::OK();
}

Status ArchiveLogSource::FetchChain(PageId id, Lsn backup_lsn, Lsn target,
                                    std::vector<LogRecord>* newest_first,
                                    LogSourceStats* stats) {
  if (target == kInvalidLsn || target <= backup_lsn) return Status::OK();
  // Snapshot the watermark once: it only advances, so every record below
  // it is guaranteed to be in some published run for the whole fetch.
  const Lsn archived_upto = archive_->archived_upto();
  Lsn cur = target;
  SPF_RETURN_IF_ERROR(WalkTail(log_, id, backup_lsn, archived_upto, &cur,
                               newest_first, stats));
  if (cur == backup_lsn || cur == kInvalidLsn) return Status::OK();
  if (cur < backup_lsn) {
    return Status::Corruption("per-page chain does not reach the backup");
  }
  // The remainder (backup_lsn, cur] is entirely archived: follow it
  // through the sorted runs, one positioned read per run it touches.
  std::vector<ChainFetch> fetched;
  SPF_ASSIGN_OR_RETURN(
      uint64_t pages,
      archive_->FetchChains({ChainRequest{id, backup_lsn, cur}}, &fetched));
  stats->archive_reads += pages;
  SPF_RETURN_IF_ERROR(fetched[0].status);
  for (LogRecord& rec : fetched[0].newest_first) {
    newest_first->push_back(std::move(rec));
  }
  return Status::OK();
}

}  // namespace spf
