// Sources of backup pages (paper section 5.2.1).
//
// Single-page recovery needs an earlier copy of the failed page. The paper
// enumerates four sources, all implemented here:
//   1. a full database backup (also the basis for media recovery);
//   2. per-page backup copies taken during normal processing, e.g. after
//      every N updates of a page (BackupPolicy);
//   3. the page image retained by a page migration / in-log full page
//      images (kFullPageImage records);
//   4. the PageFormat log record of a freshly allocated page.
// Sources 3 and 4 live in the recovery log itself; this module manages the
// dedicated backup device used by sources 1 and 2, including the paper's
// "never overwrite the old backup page before the new one exists" rule.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/sync.h"
#include "log/log_manager.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace spf {

/// When normal processing takes a per-page backup copy (section 6: "fast
/// single-page recovery can be ensured with a page backup after a number
/// of updates or after a period since the last page backup").
struct BackupPolicy {
  /// Take a copy when a page is written with at least this many updates
  /// since its last backup. 0 disables per-page copies.
  uint32_t updates_threshold = 100;
  /// Log the image into the recovery log instead of the backup device
  /// (source 3 above).
  bool use_in_log_images = false;
};

/// Identifies a full database backup.
using BackupId = uint64_t;

/// Catalog entry of a full backup. The catalog models stable storage, so
/// the entry (page set included) survives crashes.
struct FullBackupInfo {
  BackupId id;                ///< catalog id, increasing per backup
  Lsn backup_lsn;             ///< log position when the backup was taken
  std::vector<PageId> pages;  ///< ids the backup copied, ascending

  /// True when the backup holds an image of page `id`. Every other slot
  /// of the full-backup region is stale and is never handed out.
  bool Contains(PageId id) const {
    return std::binary_search(pages.begin(), pages.end(), id);
  }
};

struct BackupStats {
  uint64_t full_backups = 0;
  uint64_t page_backups_taken = 0;
  uint64_t page_backups_freed = 0;
  uint64_t in_log_images = 0;
  uint64_t backup_reads = 0;
};

/// Manages the backup device: full backups (images of the data device's
/// allocated pages, each in the slot of its page id) and an
/// allocate-then-free store of individual page copies.
/// Thread-safe.
class BackupManager {
 public:
  /// `backup_device` must have capacity for one full backup plus the
  /// per-page copy working set; by convention the first `data_pages` ids
  /// hold the full backup and the remainder is the page-copy pool.
  BackupManager(SimDevice* data_device, SimDevice* backup_device,
                LogManager* log);

  SPF_DISALLOW_COPY(BackupManager);

  // --- full backups ----------------------------------------------------------

  /// Takes a full backup of the data pages `pages` (ascending, unique,
  /// in range): copies each one, in id order, to its slot of the backup
  /// device and records the set in the catalog. Database passes the
  /// allocator's snapshot, taken after `backup_lsn` is fixed, so a page
  /// outside the set is either never allocated or born after the backup
  /// (its kPageFormat record lies above `backup_lsn`). The caller must
  /// have flushed the buffer pool (sharp backup). Returns the backup
  /// descriptor.
  ///
  /// The old backup is overwritten in place, one page at a time, so the
  /// "never overwrite the old backup page before the new one exists" rule
  /// (section 5.2.2) holds per page only if every image written is valid:
  /// with verification hooks installed (SetFullBackupVerification), a page
  /// that reads bad is repaired and re-read — never copied as garbage —
  /// and a backup that fails partway leaves a backup device holding only
  /// valid images (a newer-valid prefix over the old backup), which the
  /// unchanged catalog entry still describes correctly for conditional
  /// replay. Without hooks, images are copied blind (legacy behavior).
  ///
  /// `backup_lsn` is the position restores will replay from; every update
  /// at or below it must already be reflected on the data device when the
  /// copy starts. A caller that flushes a buffer pool must capture this
  /// BEFORE the flush and pass it in (Database::TakeFullBackup) — with
  /// kInvalidLsn the manager captures the durable LSN itself, which is
  /// only correct when no write-back cache sits above the data device.
  StatusOr<FullBackupInfo> TakeFullBackup(Lsn backup_lsn,
                                          std::vector<PageId> pages);

  /// Installs full-backup page verification. `verifiable` selects pages
  /// that carry the standard page format (allocated, not PRI, not
  /// retired); `repair` is called when such a page fails to read or fails
  /// in-page verification and must leave the device copy readable (route
  /// it through the recovery ladder). Either may be null to disable.
  void SetFullBackupVerification(std::function<bool(PageId)> verifiable,
                                 std::function<Status(PageId)> repair);

  /// Latest full backup, if any.
  std::optional<FullBackupInfo> latest_full_backup() const;

  /// Reads page `id`'s image from full backup `backup` into `out`.
  /// NotFound when there is no such backup or it did not copy `id`.
  Status ReadFromFullBackup(BackupId backup, PageId id, char* out);

  /// Reads each page of `pages` (ascending, deduplicated) from full backup
  /// `backup` into `frames[i]` — the one sorted backup reader of every
  /// batched rung (batch repair, partial restore, full restore). Pages
  /// are read in id order, so runs of consecutive ids cost sequential
  /// backup I/O. A gap of g pages between two reads is read through and
  /// discarded when g transfers cost less than one positioning of the
  /// backup device (g * TransferNanos(page) < random_access_ns: about
  /// 122 8-KiB pages on Hdd100, never on Instant). Bridged pages never
  /// reach a frame and their read status is ignored.
  ///
  /// With `page_status` non-null it is resized to `pages.size()` and
  /// receives each page's outcome (NotFound for a page the backup did not
  /// copy, the device error for a failed read); a failed page never fails
  /// its neighbours. With it null, the first page error is returned.
  /// Errors about the request itself (unknown backup, unsorted or
  /// out-of-range ids) are returned either way, before any I/O.
  /// Returns the number of sequential read streams (positionings).
  StatusOr<uint64_t> ReadPagesFromFullBackup(
      BackupId backup, const std::vector<PageId>& pages, char* const* frames,
      std::vector<Status>* page_status = nullptr);

  // --- per-page backup copies -------------------------------------------------

  /// Stores a copy of `page_data` for data page `id` on the backup device.
  /// Allocates the new slot before freeing the old one (a failed write
  /// must not destroy the only backup — section 5.2.2). Returns the
  /// backup-device location for the PRI's backup reference.
  StatusOr<PageId> TakePageBackup(PageId id, const char* page_data);

  /// Reads the per-page backup at backup-device location `loc` into `out`.
  Status ReadPageBackup(PageId loc, char* out);

  /// Authoritative slot of `id`'s newest per-page copy, straight from the
  /// (stable-storage) catalog; kInvalidPageId if the page has no copy.
  /// A PRI backup ref is only as durable as the log tail — after a crash
  /// it can point at a recycled slot — so repair falls back to this.
  PageId CurrentPageBackupSlot(PageId id) const;

  /// Appends the page image to the recovery log (kFullPageImage) and
  /// returns the record's LSN for the PRI's backup reference.
  StatusOr<Lsn> LogPageImage(PageId id, const char* page_data);

  /// Reads a page image back from a kFullPageImage record at `lsn`.
  Status ReadLogImage(Lsn lsn, PageId expected_id, char* out);

  BackupStats stats() const;
  SimDevice* backup_device() { return backup_device_; }

  /// The backup catalog models stable storage and survives simulated
  /// crashes; only the log manager is volatile and must be re-wired after
  /// a crash rebuilds it.
  void RewireLog(LogManager* log) { log_ = log; }

 private:
  SimDevice* const data_device_;
  SimDevice* const backup_device_;
  LogManager* log_;
  const uint32_t page_size_;
  const uint64_t data_pages_;  // full-backup region size on backup device

  // Full-backup verification hooks (SetFullBackupVerification). Set once
  // at wiring time, before any concurrent use.
  std::function<bool(PageId)> verifiable_;
  std::function<Status(PageId)> repair_;

  mutable OrderedMutex mu_{LockRank::kBackup};
  std::optional<FullBackupInfo> full_backup_ SPF_GUARDED_BY(mu_);
  BackupId next_backup_id_ SPF_GUARDED_BY(mu_) = 1;
  // Per-page copy slot management in the backup device's tail region.
  std::vector<PageId> free_slots_ SPF_GUARDED_BY(mu_);
  PageId next_fresh_slot_ SPF_GUARDED_BY(mu_);
  /// data page -> slot
  std::unordered_map<PageId, PageId> current_slot_ SPF_GUARDED_BY(mu_);
  BackupStats stats_ SPF_GUARDED_BY(mu_);
};

}  // namespace spf
