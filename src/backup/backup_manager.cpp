#include "backup/backup_manager.h"

#include <cstring>

#include "common/coding.h"

namespace spf {

BackupManager::BackupManager(SimDevice* data_device, SimDevice* backup_device,
                             LogManager* log)
    : data_device_(data_device),
      backup_device_(backup_device),
      log_(log),
      page_size_(data_device->page_size()),
      data_pages_(data_device->num_pages()),
      next_fresh_slot_(data_device->num_pages()) {
  SPF_CHECK_EQ(backup_device->page_size(), page_size_);
  SPF_CHECK_GT(backup_device->num_pages(), data_pages_)
      << "backup device needs room for a full backup plus page copies";
}

void BackupManager::SetFullBackupVerification(
    std::function<bool(PageId)> verifiable,
    std::function<Status(PageId)> repair) {
  verifiable_ = std::move(verifiable);
  repair_ = std::move(repair);
}

StatusOr<FullBackupInfo> BackupManager::TakeFullBackup(
    Lsn backup_lsn, std::vector<PageId> pages) {
  for (size_t i = 0; i < pages.size(); ++i) {
    if (pages[i] >= data_pages_) {
      return Status::InvalidArgument("page out of range");
    }
    if (i > 0 && pages[i] <= pages[i - 1]) {
      return Status::InvalidArgument("pages must be ascending");
    }
  }
  // Backup LSN first: the log from here forward, plus this image, can
  // reconstruct any later state.
  log_->ForceAll();
  if (backup_lsn == kInvalidLsn) backup_lsn = log_->durable_lsn();
  std::vector<char> buf(page_size_);
  for (PageId p : pages) {
    // Never copy a bad image over the only backup of this page: a read
    // failure or a failed in-page verification routes the page through
    // repair (which may itself consult the page's old backup image —
    // still intact, it has not been overwritten yet) and re-reads. Only
    // when the page stays bad does the backup abort, with every image
    // written so far verified-valid.
    const bool check = verifiable_ != nullptr && verifiable_(p);
    Status page_status;
    for (int attempt = 0; ; ++attempt) {
      page_status = data_device_->ReadPage(p, buf.data());
      if (page_status.ok() && check) {
        page_status = PageView(buf.data(), page_size_).Verify(p);
      }
      if (page_status.ok() || repair_ == nullptr || attempt >= 2) break;
      SPF_RETURN_IF_ERROR(repair_(p));
    }
    SPF_RETURN_IF_ERROR(page_status);
    SPF_RETURN_IF_ERROR(backup_device_->WritePage(p, buf.data()));
  }
  MutexLock g(mu_);
  full_backup_ =
      FullBackupInfo{next_backup_id_++, backup_lsn, std::move(pages)};
  stats_.full_backups++;
  return *full_backup_;
}

std::optional<FullBackupInfo> BackupManager::latest_full_backup() const {
  MutexLock g(mu_);
  return full_backup_;
}

Status BackupManager::ReadFromFullBackup(BackupId backup, PageId id,
                                         char* out) {
  {
    MutexLock g(mu_);
    if (!full_backup_ || full_backup_->id != backup) {
      return Status::NotFound("full backup not available");
    }
    if (id >= data_pages_) return Status::InvalidArgument("page out of range");
    if (!full_backup_->Contains(id)) {
      return Status::NotFound("page not in the full backup");
    }
    stats_.backup_reads++;
  }
  return backup_device_->ReadPage(id, out);
}

StatusOr<uint64_t> BackupManager::ReadPagesFromFullBackup(
    BackupId backup, const std::vector<PageId>& pages, char* const* frames,
    std::vector<Status>* page_status) {
  std::vector<Status> local;
  std::vector<Status>& status = page_status != nullptr ? *page_status : local;
  status.assign(pages.size(), Status::OK());
  std::vector<size_t> reads;  // indices of the pages the backup copied
  {
    MutexLock g(mu_);
    if (!full_backup_ || full_backup_->id != backup) {
      return Status::NotFound("full backup not available");
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      if (pages[i] >= data_pages_) {
        return Status::InvalidArgument("page out of range");
      }
      if (i > 0 && pages[i] <= pages[i - 1]) {
        return Status::InvalidArgument("pages must be ascending");
      }
      if (full_backup_->Contains(pages[i])) {
        reads.push_back(i);
      } else {
        status[i] = Status::NotFound("page not in the full backup");
      }
    }
    stats_.backup_reads += reads.size();
  }

  // Bridge a gap while reading through it is cheaper than repositioning.
  const DeviceProfile& profile = backup_device_->profile();
  const uint64_t page_ns = profile.TransferNanos(page_size_);
  std::vector<char> discard(page_size_);
  uint64_t streams = 0;
  for (size_t k = 0; k < reads.size(); ++k) {
    const size_t i = reads[k];
    const uint64_t gap = k == 0 ? 0 : pages[i] - pages[reads[k - 1]] - 1;
    if (k == 0 || (gap > 0 && gap * page_ns >= profile.random_access_ns)) {
      streams++;
    } else {
      for (PageId p = pages[i] - gap; p < pages[i]; ++p) {
        (void)backup_device_->ReadPage(p, discard.data());
      }
    }
    status[i] = backup_device_->ReadPage(pages[i], frames[i]);
  }
  if (page_status == nullptr) {
    for (const Status& s : local) SPF_RETURN_IF_ERROR(s);
  }
  return streams;
}

StatusOr<PageId> BackupManager::TakePageBackup(PageId id,
                                               const char* page_data) {
  PageId new_slot;
  PageId old_slot = kInvalidPageId;
  {
    MutexLock g(mu_);
    if (!free_slots_.empty()) {
      new_slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      if (next_fresh_slot_ >= backup_device_->num_pages()) {
        return Status::IOError("backup device page-copy pool exhausted");
      }
      new_slot = next_fresh_slot_++;
    }
    auto it = current_slot_.find(id);
    if (it != current_slot_.end()) old_slot = it->second;
  }

  // Write the NEW copy first; only then free the old one. For an instant
  // both exist (section 5.2.2: overwriting the only backup risks losing
  // both backup and recovery on a failed write).
  Status s = backup_device_->WritePage(new_slot, page_data);
  if (!s.ok()) {
    MutexLock g(mu_);
    free_slots_.push_back(new_slot);
    return s;
  }
  MutexLock g(mu_);
  current_slot_[id] = new_slot;
  if (old_slot != kInvalidPageId) {
    free_slots_.push_back(old_slot);
    stats_.page_backups_freed++;
  }
  stats_.page_backups_taken++;
  return new_slot;
}

PageId BackupManager::CurrentPageBackupSlot(PageId id) const {
  MutexLock g(mu_);
  auto it = current_slot_.find(id);
  return it == current_slot_.end() ? kInvalidPageId : it->second;
}

Status BackupManager::ReadPageBackup(PageId loc, char* out) {
  {
    MutexLock g(mu_);
    stats_.backup_reads++;
  }
  return backup_device_->ReadPage(loc, out);
}

StatusOr<Lsn> BackupManager::LogPageImage(PageId id, const char* page_data) {
  LogRecord rec;
  rec.type = LogRecordType::kFullPageImage;
  // Informational page id; deliberately NOT on the per-page chain (taking
  // an image does not modify the page), so plain Append, not
  // AppendPageRecord.
  rec.page_id = id;
  rec.body.assign(page_data, page_size_);
  Lsn lsn = log_->Append(&rec);
  MutexLock g(mu_);
  stats_.in_log_images++;
  return lsn;
}

Status BackupManager::ReadLogImage(Lsn lsn, PageId expected_id, char* out) {
  SPF_ASSIGN_OR_RETURN(LogRecord rec, log_->Read(lsn));
  if (rec.type != LogRecordType::kFullPageImage) {
    return Status::Corruption("LSN does not hold a page image");
  }
  if (rec.page_id != expected_id) {
    return Status::Corruption("page image is for a different page");
  }
  if (rec.body.size() != page_size_) {
    return Status::Corruption("page image size mismatch");
  }
  std::memcpy(out, rec.body.data(), page_size_);
  {
    MutexLock g(mu_);
    stats_.backup_reads++;
  }
  return Status::OK();
}

BackupStats BackupManager::stats() const {
  MutexLock g(mu_);
  return stats_;
}

}  // namespace spf
