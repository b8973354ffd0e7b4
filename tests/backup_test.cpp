// Unit tests for the backup subsystem: full backups, per-page copies with
// allocate-before-free semantics, and in-log page images (section 5.2.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "backup/backup_manager.h"
#include "common/sim_clock.h"
#include "log/log_manager.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace spf {
namespace {

constexpr uint32_t kPS = 4096;
constexpr uint64_t kDataPages = 64;

/// Page ids [0, n): a full backup of every page of an n-page device.
std::vector<PageId> AllPages(uint64_t n) {
  std::vector<PageId> pages(n);
  for (PageId p = 0; p < n; ++p) pages[p] = p;
  return pages;
}

class BackupTest : public ::testing::Test {
 protected:
  BackupTest()
      : data_("data", kPS, kDataPages, DeviceProfile::Instant(), &clock_),
        backup_dev_("backup", kPS, kDataPages + 32, DeviceProfile::Instant(),
                    &clock_),
        wal_("wal", DeviceProfile::Instant(), &clock_),
        log_(&wal_),
        mgr_(&data_, &backup_dev_, &log_) {}

  std::string MakePage(PageId id, char fill, Lsn lsn = 0) {
    std::string buf(kPS, '\0');
    PageView page(buf.data(), kPS);
    page.Format(id, PageType::kRaw);
    std::memset(buf.data() + kPageHeaderSize, fill, 100);
    page.set_page_lsn(lsn);
    page.UpdateChecksum();
    return buf;
  }

  SimClock clock_;
  SimDevice data_;
  SimDevice backup_dev_;
  SimLogDevice wal_;
  LogManager log_;
  BackupManager mgr_;
};

TEST_F(BackupTest, NoBackupInitially) {
  EXPECT_FALSE(mgr_.latest_full_backup().has_value());
  char buf[kPS];
  EXPECT_TRUE(mgr_.ReadFromFullBackup(1, 0, buf).IsNotFound());
}

TEST_F(BackupTest, FullBackupRoundTrip) {
  for (PageId p = 0; p < kDataPages; ++p) {
    std::string img = MakePage(p, static_cast<char>('a' + p % 26));
    ASSERT_TRUE(data_.WritePage(p, img.data()).ok());
  }
  auto info = mgr_.TakeFullBackup(kInvalidLsn, AllPages(kDataPages));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->pages.size(), kDataPages);
  EXPECT_GT(info->backup_lsn, 0u);

  // Overwrite the data device, then read the original back from backup.
  std::string changed = MakePage(5, 'Z');
  data_.WritePage(5, changed.data());
  std::string out(kPS, '\0');
  ASSERT_TRUE(mgr_.ReadFromFullBackup(info->id, 5, out.data()).ok());
  PageView page(out.data(), kPS);
  EXPECT_TRUE(page.Verify(5).ok());
  EXPECT_EQ(out[kPageHeaderSize], 'f');  // 'a' + 5
}

TEST_F(BackupTest, AllocatedOnlyBackupRewritesDevice) {
  // Pages [0, 40) are in use; the tail [40, 64) was never allocated.
  std::vector<PageId> allocated(40);
  for (PageId p = 0; p < allocated.size(); ++p) {
    allocated[p] = p;
    std::string img = MakePage(p, 'x');
    data_.WritePage(p, img.data());
  }
  auto info = mgr_.TakeFullBackup(kInvalidLsn, allocated);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->pages, allocated);
  EXPECT_EQ(backup_dev_.stats().page_writes, allocated.size());
  // Trash the device.
  for (PageId p = 0; p < kDataPages; ++p) {
    std::string junk(kPS, 'J');
    data_.WritePage(p, junk.data());
  }

  // Restore through the sorted reader: the whole device is requested,
  // only the copied pages come back.
  std::vector<PageId> all(kDataPages);
  std::vector<std::string> images(kDataPages, std::string(kPS, '\0'));
  std::vector<char*> frames;
  for (PageId p = 0; p < kDataPages; ++p) {
    all[p] = p;
    frames.push_back(images[p].data());
  }
  std::vector<Status> status;
  auto streams =
      mgr_.ReadPagesFromFullBackup(info->id, all, frames.data(), &status);
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  EXPECT_EQ(*streams, 1u);
  ASSERT_EQ(status.size(), all.size());
  uint64_t restored = 0;
  for (PageId p = 0; p < kDataPages; ++p) {
    if (p < allocated.size()) {
      ASSERT_TRUE(status[p].ok()) << status[p].ToString();
      ASSERT_TRUE(data_.WritePage(p, images[p].data()).ok());
      restored++;
    } else {
      EXPECT_TRUE(status[p].IsNotFound()) << "page " << p;
    }
  }
  EXPECT_EQ(restored, allocated.size());
  std::string out(kPS, '\0');
  data_.ReadPage(9, out.data());
  EXPECT_TRUE(PageView(out.data(), kPS).Verify(9).ok());
  // Without a status vector the first uncopied page fails the call.
  EXPECT_TRUE(mgr_.ReadPagesFromFullBackup(info->id, all, frames.data())
                  .status()
                  .IsNotFound());
}

TEST_F(BackupTest, UncopiedPageIsNotFound) {
  for (PageId p = 0; p < kDataPages; ++p) {
    std::string img = MakePage(p, 'a');
    data_.WritePage(p, img.data());
  }
  ASSERT_TRUE(mgr_.TakeFullBackup(kInvalidLsn, AllPages(kDataPages)).ok());
  // The second backup copies only [0, 8): slot 20 still holds the first
  // backup's image of page 20, a stale slot that must never be served.
  std::vector<PageId> copied{0, 1, 2, 3, 4, 5, 6, 7};
  auto info = mgr_.TakeFullBackup(kInvalidLsn, copied);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->Contains(7));
  EXPECT_FALSE(info->Contains(20));
  std::string out(kPS, '\0');
  EXPECT_TRUE(mgr_.ReadFromFullBackup(info->id, 7, out.data()).ok());
  EXPECT_TRUE(mgr_.ReadFromFullBackup(info->id, 20, out.data()).IsNotFound());
  EXPECT_TRUE(mgr_.ReadFromFullBackup(info->id, kDataPages, out.data())
                  .IsInvalidArgument());

  std::vector<PageId> unsorted{3, 3};
  EXPECT_TRUE(mgr_.TakeFullBackup(kInvalidLsn, unsorted)
                  .status()
                  .IsInvalidArgument());
  std::vector<PageId> out_of_range{kDataPages};
  EXPECT_TRUE(mgr_.TakeFullBackup(kInvalidLsn, out_of_range)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(BackupTest, SortedReaderFailsOnlyTheUnreadablePage) {
  for (PageId p = 0; p < kDataPages; ++p) {
    std::string img = MakePage(p, 'r');
    data_.WritePage(p, img.data());
  }
  auto info = mgr_.TakeFullBackup(kInvalidLsn, AllPages(kDataPages));
  ASSERT_TRUE(info.ok());
  backup_dev_.InjectReadError(12);

  std::vector<PageId> pages{10, 11, 12, 13, 30};
  std::vector<std::string> images(pages.size(), std::string(kPS, '\0'));
  std::vector<char*> frames;
  for (auto& img : images) frames.push_back(img.data());
  std::vector<Status> status;
  auto streams =
      mgr_.ReadPagesFromFullBackup(info->id, pages, frames.data(), &status);
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  for (size_t i = 0; i < pages.size(); ++i) {
    if (pages[i] == 12) {
      EXPECT_TRUE(status[i].IsReadFailure()) << status[i].ToString();
    } else {
      ASSERT_TRUE(status[i].ok()) << status[i].ToString();
      EXPECT_TRUE(PageView(images[i].data(), kPS).Verify(pages[i]).ok());
    }
  }
  EXPECT_TRUE(mgr_.ReadPagesFromFullBackup(info->id, pages, frames.data())
                  .status()
                  .IsReadFailure());
}

// The sorted reader bridges a gap when reading through it is cheaper than
// one positioning of the backup device: a sparse set costs exactly
// sum(min(gap * transfer, seek)) beyond the pages themselves.
TEST(BackupBridgeTest, HddChargeIsTheBridgeOrSeekMinimum) {
  constexpr uint64_t kPages = 2048;
  SimClock clock;
  SimDevice data("data", kPS, kPages, DeviceProfile::Instant(), &clock);
  DeviceProfile hdd = DeviceProfile::Hdd100();
  SimDevice backup("backup", kPS, kPages + 32, hdd, &clock);
  SimLogDevice wal("wal", DeviceProfile::Instant(), &clock);
  LogManager log(&wal);
  BackupManager mgr(&data, &backup, &log);
  for (PageId p = 0; p < kPages; ++p) {
    std::string buf(kPS, '\0');
    PageView page(buf.data(), kPS);
    page.Format(p, PageType::kRaw);
    page.UpdateChecksum();
    ASSERT_TRUE(data.WritePage(p, buf.data()).ok());
  }
  auto info = mgr.TakeFullBackup(kInvalidLsn, AllPages(kPages));
  ASSERT_TRUE(info.ok());

  const uint64_t page_ns = hdd.TransferNanos(kPS);
  const uint64_t seek_ns = hdd.random_access_ns;
  const uint64_t break_even = (seek_ns - 1) / page_ns;  // largest bridged gap
  ASSERT_EQ(break_even, 244u);  // 4 KiB pages at 100 MB/s vs 10 ms

  // Gaps: 0, 0, break_even (bridged), break_even + 1 (seek), 3 (bridged),
  // 900 (seek).
  std::vector<PageId> pages{100, 101, 102};
  pages.push_back(pages.back() + break_even + 1);
  pages.push_back(pages.back() + break_even + 2);
  pages.push_back(pages.back() + 4);
  pages.push_back(pages.back() + 901);
  ASSERT_LT(pages.back(), kPages);
  uint64_t expected_ns = seek_ns + pages.size() * page_ns;
  uint64_t expected_reads = pages.size();
  for (size_t i = 1; i < pages.size(); ++i) {
    const uint64_t gap = pages[i] - pages[i - 1] - 1;
    if (gap * page_ns < seek_ns) expected_reads += gap;
    expected_ns += std::min(gap * page_ns, seek_ns);
  }
  // A hard error inside a bridged gap is never surfaced.
  backup.InjectReadError(pages[3] + 1);

  // One spare frame after the requested ones proves bridged pages never
  // land in a caller's frame.
  std::vector<std::string> images(pages.size() + 1, std::string(kPS, 'G'));
  std::vector<char*> frames;
  for (size_t i = 0; i < pages.size(); ++i) frames.push_back(images[i].data());
  const DeviceStats before = backup.stats();
  std::vector<Status> status;
  auto streams =
      mgr.ReadPagesFromFullBackup(info->id, pages, frames.data(), &status);
  ASSERT_TRUE(streams.ok()) << streams.status().ToString();
  const DeviceStats after = backup.stats();

  EXPECT_EQ(*streams, 3u);  // the first read and two unbridged gaps
  EXPECT_EQ(after.sim_ns_charged - before.sim_ns_charged, expected_ns);
  EXPECT_EQ(after.page_reads - before.page_reads, expected_reads);
  EXPECT_EQ(after.random_accesses - before.random_accesses, 3u);
  EXPECT_EQ(mgr.stats().backup_reads, pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    ASSERT_TRUE(status[i].ok()) << "page " << pages[i];
    EXPECT_TRUE(PageView(images[i].data(), kPS).Verify(pages[i]).ok());
  }
  EXPECT_EQ(images.back(), std::string(kPS, 'G'));

  // Instant: nothing is worth bridging, every gap starts a stream.
  SimDevice instant_backup("backup", kPS, kPages + 32,
                           DeviceProfile::Instant(), &clock);
  BackupManager instant(&data, &instant_backup, &log);
  auto instant_info =
      instant.TakeFullBackup(kInvalidLsn, AllPages(kPages));
  ASSERT_TRUE(instant_info.ok());
  const uint64_t reads0 = instant_backup.stats().page_reads;
  streams = instant.ReadPagesFromFullBackup(instant_info->id, pages,
                                            frames.data());
  ASSERT_TRUE(streams.ok());
  EXPECT_EQ(*streams, 5u);
  EXPECT_EQ(instant_backup.stats().page_reads - reads0, pages.size());
}

TEST_F(BackupTest, PageBackupAllocateThenFree) {
  std::string v1 = MakePage(3, 'a', 100);
  auto slot1 = mgr_.TakePageBackup(3, v1.data());
  ASSERT_TRUE(slot1.ok());
  EXPECT_GE(*slot1, kDataPages);  // page-copy pool is beyond the full backup

  std::string v2 = MakePage(3, 'b', 200);
  auto slot2 = mgr_.TakePageBackup(3, v2.data());
  ASSERT_TRUE(slot2.ok());
  EXPECT_NE(*slot1, *slot2) << "old backup must not be overwritten in place";

  // The old slot is recycled for the NEXT backup.
  std::string other = MakePage(7, 'c', 10);
  auto slot3 = mgr_.TakePageBackup(7, other.data());
  ASSERT_TRUE(slot3.ok());
  EXPECT_EQ(*slot3, *slot1);

  std::string out(kPS, '\0');
  ASSERT_TRUE(mgr_.ReadPageBackup(*slot2, out.data()).ok());
  EXPECT_EQ(PageView(out.data(), kPS).page_lsn(), 200u);

  BackupStats s = mgr_.stats();
  EXPECT_EQ(s.page_backups_taken, 3u);
  EXPECT_EQ(s.page_backups_freed, 1u);
}

TEST_F(BackupTest, InLogImageRoundTrip) {
  std::string img = MakePage(12, 'q', 777);
  auto lsn = mgr_.LogPageImage(12, img.data());
  ASSERT_TRUE(lsn.ok());

  std::string out(kPS, '\0');
  ASSERT_TRUE(mgr_.ReadLogImage(*lsn, 12, out.data()).ok());
  EXPECT_EQ(out, img);
  EXPECT_EQ(PageView(out.data(), kPS).page_lsn(), 777u);

  // Wrong page id is rejected.
  EXPECT_TRUE(mgr_.ReadLogImage(*lsn, 13, out.data()).IsCorruption());
}

TEST_F(BackupTest, ReadLogImageRejectsNonImageRecord) {
  LogRecord rec;
  rec.type = LogRecordType::kBeginTxn;
  rec.txn_id = 1;
  Lsn lsn = log_.Append(&rec);
  std::string out(kPS, '\0');
  EXPECT_TRUE(mgr_.ReadLogImage(lsn, 0, out.data()).IsCorruption());
}

TEST_F(BackupTest, ImageNotOnPerPageChain) {
  // Taking an image must not perturb the per-page chain: the record's
  // page_prev_lsn is informational and PageLSN does not advance.
  std::string img = MakePage(2, 'm', 55);
  auto lsn = mgr_.LogPageImage(2, img.data());
  ASSERT_TRUE(lsn.ok());
  auto rec = log_.Read(*lsn);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->page_id, 2u);
  EXPECT_EQ(rec->page_prev_lsn, kInvalidLsn);
}

TEST_F(BackupTest, BackupLsnCoversSubsequentLog) {
  LogRecord rec;
  rec.type = LogRecordType::kBeginTxn;
  rec.txn_id = 1;
  log_.Append(&rec);
  auto info = mgr_.TakeFullBackup(kInvalidLsn, AllPages(kDataPages));
  ASSERT_TRUE(info.ok());
  // Everything appended before the backup is durable and before backup_lsn.
  EXPECT_GE(info->backup_lsn, rec.lsn + rec.length);
}

TEST_F(BackupTest, ExplicitBackupLsnIsRecorded) {
  // A caller with a write-back cache above the data device captures the
  // backup LSN BEFORE flushing the cache and passes it in (a commit landing
  // between the flush and a later capture would sit below the backup LSN
  // yet inside neither the image nor the replay range — a lost update).
  // The manager must record the passed LSN verbatim, not the durable LSN
  // at copy time.
  for (PageId p = 0; p < kDataPages; ++p) {
    std::string img = MakePage(p, 'x', 5);
    ASSERT_TRUE(data_.WritePage(p, img.data()).ok());
  }
  LogRecord rec;
  rec.type = LogRecordType::kBeginTxn;
  rec.txn_id = 1;
  Lsn before = log_.Append(&rec);
  rec.txn_id = 2;
  log_.Append(&rec);  // durable LSN moves past `before`

  auto info =
      mgr_.TakeFullBackup(/*backup_lsn=*/before, AllPages(kDataPages));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->backup_lsn, before);

  // Without an explicit LSN the manager captures the durable LSN itself.
  auto info2 = mgr_.TakeFullBackup(kInvalidLsn, AllPages(kDataPages));
  ASSERT_TRUE(info2.ok());
  EXPECT_GT(info2->backup_lsn, before);
}

TEST_F(BackupTest, VerificationHooksHealBeforeCopyOrAbort) {
  // Regression (chaos harness, seed 5): with verification hooks installed,
  // a page that fails in-page verification is routed through repair and
  // re-read — never copied as garbage over the only backup of that page —
  // and a page that stays bad aborts the backup without publishing it.
  for (PageId p = 0; p < kDataPages; ++p) {
    std::string img = MakePage(p, static_cast<char>('a' + p % 26), 9);
    ASSERT_TRUE(data_.WritePage(p, img.data()).ok());
  }
  data_.InjectSilentCorruption(9);

  int repairs = 0;
  mgr_.SetFullBackupVerification(
      [](PageId) { return true; },
      [&](PageId p) {
        repairs++;
        std::string good = MakePage(p, 'g', 9);
        return data_.WritePage(p, good.data());
      });
  auto info = mgr_.TakeFullBackup(kInvalidLsn, AllPages(kDataPages));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(repairs, 1);
  std::string out(kPS, '\0');
  ASSERT_TRUE(mgr_.ReadFromFullBackup(info->id, 9, out.data()).ok());
  EXPECT_TRUE(PageView(out.data(), kPS).Verify(9).ok());

  // A "repair" that fixes nothing: the backup must abort and the catalog
  // must keep pointing at the last good backup.
  data_.InjectSilentCorruption(20);
  mgr_.SetFullBackupVerification([](PageId) { return true; },
                                 [](PageId) { return Status::OK(); });
  EXPECT_FALSE(mgr_.TakeFullBackup(kInvalidLsn, AllPages(kDataPages)).ok());
  auto latest = mgr_.latest_full_backup();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, info->id);
}

}  // namespace
}  // namespace spf
