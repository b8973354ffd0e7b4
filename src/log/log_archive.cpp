#include "log/log_archive.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <queue>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"

namespace spf {

namespace {

constexpr char kDirectoryMagic[8] = {'S', 'P', 'F', 'A', 'R', 'C', 'H', 'V'};
constexpr char kRunMagic[8] = {'S', 'P', 'F', 'A', 'R', 'U', 'N', '1'};

// Directory page: magic, epoch, archived_upto, next_seq, run_count,
// run_count * {start_page u64, data_pages u32}, crc32c of everything before.
constexpr size_t kDirectoryFixedBytes = 8 + 8 + 8 + 8 + 4;
constexpr size_t kDirectoryRunBytes = 8 + 4;

// Run header page: magic, seq, level, data_pages, data_bytes, record_count,
// min/max page id, min/max lsn, log_start, log_end, data_crc, fence_count,
// fence_count * {page_id u64, lsn u64, offset u64}, crc32c of everything
// before.
constexpr size_t kRunHeaderFixedBytes =
    8 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kFenceBytes = 8 + 8 + 8;

// Per-entry framing within a run's data stream: [u64 lsn][u32 payload len].
constexpr uint64_t kEntryFrameBytes = 12;

// Byte offset of page_id within LogRecord::Serialize() output (length, crc,
// type, flags, pad, txn_id, prev_lsn precede it); lets the raw-entry walk
// partition by page without paying a full parse + CRC per skipped entry.
constexpr size_t kPayloadPageIdOffset = 4 + 4 + 1 + 1 + 2 + 8 + 8;
static_assert(kPayloadPageIdOffset + 8 <= kLogRecordHeaderSize,
              "page_id must sit inside the fixed record header");

bool EntryBefore(PageId a_page, Lsn a_lsn, PageId b_page, Lsn b_lsn) {
  return a_page != b_page ? a_page < b_page : a_lsn < b_lsn;
}

}  // namespace

LogArchiver::LogArchiver(SimDevice* archive_device, LogManager* log,
                         ArchiverOptions options)
    : device_(archive_device), log_(log), options_(options) {
  SPF_CHECK_GE(options_.merge_fanin, 2u) << "merge fan-in below 2";
  SPF_CHECK_GT(device_->num_pages(), kDirectoryPages + 2)
      << "archive volume too small for a directory and one run";
}

LogArchiver::~LogArchiver() { Stop(); }

uint64_t LogArchiver::max_fences() const {
  return (device_->page_size() - kRunHeaderFixedBytes - 4) / kFenceBytes;
}

// --- Directory ------------------------------------------------------------

std::string LogArchiver::EncodeDirectoryLocked() const {
  std::string buf;
  buf.append(kDirectoryMagic, 8);
  PutFixed64(&buf, epoch_);
  PutFixed64(&buf, archived_upto_);
  PutFixed64(&buf, next_seq_);
  PutFixed32(&buf, static_cast<uint32_t>(runs_.size()));
  for (const Run& r : runs_) {
    PutFixed64(&buf, r.info.start_page);
    PutFixed32(&buf, r.info.data_pages);
  }
  PutFixed32(&buf, crc32c::Value(buf.data(), buf.size()));
  return buf;
}

Status LogArchiver::PublishDirectoryLocked() {
  epoch_++;
  std::string buf = EncodeDirectoryLocked();
  if (buf.size() > device_->page_size()) {
    epoch_--;
    return Status::IOError("archive directory full (too many runs)");
  }
  buf.resize(device_->page_size(), '\0');
  return device_->WritePage(epoch_ % kDirectoryPages, buf.data());
}

Status LogArchiver::LoadRunHeader(uint64_t start_page, Run* run) const {
  const uint32_t ps = device_->page_size();
  std::string buf(ps, '\0');
  SPF_RETURN_IF_ERROR(
      device_->ReadPage(static_cast<PageId>(start_page), buf.data()));
  if (std::memcmp(buf.data(), kRunMagic, 8) != 0) {
    return Status::Corruption("archive run header magic mismatch");
  }
  std::string_view sv(buf);
  size_t off = 8;
  ArchiveRunInfo& info = run->info;
  info.start_page = start_page;
  uint32_t fence_count = 0;
  if (!GetFixed64(sv, &off, &info.seq) || !GetFixed32(sv, &off, &info.level) ||
      !GetFixed32(sv, &off, &info.data_pages) ||
      !GetFixed64(sv, &off, &info.data_bytes) ||
      !GetFixed64(sv, &off, &info.record_count) ||
      !GetFixed64(sv, &off, &info.min_page_id) ||
      !GetFixed64(sv, &off, &info.max_page_id) ||
      !GetFixed64(sv, &off, &info.min_lsn) ||
      !GetFixed64(sv, &off, &info.max_lsn) ||
      !GetFixed64(sv, &off, &info.log_start) ||
      !GetFixed64(sv, &off, &info.log_end)) {
    return Status::Corruption("archive run header truncated");
  }
  uint32_t data_crc = 0;
  if (!GetFixed32(sv, &off, &data_crc) || !GetFixed32(sv, &off, &fence_count)) {
    return Status::Corruption("archive run header truncated");
  }
  (void)data_crc;  // verified lazily by the offline fsck, not on load
  run->fences.clear();
  run->fences.reserve(fence_count);
  for (uint32_t i = 0; i < fence_count; ++i) {
    Fence f;
    if (!GetFixed64(sv, &off, &f.page_id) || !GetFixed64(sv, &off, &f.lsn) ||
        !GetFixed64(sv, &off, &f.offset)) {
      return Status::Corruption("archive run fence list truncated");
    }
    run->fences.push_back(f);
  }
  uint32_t stored_crc = 0;
  size_t crc_off = off;
  if (!GetFixed32(sv, &off, &stored_crc) ||
      stored_crc != crc32c::Value(buf.data(), crc_off)) {
    return Status::Corruption("archive run header checksum mismatch");
  }
  if (start_page + 1 + info.data_pages > device_->num_pages()) {
    return Status::Corruption("archive run extent past end of volume");
  }
  return Status::OK();
}

Status LogArchiver::Recover() {
  MutexLock tick(tick_mu_);
  WriterLock io(io_mu_);
  const uint32_t ps = device_->page_size();
  std::string best;
  uint64_t best_epoch = 0;
  bool any_magic = false;
  for (uint64_t p = 0; p < kDirectoryPages; ++p) {
    std::string buf(ps, '\0');
    SPF_RETURN_IF_ERROR(device_->ReadPage(static_cast<PageId>(p), buf.data()));
    if (std::memcmp(buf.data(), kDirectoryMagic, 8) != 0) continue;
    any_magic = true;
    size_t off = 8;
    uint64_t epoch = 0, upto = 0, next_seq = 0;
    uint32_t count = 0;
    std::string_view sv(buf);
    if (!GetFixed64(sv, &off, &epoch) || !GetFixed64(sv, &off, &upto) ||
        !GetFixed64(sv, &off, &next_seq) || !GetFixed32(sv, &off, &count)) {
      continue;
    }
    size_t end = kDirectoryFixedBytes + count * kDirectoryRunBytes;
    if (end + 4 > ps) continue;
    uint32_t stored = DecodeFixed32(buf.data() + end);
    if (stored != crc32c::Value(buf.data(), end)) continue;
    if (epoch >= best_epoch) {
      best_epoch = epoch;
      best = buf;
    }
  }
  if (best.empty()) {
    if (any_magic) {
      return Status::Corruption("archive directory unreadable in both epochs");
    }
    // Fresh volume: empty archive.
    MutexLock g(mu_);
    runs_.clear();
    archived_upto_ = 0;
    epoch_ = 0;
    next_seq_ = 1;
    return Status::OK();
  }
  std::string_view sv(best);
  size_t off = 8;
  uint64_t epoch = 0, upto = 0, next_seq = 0;
  uint32_t count = 0;
  GetFixed64(sv, &off, &epoch);
  GetFixed64(sv, &off, &upto);
  GetFixed64(sv, &off, &next_seq);
  GetFixed32(sv, &off, &count);
  std::vector<Run> runs(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t start_page = 0;
    uint32_t data_pages = 0;
    GetFixed64(sv, &off, &start_page);
    GetFixed32(sv, &off, &data_pages);
    SPF_RETURN_IF_ERROR(LoadRunHeader(start_page, &runs[i]));
    if (runs[i].info.data_pages != data_pages) {
      return Status::Corruption("archive directory/run extent size mismatch");
    }
  }
  MutexLock g(mu_);
  runs_ = std::move(runs);
  archived_upto_ = upto;
  epoch_ = epoch;
  next_seq_ = next_seq;
  return Status::OK();
}

// --- Run writing ----------------------------------------------------------

StatusOr<uint64_t> LogArchiver::AllocateExtentLocked(uint64_t pages) const {
  std::vector<std::pair<uint64_t, uint64_t>> used;  // {start, length}
  used.reserve(runs_.size());
  for (const Run& r : runs_) {
    used.emplace_back(r.info.start_page, 1 + r.info.data_pages);
  }
  std::sort(used.begin(), used.end());
  uint64_t cursor = kDirectoryPages;
  for (const auto& [start, len] : used) {
    if (start >= cursor + pages) break;  // gap fits
    cursor = std::max(cursor, start + len);
  }
  if (cursor + pages > device_->num_pages()) {
    return Status::IOError("archive volume full");
  }
  return cursor;
}

Status LogArchiver::WriteRun(std::vector<Entry>* entries, uint32_t level,
                             Lsn log_start, Lsn log_end, Run* out) {
  const uint32_t ps = device_->page_size();
  ArchiveRunInfo& info = out->info;
  info.level = level;
  info.log_start = log_start;
  info.log_end = log_end;
  info.record_count = entries->size();

  // Flatten the sorted entries into the data stream, fencing every
  // `stride` entries so a positioned read lands at most stride entries
  // before its page of interest.
  std::string stream;
  out->fences.clear();
  const uint64_t total = entries->size();
  const uint64_t stride =
      total == 0 ? 1 : (total + max_fences() - 1) / max_fences();
  for (uint64_t i = 0; i < total; ++i) {
    Entry& e = (*entries)[i];
    if (i > 0) {
      const Entry& prev = (*entries)[i - 1];
      SPF_CHECK(EntryBefore(prev.page_id, prev.lsn, e.page_id, e.lsn))
          << "archive run entries out of order";
    }
    if (i % stride == 0) {
      out->fences.push_back(Fence{e.page_id, e.lsn, stream.size()});
    }
    PutFixed64(&stream, e.lsn);
    PutFixed32(&stream, static_cast<uint32_t>(e.payload.size()));
    stream.append(e.payload);
  }
  info.data_bytes = stream.size();
  info.data_pages = static_cast<uint32_t>((stream.size() + ps - 1) / ps);
  if (total > 0) {
    info.min_page_id = entries->front().page_id;
    info.max_page_id = entries->back().page_id;
    auto [lo, hi] = std::minmax_element(
        entries->begin(), entries->end(),
        [](const Entry& a, const Entry& b) { return a.lsn < b.lsn; });
    info.min_lsn = lo->lsn;
    info.max_lsn = hi->lsn;
  } else {
    info.min_page_id = info.max_page_id = kInvalidPageId;
    info.min_lsn = info.max_lsn = kInvalidLsn;
  }

  uint64_t start_page;
  {
    MutexLock g(mu_);
    SPF_ASSIGN_OR_RETURN(start_page,
                         AllocateExtentLocked(1 + info.data_pages));
    info.seq = next_seq_++;
  }
  info.start_page = start_page;

  // Data pages first, header last (the directory publish that makes the
  // run reachable happens after WriteRun returns).
  std::string page(ps, '\0');
  for (uint32_t p = 0; p < info.data_pages; ++p) {
    const uint64_t off = static_cast<uint64_t>(p) * ps;
    const uint64_t n = std::min<uint64_t>(ps, stream.size() - off);
    std::memcpy(page.data(), stream.data() + off, n);
    std::memset(page.data() + n, 0, ps - n);
    SPF_RETURN_IF_ERROR(device_->WritePage(
        static_cast<PageId>(start_page + 1 + p), page.data()));
  }

  std::string hdr;
  hdr.append(kRunMagic, 8);
  PutFixed64(&hdr, info.seq);
  PutFixed32(&hdr, info.level);
  PutFixed32(&hdr, info.data_pages);
  PutFixed64(&hdr, info.data_bytes);
  PutFixed64(&hdr, info.record_count);
  PutFixed64(&hdr, info.min_page_id);
  PutFixed64(&hdr, info.max_page_id);
  PutFixed64(&hdr, info.min_lsn);
  PutFixed64(&hdr, info.max_lsn);
  PutFixed64(&hdr, info.log_start);
  PutFixed64(&hdr, info.log_end);
  PutFixed32(&hdr, crc32c::Value(stream.data(), stream.size()));
  PutFixed32(&hdr, static_cast<uint32_t>(out->fences.size()));
  for (const Fence& f : out->fences) {
    PutFixed64(&hdr, f.page_id);
    PutFixed64(&hdr, f.lsn);
    PutFixed64(&hdr, f.offset);
  }
  PutFixed32(&hdr, crc32c::Value(hdr.data(), hdr.size()));
  SPF_CHECK_LE(hdr.size(), ps) << "archive run header overflows its page";
  hdr.resize(ps, '\0');
  return device_->WritePage(static_cast<PageId>(start_page), hdr.data());
}

// --- Run reading ----------------------------------------------------------

// Forward cursor over one run's entry stream. Data pages load on demand
// and are dropped once the cursor has passed them. A forward move reads
// through the pages it skips when that costs less than repositioning the
// archive device (gap * transfer < random access, the break-even rule of
// BackupManager::ReadPagesFromFullBackup), so a pass over many nearby
// positions stays one sequential stream. io_mu_ must be held.
class LogArchiver::RunScanner {
 public:
  struct RawEntry {
    PageId page_id = kInvalidPageId;
    Lsn lsn = kInvalidLsn;
    std::string_view payload;  ///< valid until the next Peek
  };

  RunScanner(SimDevice* device, const Run& run)
      : device_(device), run_(run), ps_(device->page_size()) {}

  uint64_t pages_read() const { return pages_read_; }

  /// Moves to entry boundary `offset`; a no-op when the cursor is already
  /// there or past it (the pass then continues from where it is).
  void SkipTo(uint64_t offset) {
    if (offset <= pos_) return;
    const uint64_t page = offset / ps_;
    if (page >= loaded_) {
      const DeviceProfile& dev = device_->profile();
      const bool bridge = loaded_ > first_ &&
                          (page - loaded_) * dev.TransferNanos(ps_) <
                              dev.random_access_ns;
      if (!bridge) {
        buf_.clear();
        first_ = loaded_ = page;
      }
    }
    pos_ = next_ = offset;
  }

  /// Decodes the entry at the cursor without consuming it. The page id
  /// comes from the payload's fixed header, without a full (CRC-checked)
  /// parse. Returns false at the end of the run.
  StatusOr<bool> Peek(RawEntry* e) {
    if (pos_ >= run_.info.data_bytes) return false;
    SPF_RETURN_IF_ERROR(Load(pos_ + kEntryFrameBytes));
    const uint32_t len = DecodeFixed32(At(pos_) + 8);
    if (len < kLogRecordHeaderSize ||
        pos_ + kEntryFrameBytes + len > run_.info.data_bytes) {
      return Status::Corruption("archive entry overruns its run");
    }
    SPF_RETURN_IF_ERROR(Load(pos_ + kEntryFrameBytes + len));
    e->lsn = DecodeFixed64(At(pos_));
    e->payload = std::string_view(At(pos_) + kEntryFrameBytes, len);
    e->page_id = DecodeFixed64(e->payload.data() + kPayloadPageIdOffset);
    next_ = pos_ + kEntryFrameBytes + len;
    return true;
  }

  /// Consumes the entry the last Peek returned.
  void Advance() { pos_ = next_; }

  /// Moves forward to the last fence at or before (lo, min_lsn_exclusive),
  /// then emits the entries of pages in [lo, hi] with lsn in
  /// (min_lsn_exclusive, max_lsn_inclusive), parsed, and stops at the
  /// first entry past (hi, max_lsn_inclusive) without consuming it.
  Status ScanPages(PageId lo, PageId hi, Lsn min_lsn_exclusive,
                   Lsn max_lsn_inclusive,
                   const std::function<void(LogRecord&&)>& emit) {
    // The first fence sits at offset 0, so one always qualifies.
    auto fence = std::upper_bound(
        run_.fences.begin(), run_.fences.end(),
        std::make_pair(lo, min_lsn_exclusive),
        [](const std::pair<PageId, Lsn>& key, const Fence& f) {
          return EntryBefore(key.first, key.second, f.page_id, f.lsn);
        });
    SkipTo(fence == run_.fences.begin() ? 0 : std::prev(fence)->offset);
    RawEntry e;
    for (;;) {
      SPF_ASSIGN_OR_RETURN(bool more, Peek(&e));
      if (!more || e.page_id > hi ||
          (e.page_id == hi && e.lsn > max_lsn_inclusive)) {
        return Status::OK();
      }
      if (e.page_id >= lo && e.lsn > min_lsn_exclusive &&
          e.lsn <= max_lsn_inclusive) {
        SPF_ASSIGN_OR_RETURN(LogRecord rec, ParseLogRecord(e.payload));
        rec.lsn = e.lsn;
        emit(std::move(rec));
      }
      Advance();
    }
  }

 private:
  const char* At(uint64_t offset) const {
    return buf_.data() + (offset - first_ * ps_);
  }

  // Makes the stream bytes below `stream_end` resident, reading the data
  // pages in order from the first one not yet loaded.
  Status Load(uint64_t stream_end) {
    const uint64_t keep = std::min(pos_ / ps_, loaded_);
    if (keep > first_) {
      buf_.erase(0, (keep - first_) * ps_);
      first_ = keep;
    }
    while (loaded_ * ps_ < stream_end) {
      if (loaded_ >= run_.info.data_pages) {
        return Status::Corruption("archive run data truncated");
      }
      const size_t at = buf_.size();
      buf_.resize(at + ps_);
      SPF_RETURN_IF_ERROR(device_->ReadPage(
          static_cast<PageId>(run_.info.start_page + 1 + loaded_),
          buf_.data() + at));
      ++loaded_;
      ++pages_read_;
    }
    return Status::OK();
  }

  SimDevice* const device_;
  const Run& run_;
  const uint64_t ps_;
  std::string buf_;      ///< data pages [first_, loaded_)
  uint64_t first_ = 0;   ///< index of buf_'s first data page
  uint64_t loaded_ = 0;  ///< one past the last data page read
  uint64_t pos_ = 0;     ///< stream offset of the current entry
  uint64_t next_ = 0;    ///< stream offset after the peeked entry
  uint64_t pages_read_ = 0;
};

std::vector<const LogArchiver::Run*> LogArchiver::RunsByLogStart() const {
  std::vector<const Run*> out;
  {
    // runs_ only mutates under the io_mu_ writer, so the caller's io_mu_
    // keeps these pointers valid after mu_ is released.
    MutexLock g(mu_);
    out.reserve(runs_.size());
    for (const Run& r : runs_) out.push_back(&r);
  }
  std::sort(out.begin(), out.end(), [](const Run* a, const Run* b) {
    return a->info.log_start < b->info.log_start;
  });
  return out;
}

StatusOr<uint64_t> LogArchiver::FetchChains(
    const std::vector<ChainRequest>& requests, std::vector<ChainFetch>* out) {
  std::vector<PageId> ids;
  for (const ChainRequest& q : requests) ids.push_back(q.page_id);
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::InvalidArgument("FetchChains: page id repeats");
  }
  out->assign(requests.size(), ChainFetch{});
  ReaderLock io(io_mu_);
  const std::vector<const Run*> runs = RunsByLogStart();
  // The run whose log interval holds `lsn`, or runs.size() if none does.
  auto run_of = [&](Lsn lsn) {
    auto it = std::upper_bound(
        runs.begin(), runs.end(), lsn,
        [](Lsn l, const Run* r) { return l < r->info.log_start; });
    if (it == runs.begin() || lsn >= (*std::prev(it))->info.log_end) {
      return runs.size();
    }
    return static_cast<size_t>(std::prev(it) - runs.begin());
  };
  auto fail = [&](size_t i, Status s) {
    (*out)[i].status = std::move(s);
    (*out)[i].newest_first.clear();
  };

  // waiting[r]: requests whose cursor lies in run r. Cursors only move
  // to older runs, so one newest-first sweep visits each run once.
  std::vector<Lsn> cursor(requests.size(), kInvalidLsn);
  std::vector<std::vector<size_t>> waiting(runs.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const ChainRequest& q = requests[i];
    if (q.newest == kInvalidLsn || q.newest <= q.floor) continue;
    const size_t r = run_of(q.newest);
    if (r == runs.size()) {
      fail(i, Status::Corruption(
                  "archived per-page chain is missing its newest record"));
      continue;
    }
    cursor[i] = q.newest;
    waiting[r].push_back(i);
  }

  uint64_t pages = 0;
  for (size_t r = runs.size(); r-- > 0;) {
    std::vector<size_t>& wanted = waiting[r];
    if (wanted.empty()) continue;
    std::sort(wanted.begin(), wanted.end(), [&](size_t a, size_t b) {
      return requests[a].page_id < requests[b].page_id;
    });
    RunScanner scan(device_, *runs[r]);
    Status read = Status::OK();
    for (size_t i : wanted) {
      const ChainRequest& q = requests[i];
      std::vector<LogRecord> recs;  // ascending by LSN
      if (read.ok()) {
        read = scan.ScanPages(
            q.page_id, q.page_id, q.floor, cursor[i],
            [&](LogRecord&& rec) { recs.push_back(std::move(rec)); });
      }
      if (!read.ok()) {
        fail(i, read);
        continue;
      }
      // Every record of the page in (floor, cursor] inside this run is on
      // the chain; it must end exactly at the cursor.
      if (recs.empty() || recs.back().lsn != cursor[i]) {
        fail(i, Status::Corruption(
                    cursor[i] == q.newest
                        ? "archived per-page chain is missing its newest record"
                        : "per-page chain contains foreign record"));
        continue;
      }
      const Lsn prev = recs.front().page_prev_lsn;
      std::vector<LogRecord>& chain = (*out)[i].newest_first;
      for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
        chain.push_back(std::move(*it));
      }
      if (prev == kInvalidLsn || prev == q.floor) continue;  // complete
      if (prev < q.floor) {
        fail(i, Status::Corruption("per-page chain does not reach the backup"));
        continue;
      }
      // The pointer must leave this run: every record of the page in it
      // down to the floor was just collected.
      const size_t next = run_of(prev);
      if (next >= r) {
        fail(i, Status::Corruption("per-page chain contains foreign record"));
        continue;
      }
      cursor[i] = prev;
      waiting[next].push_back(i);
    }
    pages += scan.pages_read();
  }
  MutexLock g(mu_);
  stats_.merge_reads += pages;
  return pages;
}

StatusOr<uint64_t> LogArchiver::FetchRange(
    PageId lo, PageId hi, Lsn min_lsn_exclusive,
    const std::function<void(LogRecord&&)>& emit) {
  ReaderLock io(io_mu_);
  // Disjoint log intervals: log order == LSN order across runs, so
  // emitting run by run keeps each page's records ascending.
  uint64_t pages = 0;
  for (const Run* r : RunsByLogStart()) {
    if (r->info.record_count == 0) continue;
    if (r->info.min_page_id > hi || r->info.max_page_id < lo) continue;
    if (r->info.max_lsn <= min_lsn_exclusive) continue;
    RunScanner scan(device_, *r);
    SPF_RETURN_IF_ERROR(scan.ScanPages(lo, hi, min_lsn_exclusive,
                                       std::numeric_limits<Lsn>::max(), emit));
    pages += scan.pages_read();
  }
  MutexLock g(mu_);
  stats_.merge_reads += pages;
  return pages;
}

// --- Draining and merging -------------------------------------------------

StatusOr<bool> LogArchiver::ArchiveTick() {
  MutexLock tick(tick_mu_);
  {
    MutexLock g(mu_);
    stats_.ticks++;
  }
  if (paused_ && paused_()) {
    MutexLock g(mu_);
    stats_.restore_skips++;
    return false;
  }
  Lsn from;
  {
    MutexLock g(mu_);
    from = archived_upto_;
  }
  from = std::max(from, log_->first_lsn());
  const Lsn durable = log_->durable_lsn();
  if (from >= durable) return false;

  // Scan the durable tail once, keeping only per-page-chain records.
  std::vector<Entry> entries;
  uint64_t payload_bytes = 0;
  Lsn end = from;
  for (auto it = log_->Scan(from, durable); it.Valid(); it.Next()) {
    const LogRecord& rec = it.record();
    end = rec.lsn + rec.length;
    if (IsPageReplayRecord(rec.type) && rec.page_id != kInvalidPageId) {
      Entry e;
      e.page_id = rec.page_id;
      e.lsn = rec.lsn;
      e.payload = rec.Serialize();
      payload_bytes += kEntryFrameBytes + e.payload.size();
      entries.push_back(std::move(e));
    }
    if (payload_bytes >= options_.run_bytes) break;
  }
  if (end == from) {
    // A corrupt/torn record below durable would end the scan immediately;
    // the log device guarantees durable bytes, so treat it as corruption
    // rather than spinning forever at the same watermark.
    return Status::Corruption("archiver cannot read the durable log tail");
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return EntryBefore(a.page_id, a.lsn, b.page_id, b.lsn);
                   });

  const uint64_t record_count = entries.size();
  {
    WriterLock io(io_mu_);
    Run run;
    SPF_RETURN_IF_ERROR(WriteRun(&entries, /*level=*/0, from, end, &run));
    if (fail_next_publish_.exchange(false)) {
      // Simulated crash: the run's extent is written but the directory
      // still points at the previous state, so it is unreachable garbage
      // the next successful run write simply reallocates.
      return Status::IOError("archive: injected crash before publish");
    }
    const uint64_t data_bytes = run.info.data_bytes;
    MutexLock g(mu_);
    runs_.push_back(std::move(run));
    archived_upto_ = end;
    SPF_RETURN_IF_ERROR(PublishDirectoryLocked());
    stats_.runs_written++;
    stats_.archived_bytes += data_bytes;
    stats_.records_archived += record_count;
    stats_.tail_scan_bytes += end - from;
  }
  SPF_RETURN_IF_ERROR(MergeLadderLocked());
  AdvanceLogWatermark();
  return true;
}

Status LogArchiver::MergeLadderLocked() {
  for (;;) {
    // Pick the lowest level holding at least merge_fanin runs and its
    // oldest merge_fanin runs by log range. Oldest-prefix merging keeps
    // every level's runs (and the merged output) log-contiguous, which is
    // what preserves the global tiling invariant.
    std::vector<Run> inputs;
    uint32_t level = 0;
    {
      MutexLock g(mu_);
      uint32_t max_level = 0;
      for (const Run& r : runs_) max_level = std::max(max_level, r.info.level);
      bool found = false;
      for (uint32_t l = 0; l <= max_level && !found; ++l) {
        std::vector<const Run*> at;
        for (const Run& r : runs_) {
          if (r.info.level == l) at.push_back(&r);
        }
        if (at.size() >= options_.merge_fanin) {
          std::sort(at.begin(), at.end(), [](const Run* a, const Run* b) {
            return a->info.log_start < b->info.log_start;
          });
          at.resize(options_.merge_fanin);
          for (const Run* r : at) inputs.push_back(*r);
          level = l;
          found = true;
        }
      }
      if (!found) return Status::OK();
    }

    // Load each input's (sorted) entries, then k-way merge by (page, LSN).
    std::vector<std::vector<Entry>> per_input(inputs.size());
    uint64_t pages = 0;
    uint64_t total = 0;
    {
      ReaderLock io(io_mu_);
      for (size_t i = 0; i < inputs.size(); ++i) {
        per_input[i].reserve(inputs[i].info.record_count);
        RunScanner scan(device_, inputs[i]);
        RunScanner::RawEntry e;
        for (;;) {
          SPF_ASSIGN_OR_RETURN(bool more, scan.Peek(&e));
          if (!more) break;
          per_input[i].push_back(
              Entry{e.page_id, e.lsn, std::string(e.payload)});
          scan.Advance();
        }
        pages += scan.pages_read();
        total += per_input[i].size();
      }
    }
    std::vector<Entry> merged;
    merged.reserve(total);
    using Cursor = std::pair<size_t, size_t>;  // {input index, position}
    auto later = [&](const Cursor& a, const Cursor& b) {
      const Entry& ea = per_input[a.first][a.second];
      const Entry& eb = per_input[b.first][b.second];
      return EntryBefore(eb.page_id, eb.lsn, ea.page_id, ea.lsn);
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(
        later);
    for (size_t i = 0; i < per_input.size(); ++i) {
      if (!per_input[i].empty()) heap.push({i, 0});
    }
    while (!heap.empty()) {
      auto [i, pos] = heap.top();
      heap.pop();
      merged.push_back(std::move(per_input[i][pos]));
      if (pos + 1 < per_input[i].size()) heap.push({i, pos + 1});
    }

    Lsn log_start = inputs.front().info.log_start;
    Lsn log_end = inputs.front().info.log_end;
    for (const Run& r : inputs) {
      log_start = std::min(log_start, r.info.log_start);
      log_end = std::max(log_end, r.info.log_end);
    }

    {
      WriterLock io(io_mu_);
      Run out;
      Status s = WriteRun(&merged, level + 1, log_start, log_end, &out);
      if (s.IsIOError()) return Status::OK();  // volume full: skip merging
      SPF_RETURN_IF_ERROR(s);
      MutexLock g(mu_);
      for (const Run& in : inputs) {
        runs_.erase(std::remove_if(runs_.begin(), runs_.end(),
                                   [&](const Run& r) {
                                     return r.info.seq == in.info.seq;
                                   }),
                    runs_.end());
      }
      runs_.push_back(std::move(out));
      SPF_RETURN_IF_ERROR(PublishDirectoryLocked());
      stats_.merges++;
      stats_.runs_merged += inputs.size();
      stats_.merge_reads += pages;
    }
  }
}

Status LogArchiver::ArchiveAll() {
  for (;;) {
    if (paused_ && paused_()) return Status::OK();
    SPF_ASSIGN_OR_RETURN(bool advanced, ArchiveTick());
    if (!advanced) return Status::OK();
  }
}

// --- Watermarks, stats, background loop -----------------------------------

void LogArchiver::AdvanceLogWatermark() {
  const Lsn master = log_->GetMasterRecord();
  const Lsn upto = archived_upto();
  const Lsn watermark = std::min(upto, master);
  if (watermark > 0) log_->AdvanceTruncationWatermark(watermark);
}

Lsn LogArchiver::archived_upto() const {
  MutexLock g(mu_);
  return archived_upto_;
}

ArchiveStats LogArchiver::stats() const {
  const Lsn wm = log_->truncation_watermark();
  const Lsn base = log_->first_lsn();
  MutexLock g(mu_);
  ArchiveStats s = stats_;
  s.archived_upto = archived_upto_;
  s.active_runs = runs_.size();
  s.truncated_log_bytes = wm > base ? wm - base : 0;
  return s;
}

std::vector<ArchiveRunInfo> LogArchiver::runs() const {
  MutexLock g(mu_);
  std::vector<ArchiveRunInfo> out;
  out.reserve(runs_.size());
  for (const Run& r : runs_) out.push_back(r.info);
  std::sort(out.begin(), out.end(),
            [](const ArchiveRunInfo& a, const ArchiveRunInfo& b) {
              return a.log_start < b.log_start;
            });
  return out;
}

void LogArchiver::Start() {
  if (running_.exchange(true)) return;
  stop_.store(false);
  thread_ = std::thread(&LogArchiver::BackgroundLoop, this);
}

void LogArchiver::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void LogArchiver::BackgroundLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto advanced = ArchiveTick();
    // Errors (volume full, injected crash) and empty ticks both back off;
    // the next pass retries from the durable watermark.
    const bool progressed = advanced.ok() && advanced.value();
    uint64_t wait_ms = options_.interval_wall_ms;
    if (!progressed && wait_ms == 0) wait_ms = 1;
    for (uint64_t waited = 0; waited < wait_ms; ++waited) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

}  // namespace spf
