#include "storage/allocation.h"

#include <algorithm>

#include "common/coding.h"

namespace spf {

PageAllocator::PageAllocator(uint64_t num_pages, uint64_t reserved)
    : num_pages_(num_pages), used_(num_pages, false) {
  SPF_CHECK_LE(reserved, num_pages);
  for (uint64_t i = 0; i < reserved; ++i) used_[i] = true;
  allocated_ = reserved;
  next_hint_ = reserved;
}

StatusOr<PageId> PageAllocator::Allocate() {
  MutexLock g(mu_);
  for (uint64_t probe = 0; probe < num_pages_; ++probe) {
    uint64_t id = (next_hint_ + probe) % num_pages_;
    if (!used_[id]) {
      used_[id] = true;
      allocated_++;
      next_hint_ = id + 1;
      return PageId{id};
    }
  }
  return Status::IOError("device full: no free pages");
}

void PageAllocator::Free(PageId id) {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  SPF_CHECK(used_[id]) << "double free of page " << id;
  used_[id] = false;
  allocated_--;
}

void PageAllocator::MarkAllocated(PageId id) {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  if (!used_[id]) {
    used_[id] = true;
    allocated_++;
  }
}

void PageAllocator::MarkFree(PageId id) {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  if (used_[id]) {
    used_[id] = false;
    allocated_--;
  }
}

bool PageAllocator::IsAllocated(PageId id) const {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  return used_[id];
}

uint64_t PageAllocator::allocated_count() const {
  MutexLock g(mu_);
  return allocated_;
}

std::vector<PageId> PageAllocator::AllocatedPages() const {
  MutexLock g(mu_);
  std::vector<PageId> pages;
  pages.reserve(allocated_);
  for (uint64_t i = 0; i < num_pages_; ++i) {
    if (used_[i]) pages.push_back(i);
  }
  return pages;
}

std::string PageAllocator::Serialize() const {
  MutexLock g(mu_);
  std::string out;
  PutFixed64(&out, num_pages_);
  // Pack the bitmap 8 pages per byte.
  uint64_t nbytes = (num_pages_ + 7) / 8;
  std::string bits(nbytes, '\0');
  for (uint64_t i = 0; i < num_pages_; ++i) {
    if (used_[i]) bits[i / 8] |= static_cast<char>(1u << (i % 8));
  }
  PutLengthPrefixed(&out, bits);
  return out;
}

Status PageAllocator::Deserialize(std::string_view data) {
  MutexLock g(mu_);
  size_t off = 0;
  uint64_t n;
  std::string_view bits;
  if (!GetFixed64(data, &off, &n) || !GetLengthPrefixed(data, &off, &bits)) {
    return Status::Corruption("bad allocator image");
  }
  if (n != num_pages_ || bits.size() != (num_pages_ + 7) / 8) {
    return Status::Corruption("allocator image size mismatch");
  }
  allocated_ = 0;
  for (uint64_t i = 0; i < num_pages_; ++i) {
    bool u = (bits[i / 8] >> (i % 8)) & 1;
    used_[i] = u;
    if (u) allocated_++;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

void BadBlockList::Add(PageId id) {
  MutexLock g(mu_);
  if (std::find(blocks_.begin(), blocks_.end(), id) == blocks_.end()) {
    blocks_.push_back(id);
  }
}

bool BadBlockList::Contains(PageId id) const {
  MutexLock g(mu_);
  return std::find(blocks_.begin(), blocks_.end(), id) != blocks_.end();
}

uint64_t BadBlockList::size() const {
  MutexLock g(mu_);
  return blocks_.size();
}

std::vector<PageId> BadBlockList::All() const {
  MutexLock g(mu_);
  return blocks_;
}

std::string BadBlockList::Serialize() const {
  MutexLock g(mu_);
  std::string out;
  PutFixed64(&out, blocks_.size());
  for (PageId id : blocks_) PutFixed64(&out, id);
  return out;
}

Status BadBlockList::Deserialize(std::string_view data) {
  MutexLock g(mu_);
  size_t off = 0;
  uint64_t n;
  if (!GetFixed64(data, &off, &n)) return Status::Corruption("bad bbl image");
  blocks_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id;
    if (!GetFixed64(data, &off, &id)) return Status::Corruption("bad bbl image");
    blocks_.push_back(id);
  }
  return Status::OK();
}

}  // namespace spf
