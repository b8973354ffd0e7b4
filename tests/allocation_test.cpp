// Unit tests for the page allocator and bad block list.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "storage/allocation.h"

namespace spf {
namespace {

TEST(PageAllocatorTest, ReservedPagesPreallocated) {
  PageAllocator alloc(100, 10);
  EXPECT_EQ(alloc.allocated_count(), 10u);
  for (PageId p = 0; p < 10; ++p) EXPECT_TRUE(alloc.IsAllocated(p));
  EXPECT_FALSE(alloc.IsAllocated(10));
}

TEST(PageAllocatorTest, AllocatesLowestFreeFirst) {
  PageAllocator alloc(100, 4);
  auto p = alloc.Allocate();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, 4u);
}

TEST(PageAllocatorTest, FreeMakesReusable) {
  PageAllocator alloc(8, 1);
  std::set<PageId> got;
  for (int i = 0; i < 7; ++i) {
    auto p = alloc.Allocate();
    ASSERT_TRUE(p.ok());
    got.insert(*p);
  }
  EXPECT_EQ(got.size(), 7u);
  EXPECT_TRUE(alloc.Allocate().status().IsIOError());  // full
  alloc.Free(3);
  auto again = alloc.Allocate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 3u);
}

TEST(PageAllocatorTest, MarkIdempotent) {
  PageAllocator alloc(16, 1);
  alloc.MarkAllocated(5);
  alloc.MarkAllocated(5);
  EXPECT_EQ(alloc.allocated_count(), 2u);
  alloc.MarkFree(5);
  alloc.MarkFree(5);
  EXPECT_EQ(alloc.allocated_count(), 1u);
}

TEST(PageAllocatorTest, AllocatedPagesIsAscendingSnapshot) {
  PageAllocator alloc(100, 3);
  alloc.MarkAllocated(90);
  alloc.MarkAllocated(40);
  alloc.MarkFree(1);
  EXPECT_EQ(alloc.AllocatedPages(), (std::vector<PageId>{0, 2, 40, 90}));
  EXPECT_EQ(alloc.AllocatedPages().size(), alloc.allocated_count());
}

TEST(PageAllocatorTest, SerializeRoundTrip) {
  PageAllocator alloc(333, 7);
  for (int i = 0; i < 50; ++i) SPF_CHECK(alloc.Allocate().ok());
  alloc.Free(20);
  alloc.Free(31);
  std::string image = alloc.Serialize();

  PageAllocator restored(333, 0);
  ASSERT_TRUE(restored.Deserialize(image).ok());
  EXPECT_EQ(restored.allocated_count(), alloc.allocated_count());
  for (PageId p = 0; p < 333; ++p) {
    EXPECT_EQ(restored.IsAllocated(p), alloc.IsAllocated(p)) << p;
  }
}

TEST(PageAllocatorTest, DeserializeRejectsWrongSize) {
  PageAllocator a(100, 1), b(200, 1);
  EXPECT_TRUE(b.Deserialize(a.Serialize()).IsCorruption());
  EXPECT_TRUE(b.Deserialize("garbage").IsCorruption());
}

TEST(PageAllocatorTest, ConcurrentAllocationsAreUnique) {
  PageAllocator alloc(10000, 1);
  std::vector<std::vector<PageId>> per_thread(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&alloc, &per_thread, t] {
      for (int i = 0; i < 1000; ++i) {
        auto p = alloc.Allocate();
        ASSERT_TRUE(p.ok());
        per_thread[t].push_back(*p);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<PageId> all;
  for (auto& v : per_thread) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), 8u * 1000u);
}

TEST(BadBlockListTest, AddContainsDedup) {
  BadBlockList bbl;
  EXPECT_FALSE(bbl.Contains(5));
  bbl.Add(5);
  bbl.Add(5);
  bbl.Add(9);
  EXPECT_TRUE(bbl.Contains(5));
  EXPECT_TRUE(bbl.Contains(9));
  EXPECT_EQ(bbl.size(), 2u);
}

TEST(BadBlockListTest, SerializeRoundTrip) {
  BadBlockList bbl;
  bbl.Add(1);
  bbl.Add(1000000);
  std::string image = bbl.Serialize();
  BadBlockList restored;
  ASSERT_TRUE(restored.Deserialize(image).ok());
  EXPECT_TRUE(restored.Contains(1));
  EXPECT_TRUE(restored.Contains(1000000));
  EXPECT_EQ(restored.size(), 2u);
}

TEST(BadBlockListTest, DeserializeRejectsGarbage) {
  BadBlockList bbl;
  EXPECT_TRUE(bbl.Deserialize("xy").IsCorruption());
}

}  // namespace
}  // namespace spf
