// Unit tests for the core's supporting structures: the R-stream Queue
// container and the speculative data-memory overlay.
#include <gtest/gtest.h>

#include "core/rstream.h"
#include "core/spec_overlay.h"

namespace reese::core {
namespace {

// --- RStreamQueue ----------------------------------------------------------

TEST(RStreamQueue, FifoOrder) {
  RStreamQueue queue(4);
  for (u64 i = 0; i < 3; ++i) queue.push_slot().seq = 100 + i;
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.front().seq, 100u);
  queue.pop_front();
  EXPECT_EQ(queue.front().seq, 101u);
}

TEST(RStreamQueue, FullAndEmpty) {
  RStreamQueue queue(2);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.full());
  REntry& first = queue.push_slot();
  first.issued = true;
  first.fault.active = true;
  queue.push_slot();
  EXPECT_TRUE(queue.full());
  EXPECT_EQ(queue.capacity(), 2u);
  queue.pop_front();
  EXPECT_FALSE(queue.full());
  // The ring reuses the popped slot with its progress and fault flags reset.
  const REntry& recycled = queue.push_slot();
  EXPECT_EQ(&recycled, &first);
  EXPECT_FALSE(recycled.issued);
  EXPECT_FALSE(recycled.fault.active);
  EXPECT_TRUE(recycled.needs_reexec);
}

TEST(RStreamQueue, StableIdsSurvivePops) {
  RStreamQueue queue(8);
  const u64 id_a = queue.push_slot().id;
  const u64 id_b = queue.push_slot().id;
  const u64 id_c = queue.push_slot().id;
  EXPECT_LT(id_a, id_b);
  queue.by_id(id_b).p_result = 42;
  queue.pop_front();  // remove a
  EXPECT_EQ(queue.by_id(id_b).p_result, 42u);
  EXPECT_EQ(queue.by_id(id_c).p_result, 0u);
}

TEST(RStreamQueue, IndexAccessIsProgramOrder) {
  RStreamQueue queue(8);
  for (u64 i = 0; i < 5; ++i) queue.push_slot().seq = i;
  queue.pop_front();
  for (usize i = 0; i < queue.size(); ++i) {
    EXPECT_EQ(queue.at(i).seq, i + 1);
  }
}

// --- SpecOverlay -------------------------------------------------------------

TEST(SpecOverlay, ReadsThroughToBacking) {
  mem::MainMemory memory;
  memory.store(0x1000, 8, 0xABCD);
  SpecOverlay overlay(&memory);
  EXPECT_EQ(overlay.load(0x1000, 8), 0xABCDu);
}

TEST(SpecOverlay, WritesStayInOverlay) {
  mem::MainMemory memory;
  memory.store(0x1000, 8, 1);
  SpecOverlay overlay(&memory);
  overlay.store(0x1000, 8, 999);
  EXPECT_EQ(overlay.load(0x1000, 8), 999u);
  EXPECT_EQ(memory.load(0x1000, 8), 1u) << "backing must stay clean";
}

TEST(SpecOverlay, PartialOverlapMerges) {
  mem::MainMemory memory;
  memory.store(0x1000, 8, 0x1111111111111111ULL);
  SpecOverlay overlay(&memory);
  overlay.store(0x1002, 2, 0xABCD);  // overwrite bytes 2..3 only
  EXPECT_EQ(overlay.load(0x1000, 8), 0x11111111ABCD1111ULL);
}

TEST(SpecOverlay, ClearDiscardsEverything) {
  mem::MainMemory memory;
  SpecOverlay overlay(&memory);
  overlay.store(0x2000, 8, 7);
  EXPECT_EQ(overlay.dirty_bytes(), 8u);
  overlay.clear();
  EXPECT_EQ(overlay.dirty_bytes(), 0u);
  EXPECT_EQ(overlay.load(0x2000, 8), 0u);
}

TEST(SpecOverlay, ByteGranularity) {
  mem::MainMemory memory;
  SpecOverlay overlay(&memory);
  overlay.store(0x3000, 1, 0xAA);
  overlay.store(0x3007, 1, 0xBB);
  EXPECT_EQ(overlay.load(0x3000, 8), 0xBB000000000000AAULL);
}

}  // namespace
}  // namespace reese::core
