// Tests for the shared fan-out primitive (common/parallel): every slot of a
// WorkerGroup runs once per phase, slot 0 on the calling thread, phases
// reuse the same threads, and an exception thrown on any slot reaches the
// caller after the phase instead of terminating the process.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace caft {
namespace {

TEST(WorkerGroup, RunsEverySlotOncePerPhase) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    WorkerGroup group(n);
    ASSERT_EQ(group.size(), n);
    std::vector<std::atomic<int>> calls(n);
    const std::thread::id caller = std::this_thread::get_id();
    bool slot0_on_caller = false;
    for (int phase = 0; phase < 500; ++phase)
      group.run([&](std::size_t slot) {
        calls[slot].fetch_add(1);
        if (slot == 0) slot0_on_caller = std::this_thread::get_id() == caller;
      });
    for (std::size_t slot = 0; slot < n; ++slot)
      EXPECT_EQ(calls[slot].load(), 500) << "n=" << n << " slot=" << slot;
    EXPECT_TRUE(slot0_on_caller) << "n=" << n;
  }
}

TEST(WorkerGroup, ZeroSlotsIsOneSlot) {
  WorkerGroup group(0);
  EXPECT_EQ(group.size(), 1u);
  std::size_t seen = 99;
  group.run([&](std::size_t slot) { seen = slot; });
  EXPECT_EQ(seen, 0u);
}

// A worker's CheckError reaches the caller's catch for every group size —
// through WorkerGroup::run and through run_on_threads — and the group
// stays usable for the next phase.
TEST(WorkerGroup, WorkerExceptionReachesCaller) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::size_t thrower = n > 1 ? 1 : 0;
    const auto throwing = [thrower](std::size_t slot) {
      if (slot == thrower)
        throw CheckError("slot " + std::to_string(slot) + " failed");
    };
    WorkerGroup group(n);
    try {
      group.run(throwing);
      ADD_FAILURE() << "n=" << n << ": no exception reached the caller";
    } catch (const CheckError& error) {
      EXPECT_NE(std::string(error.what()).find("slot"), std::string::npos);
    }
    std::atomic<std::size_t> ran{0};
    group.run([&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), n) << "n=" << n;

    EXPECT_THROW(run_on_threads(n, throwing), CheckError) << "n=" << n;
  }
}

TEST(WorkerGroup, OneExceptionWhenEverySlotThrows) {
  WorkerGroup group(4);
  for (int phase = 0; phase < 50; ++phase)
    EXPECT_THROW(group.run([](std::size_t) { throw CheckError("all"); }),
                 CheckError);
}

}  // namespace
}  // namespace caft
