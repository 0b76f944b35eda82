// run_subprocess, the process-spawning half of the subprocess campaign
// backend: stdout streams to the sink in order, stderr keeps a bounded
// head while the pipe is drained to EOF, and concurrent spawns from
// several threads never hold each other's pipes open.
#include "common/subprocess.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace caft {
namespace {

/// A sink that appends every chunk to `out`.
StdoutSink collect_into(std::string& out) {
  return [&out](const char* data, std::size_t size) { out.append(data, size); };
}

/// `size` bytes of a pattern that makes reordered or dropped chunks show.
std::string patterned(std::size_t size, std::size_t salt) {
  std::string text;
  text.reserve(size);
  for (std::size_t i = 0; text.size() < size; ++i)
    text += std::to_string(salt) + ":" + std::to_string(i) + "\n";
  text.resize(size);
  return text;
}

TEST(Subprocess, StdoutChunksReachTheSinkInOrder) {
  // 256 KiB through `cat` spans many pipe-sized chunks in both directions,
  // fed and drained by the same poll loop.
  const std::string input = patterned(256 * 1024, 7);
  std::string out;
  std::size_t chunks = 0;
  const SubprocessResult child =
      run_subprocess({"cat"}, input, [&](const char* data, std::size_t size) {
        out.append(data, size);
        ++chunks;
      });
  ASSERT_TRUE(child.ok()) << child.describe_failure();
  EXPECT_EQ(out, input);
  EXPECT_GT(chunks, 1u);
  EXPECT_TRUE(child.err.empty());
}

TEST(Subprocess, StderrFloodStaysBoundedAndNamesTheFirstLine) {
  // The child writes far more stderr than the result keeps; the runner
  // must keep draining (or the child would block on a full pipe and never
  // exit) while holding only the head, and still report the first line.
  std::string out;
  const SubprocessResult child = run_subprocess(
      {"sh", "-c",
       "echo 'worker gave up: bad order' >&2; "
       "head -c 8388608 /dev/zero | tr '\\0' x >&2; exit 3"},
      "", collect_into(out));
  ASSERT_TRUE(child.spawned) << child.error;
  EXPECT_TRUE(child.exited);
  EXPECT_EQ(child.exit_code, 3);
  EXPECT_LE(child.err.size(), kSubprocessStderrBytes);
  EXPECT_EQ(child.err.rfind("worker gave up: bad order\nxxx", 0), 0u);
  EXPECT_EQ(child.describe_failure(),
            "exited with status 3 — worker gave up: bad order");
  EXPECT_TRUE(out.empty());
}

TEST(Subprocess, ConcurrentSpawnsAllReachEof) {
  // Four threads spawn at once. Every pipe is close-on-exec from birth, so
  // no child inherits another's pipe ends; a leaked write end would keep a
  // sibling's stdin or stdout from reaching EOF and hang its `cat`.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpawns = 8;
  std::vector<std::vector<bool>> matched(kThreads,
                                         std::vector<bool>(kSpawns, false));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([t, &matched] {
      for (std::size_t i = 0; i < kSpawns; ++i) {
        const std::string input = patterned(32 * 1024, t * kSpawns + i);
        std::string out;
        const SubprocessResult child =
            run_subprocess({"cat"}, input, collect_into(out));
        matched[t][i] = child.ok() && out == input;
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < kSpawns; ++i)
      EXPECT_TRUE(matched[t][i]) << "thread " << t << " spawn " << i;
}

}  // namespace
}  // namespace caft
