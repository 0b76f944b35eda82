/// \file ftbar_internal.hpp
/// Test hooks of the FTBAR driver (ftbar.cpp). Not part of the public API
/// — include ftbar.hpp instead.
///
/// FTBAR reuses a free task's start time on a processor across steps when
/// no commit since its evaluation could have changed it (the reuse rule in
/// ftbar.hpp). The checked entry point below runs the same driver but
/// evaluates every reused entry again and CAFT_CHECKs that the cached start
/// equals the fresh one bit for bit, so a test can hold the rule to its
/// exactness claim on any instance.
#pragma once

#include <cstdint>

#include "algo/ftbar.hpp"

namespace caft::internal {

/// How many (task, processor) start times one FTBAR run took from its cache
/// and how many it evaluated.
struct FtbarReuseStats {
  std::uint64_t reused = 0;
  std::uint64_t computed = 0;
};

/// ftbar_schedule with every reused start time recomputed and checked (a
/// CheckError on the first mismatch). Returns the same schedule as
/// ftbar_schedule; `stats`, when non-null, receives the run's counts.
[[nodiscard]] Schedule ftbar_schedule_checked(const TaskGraph& graph,
                                              const Platform& platform,
                                              const CostModel& costs,
                                              const FtbarOptions& options,
                                              FtbarReuseStats* stats = nullptr);

}  // namespace caft::internal
