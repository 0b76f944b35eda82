#include "algo/caft_batch.hpp"

#include <limits>
#include <vector>

#include "algo/caft_internal.hpp"
#include "common/check.hpp"

namespace caft {

Schedule caft_batch_schedule(const TaskGraph& graph, const Platform& platform,
                             const CostModel& costs,
                             const CaftBatchOptions& options,
                             CaftRunStats* stats) {
  CAFT_CHECK_MSG(options.batch_size >= 1, "batch size must be at least 1");
  CAFT_CHECK_MSG(options.caft.base.eps + 1 <= platform.proc_count(),
                 "CAFT-B needs at least eps+1 processors");
  if (stats != nullptr) *stats = CaftRunStats{};
  internal::CaftMapper mapper(graph, platform, costs, options.caft, stats);
  internal::ChannelCandidate winner_channel;  // the round's best peek

  while (mapper.tracker().has_free_task()) {
    // Open a window of up to batch_size ready tasks, by priority.
    std::vector<internal::TaskStep> window;
    while (window.size() < options.batch_size &&
           mapper.tracker().has_free_task())
      window.push_back(mapper.begin_task(mapper.tracker().pop_highest()));

    // Commit one replica at a time: always the window member whose next
    // placement finishes earliest (global EFT across the batch). Every peek
    // of one round follows the round's last commit, so the winner's kept
    // channel is still current and is committed as found.
    std::size_t open = window.size();
    while (open > 0) {
      std::size_t winner = window.size();
      double winner_finish = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (mapper.done(window[i])) continue;
        const double finish = mapper.peek_next_finish(window[i]);
        if (finish < winner_finish) {
          winner_finish = finish;
          winner = i;
          mapper.keep_peek(winner_channel);
        }
      }
      CAFT_CHECK(winner < window.size());
      mapper.advance(window[winner], winner_channel);
      if (mapper.done(window[winner])) {
        mapper.finish_task(window[winner]);
        --open;
      }
    }
    // Tasks released by this window become eligible for the next one.
  }
  return mapper.take_schedule();
}

}  // namespace caft
