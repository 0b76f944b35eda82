#include "comm/engine.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace caft {

CommEngine::CommEngine(const Platform& platform, const CostModel& costs)
    : platform_(&platform),
      costs_(&costs),
      proc_ready_(platform.proc_count(), 0.0) {
  CAFT_CHECK_MSG(&costs.platform() == &platform,
                 "cost model was built for a different platform");
}

double CommEngine::proc_ready(ProcId p) const {
  CAFT_CHECK(p.index() < proc_ready_.size());
  return proc_ready_[p.index()];
}

TaskTimes CommEngine::post_exec(ProcId p, double earliest_start,
                                double exec_time) {
  CAFT_CHECK(p.index() < proc_ready_.size());
  CAFT_CHECK(exec_time >= 0.0);
  TaskTimes times;
  times.start = std::max(earliest_start, proc_ready_[p.index()]);
  times.finish = times.start + exec_time;
  write(proc_ready_, p.index(), times.finish);
  return times;
}

void CommEngine::write(std::vector<double>& clocks, std::size_t i,
                       double value) {
  double& slot = clocks[i];
  if (open_trials_ > 0) journal_.push_back({&slot, slot});
  slot = value;
}

CommEngine::Trial::Trial(CommEngine& engine)
    : engine_(&engine), mark_(engine.journal_.size()) {
  ++engine.open_trials_;
}

CommEngine::Trial::~Trial() {
  auto& journal = engine_->journal_;
  for (std::size_t i = journal.size(); i > mark_; --i)
    *journal[i - 1].slot = journal[i - 1].old_value;
  journal.resize(mark_);
  --engine_->open_trials_;
}

}  // namespace caft
