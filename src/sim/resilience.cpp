#include "sim/resilience.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "sim/replay_engine.hpp"

namespace caft {

namespace {

/// Every crash set here is one dead-from-start mask replayed once, so the
/// engine is template only (no fault-free recording); a sweep reuses one
/// engine and one Scratch throughout.
ReplayEngineOptions template_only() {
  ReplayEngineOptions options;
  options.max_snapshots = 0;
  return options;
}

/// Replays one crash set and folds its outcome into the report.
void fold(const ReplayEngine& engine, ReplayEngine::Scratch& scratch,
          const std::vector<ProcId>& failed, ResilienceReport& report) {
  const CrashResult& result = engine.replay(
      CrashScenario::at_zero(engine.schedule().platform().proc_count(),
                             failed),
      scratch);
  ++report.scenarios_tested;
  if (!result.success) {
    ++report.failures;
    report.resistant = false;
    if (report.witness.empty()) report.witness = failed;
  } else {
    report.worst_latency = std::max(report.worst_latency, result.latency);
    report.best_latency = std::min(report.best_latency, result.latency);
  }
}

}  // namespace

ResilienceReport check_resilience_exhaustive(const Schedule& schedule,
                                             const CostModel& costs,
                                             std::size_t failures) {
  const std::size_t m = schedule.platform().proc_count();
  CAFT_CHECK_MSG(failures <= m, "cannot fail more processors than exist");
  ResilienceReport report;
  report.best_latency = std::numeric_limits<double>::infinity();
  const ReplayEngine engine(schedule, costs, template_only());
  ReplayEngine::Scratch scratch;

  if (failures == 0) {
    fold(engine, scratch, {}, report);
    return report;
  }

  // Lexicographic combination walk over {0, ..., m-1} choose `failures`.
  std::vector<std::size_t> pick(failures);
  for (std::size_t i = 0; i < failures; ++i) pick[i] = i;
  while (true) {
    std::vector<ProcId> failed(failures);
    for (std::size_t i = 0; i < failures; ++i)
      failed[i] = ProcId(static_cast<ProcId::value_type>(pick[i]));
    fold(engine, scratch, failed, report);

    // Advance to the next combination.
    std::size_t i = failures;
    while (i > 0) {
      --i;
      if (pick[i] != i + m - failures) break;
      if (i == 0) {
        if (report.best_latency == std::numeric_limits<double>::infinity())
          report.best_latency = 0.0;
        return report;
      }
    }
    ++pick[i];
    for (std::size_t j = i + 1; j < failures; ++j) pick[j] = pick[j - 1] + 1;
  }
}

ResilienceReport check_resilience_sampled(const Schedule& schedule,
                                          const CostModel& costs,
                                          std::size_t failures,
                                          std::size_t samples, Rng& rng) {
  const std::size_t m = schedule.platform().proc_count();
  CAFT_CHECK_MSG(failures <= m, "cannot fail more processors than exist");
  ResilienceReport report;
  report.best_latency = std::numeric_limits<double>::infinity();
  const ReplayEngine engine(schedule, costs, template_only());
  ReplayEngine::Scratch scratch;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto indices = rng.sample_without_replacement(m, failures);
    std::vector<ProcId> failed(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
      failed[i] = ProcId(static_cast<ProcId::value_type>(indices[i]));
    fold(engine, scratch, failed, report);
  }
  if (report.best_latency == std::numeric_limits<double>::infinity())
    report.best_latency = 0.0;
  return report;
}

CrashResult simulate_random_crashes(const Schedule& schedule,
                                    const CostModel& costs,
                                    std::size_t failures, Rng& rng) {
  const std::size_t m = schedule.platform().proc_count();
  CAFT_CHECK_MSG(failures <= m, "cannot fail more processors than exist");
  const auto indices = rng.sample_without_replacement(m, failures);
  std::vector<ProcId> failed(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i)
    failed[i] = ProcId(static_cast<ProcId::value_type>(indices[i]));
  const ReplayEngine engine(schedule, costs, template_only());
  return engine.replay(CrashScenario::at_zero(m, failed));
}

}  // namespace caft
