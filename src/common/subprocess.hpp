/// \file subprocess.hpp
/// Minimal blocking subprocess runner: spawn a child process, feed it a
/// byte string on stdin, stream its stdout to a sink, keep the head of its
/// stderr, and report how it exited. This is the process-spawning half of
/// the subprocess campaign backend (api/session.hpp): the coordinator pipes
/// one serialized work order, instance bytes included, into each worker
/// and reads one partial result back — the pipes are the whole handoff, no
/// file is shared.
///
/// POSIX-only (fork/exec/poll); elsewhere every run reports a spawn error.
/// The runner is thread-compatible — the campaign coordinator spawns from
/// several dispatcher threads at once — and never throws on child failure:
/// a crashed, killed or garbage-emitting child is an *expected* outcome
/// the caller retries, so it is reported in the result, not as an
/// exception.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace caft {

/// Bytes of child stderr a SubprocessResult keeps; the rest is drained and
/// dropped, so a child flooding stderr cannot grow the caller's memory.
inline constexpr std::size_t kSubprocessStderrBytes = 4096;

/// Everything one finished child process reports.
struct SubprocessResult {
  /// True when the child was spawned and reaped at all (false = fork or
  /// pipe creation failed; `error` says why).
  bool spawned = false;
  /// True when the child exited normally (as opposed to dying on a signal).
  bool exited = false;
  int exit_code = -1;    ///< exit status when `exited`
  int term_signal = 0;   ///< terminating signal when !exited (e.g. SIGKILL)
  std::string err;       ///< the first kSubprocessStderrBytes of stderr
  std::string error;     ///< spawn-infrastructure error, empty when spawned

  /// The one success predicate callers need: spawned, exited, status 0.
  [[nodiscard]] bool ok() const { return spawned && exited && exit_code == 0; }
  /// One-line description of how the child failed, for retry logs.
  [[nodiscard]] std::string describe_failure() const;
};

/// Incremental stdout sink: called from the poll loop with each chunk of
/// child stdout as it arrives (any chunking, including mid-line splits);
/// the output is never accumulated in one string. The sink MUST NOT throw:
/// it runs while the child is alive, and unwinding out of the poll loop
/// would leak the process. Parsers latch errors instead (api/campaign_wire's
/// CampaignPartialReader is the intended consumer).
using StdoutSink = std::function<void(const char* data, std::size_t size)>;

/// Runs `argv` (argv[0] is the program, resolved via PATH like execvp),
/// writes `input` to its stdin, and blocks until it exits. Stdout and
/// stderr are drained concurrently with the stdin feed (poll loop), so
/// neither side can deadlock on a full pipe regardless of sizes. Stdout
/// chunks go to `on_stdout`, which must be set.
[[nodiscard]] SubprocessResult run_subprocess(
    const std::vector<std::string>& argv, const std::string& input,
    const StdoutSink& on_stdout);

}  // namespace caft
