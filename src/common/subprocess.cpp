#include "common/subprocess.hpp"

#include <algorithm>
#include <cstddef>
#include <sstream>

#include "common/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

namespace caft {

namespace {

/// Pipe ends are plain ints; -1 = closed/absent.
void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Writing a work order into a child that already died must surface as a
/// short write (EPIPE), not kill the coordinator with SIGPIPE. The
/// disposition is process-wide, so install the ignore handler exactly once;
/// coordinators and CLIs have no other use for SIGPIPE.
void ignore_sigpipe_once() {
  static const bool installed = [] {
    struct sigaction action {};
    action.sa_handler = SIG_IGN;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGPIPE, &action, nullptr);
    return true;
  }();
  (void)installed;
}

}  // namespace

std::string SubprocessResult::describe_failure() const {
  std::ostringstream os;
  if (!spawned) {
    os << "spawn failed: " << error;
  } else if (!exited) {
    os << "killed by signal " << term_signal;
  } else {
    os << "exited with status " << exit_code;
  }
  if (!err.empty()) {
    // First stderr line only — enough to say *why* without dumping logs.
    const std::size_t eol = err.find('\n');
    os << " — " << err.substr(0, eol == std::string::npos ? err.size() : eol);
  }
  return os.str();
}

SubprocessResult run_subprocess(const std::vector<std::string>& argv,
                                const std::string& input,
                                const StdoutSink& on_stdout) {
  SubprocessResult result;
  CAFT_CHECK_MSG(!argv.empty(), "subprocess argv must name a program");
  CAFT_CHECK_MSG(static_cast<bool>(on_stdout),
                 "subprocess needs a stdout sink");
  ignore_sigpipe_once();

  // Close-on-exec from birth: several dispatcher threads spawn workers
  // concurrently, and a worker forked between another thread's pipe() and
  // its parent-side close() must not inherit (and hold open) that pipe's
  // write end — the other worker's stdout would never reach EOF until this
  // one exits. dup2 below clears CLOEXEC on the child's own stdio copies.
  int in_pipe[2] = {-1, -1};   // parent writes [1] -> child stdin [0]
  int out_pipe[2] = {-1, -1};  // child stdout [1] -> parent reads [0]
  int err_pipe[2] = {-1, -1};  // child stderr [1] -> parent reads [0]
#if defined(__linux__)
  const auto make_pipe = [](int fds[2]) { return ::pipe2(fds, O_CLOEXEC); };
#else
  const auto make_pipe = [](int fds[2]) {
    if (::pipe(fds) != 0) return -1;
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
    return 0;
  };
#endif
  if (make_pipe(in_pipe) != 0 || make_pipe(out_pipe) != 0 ||
      make_pipe(err_pipe) != 0) {
    result.error = std::string("pipe: ") + ::strerror(errno);
    for (int* p : {in_pipe, out_pipe, err_pipe}) {
      close_fd(p[0]);
      close_fd(p[1]);
    }
    return result;
  }

  // Assemble the exec argv *before* forking: the parent may be
  // multi-threaded, so the child between fork and exec must not touch the
  // heap (another thread could hold the allocator lock at fork time).
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv)
    args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    result.error = std::string("fork: ") + ::strerror(errno);
    for (int* p : {in_pipe, out_pipe, err_pipe}) {
      close_fd(p[0]);
      close_fd(p[1]);
    }
    return result;
  }

  if (pid == 0) {
    // Child: wire the pipe ends onto stdio and exec — nothing but dup2 /
    // close / exec here (see the argv assembly above the fork).
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    for (int* p : {in_pipe, out_pipe, err_pipe}) {
      ::close(p[0]);
      ::close(p[1]);
    }
    ::execvp(args[0], args.data());
    // exec failed: report on the (captured) stderr and die with the
    // conventional "command not found / not executable" status.
    const char* msg = "exec failed: ";
    (void)!::write(STDERR_FILENO, msg, ::strlen(msg));
    (void)!::write(STDERR_FILENO, args[0], ::strlen(args[0]));
    (void)!::write(STDERR_FILENO, "\n", 1);
    ::_exit(127);
  }

  // Parent: keep only our ends. The stdin feed must never block: a child
  // that answers as it reads (`cat`) fills its stdout while a blocking
  // write waits for it to read more, and the poll loop stops draining.
  close_fd(in_pipe[0]);
  close_fd(out_pipe[1]);
  close_fd(err_pipe[1]);
  ::fcntl(in_pipe[1], F_SETFL, ::fcntl(in_pipe[1], F_GETFL) | O_NONBLOCK);
  result.spawned = true;

  std::size_t written = 0;
  if (input.empty()) close_fd(in_pipe[1]);

  // Poll loop: feed stdin and drain stdout/stderr concurrently so neither
  // direction can block forever on a full pipe.
  while (in_pipe[1] >= 0 || out_pipe[0] >= 0 || err_pipe[0] >= 0) {
    struct pollfd fds[3];
    int nfds = 0;
    int in_slot = -1, out_slot = -1, err_slot = -1;
    if (in_pipe[1] >= 0) {
      in_slot = nfds;
      fds[nfds++] = {in_pipe[1], POLLOUT, 0};
    }
    if (out_pipe[0] >= 0) {
      out_slot = nfds;
      fds[nfds++] = {out_pipe[0], POLLIN, 0};
    }
    if (err_pipe[0] >= 0) {
      err_slot = nfds;
      fds[nfds++] = {err_pipe[0], POLLIN, 0};
    }
    if (::poll(fds, static_cast<nfds_t>(nfds), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself broke; fall through to reap what we have
    }

    if (in_slot >= 0 && (fds[in_slot].revents & (POLLOUT | POLLERR | POLLHUP))) {
      const ssize_t n = ::write(in_pipe[1], input.data() + written,
                                input.size() - written);
      if (n > 0) written += static_cast<std::size_t>(n);
      // EPIPE / error / done: either way stop feeding and let the child
      // finish with what it got (a half-fed worker fails its own parse). A
      // full pipe (EAGAIN) waits for the next POLLOUT.
      if ((n < 0 && errno != EAGAIN && errno != EINTR) ||
          written == input.size())
        close_fd(in_pipe[1]);
    }
    // Stdout streams to the sink (which must not throw — see StdoutSink);
    // stderr keeps its head and is drained to EOF regardless.
    const auto drain = [&fds](int slot, int& fd, const auto& consume) {
      if (slot < 0 || !(fds[slot].revents & (POLLIN | POLLERR | POLLHUP)))
        return;
      char buffer[4096];
      const ssize_t n = ::read(fd, buffer, sizeof buffer);
      if (n > 0) {
        consume(buffer, static_cast<std::size_t>(n));
      } else {
        close_fd(fd);
      }
    };
    drain(out_slot, out_pipe[0], on_stdout);
    drain(err_slot, err_pipe[0], [&result](const char* data, std::size_t n) {
      result.err.append(
          data, std::min(n, kSubprocessStderrBytes - result.err.size()));
    });
  }
  close_fd(in_pipe[1]);
  close_fd(out_pipe[0]);
  close_fd(err_pipe[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exited = false;
    result.term_signal = WTERMSIG(status);
  }
  return result;
}

}  // namespace caft

#else  // !POSIX

namespace caft {

std::string SubprocessResult::describe_failure() const { return error; }

SubprocessResult run_subprocess(const std::vector<std::string>&,
                                const std::string&, const StdoutSink&) {
  SubprocessResult result;
  result.error = "subprocess execution is unavailable on this platform";
  return result;
}

}  // namespace caft

#endif
