#include "fork_runner.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>

namespace lgv::e2e {

namespace {

bool write_all(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

ChildOutcome run_in_child(const std::function<void(ByteWriter&)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);  // the child must not re-emit buffered parent output
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      ByteWriter out;
      body(out);
      if (!write_all(fds[1], out.bytes().data(), out.bytes().size())) code = 4;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e child: %s\n", e.what());
      code = 3;
    }
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(code);  // skip the parent's atexit handlers and static destructors
  }

  ::close(fds[1]);
  ChildOutcome outcome;
  uint8_t chunk[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fds[0], chunk, sizeof(chunk));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    outcome.payload.insert(outcome.payload.end(), chunk, chunk + r);
  }
  ::close(fds[0]);

  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4() failed");
  }
  if (WIFSIGNALED(status)) {
    outcome.signal = WTERMSIG(status);
  } else {
    outcome.exit_code = WEXITSTATUS(status);
  }
  outcome.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  outcome.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  return outcome;
}

}  // namespace lgv::e2e
