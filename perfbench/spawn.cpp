// perfbench_spawn — runs one command and reports its resource usage.
//
//   perfbench_spawn <usage.json> <program> [args...]
//
// Writes {"exit", "start_ns", "wall_ns", "cpu_ns", "maxrss_kb", "nvcsw",
// "nivcsw"} for the command to <usage.json> and exits with the command's
// exit code (128 + signal when it was killed).
//
// Why not wait4 from the benchmark's Python process directly: Linux folds
// the high-water RSS of the memory image a process had before exec into
// its ru_maxrss, and a child forked from Python starts as a copy of the
// interpreter (tens of MB once it holds results). Forked from this small
// launcher instead, the binary's peak RSS is its own. start_ns is
// CLOCK_MONOTONIC, the clock of Python's time.perf_counter() on Linux.
//
// The launcher dies with its parent and the command with the launcher
// (PR_SET_PDEATHSIG), so nothing outlives the benchmark.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <ctime>

namespace {

long long MonotonicNs() {
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<long long>(now.tv_sec) * 1000000000LL + now.tv_nsec;
}

long long Ns(const timeval& tv) {
  return static_cast<long long>(tv.tv_sec) * 1000000000LL +
         static_cast<long long>(tv.tv_usec) * 1000LL;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s <usage.json> <program> [args...]\n",
                 argv[0]);
    return 2;
  }
  // Dies with the benchmark process, and the command dies with it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  const pid_t parent = getpid();
  const long long start = MonotonicNs();
  const pid_t child = fork();
  if (child < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (child == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // The launcher already died.
    execvp(argv[2], argv + 2);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(child, &status, 0, &usage) != child) {
    std::perror("perfbench_spawn: wait4");
    return 2;
  }
  const long long wall = MonotonicNs() - start;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("perfbench_spawn: usage file");
    return 2;
  }
  std::fprintf(out,
               "{\"exit\": %d, \"start_ns\": %lld, \"wall_ns\": %lld, "
               "\"cpu_ns\": %lld, \"maxrss_kb\": %ld, \"nvcsw\": %ld, "
               "\"nivcsw\": %ld}\n",
               code, start, wall, Ns(usage.ru_utime) + Ns(usage.ru_stime),
               usage.ru_maxrss, usage.ru_nvcsw, usage.ru_nivcsw);
  std::fclose(out);
  return code;
}
