#include <unistd.h>

#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  return 0.0;
}

namespace {

std::atomic<std::uint64_t> burn_sink{0};

// A fixed amount of integer work; the result goes to burn_sink so the
// compiler cannot drop it.
std::uint64_t burn(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double burn_seconds(long threads) {
  std::vector<std::thread> crew;
  const auto t0 = Clock::now();
  for (long t = 0; t < threads; ++t) {
    crew.emplace_back([t] {
      burn_sink ^= burn(static_cast<std::uint64_t>(t) + 1);
    });
  }
  for (std::thread& t : crew) t.join();
  return ms_between(t0, Clock::now()) / 1000.0;
}

}  // namespace

HostRecord probe_host() {
  HostRecord h;
  h.nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const double one = burn_seconds(1);
  const double all = burn_seconds(h.nproc);
  h.effective_parallelism = static_cast<double>(h.nproc) * one / all;
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

}  // namespace perfbench
