// hmmbench — the hmm-sim repository benchmark.
//
//   hmmbench --workload NAME --seed N --seconds S --trace 0|1
//            [--hmmsimd PATH] [--run-dir DIR] [--commit ID]
//
// Workloads: sum-global, conv-shared, sort-sweep, service-mix (see
// perfbench/README.md for why each one is there).  --trace 0 prints the
// end-to-end metrics of a timed run; --trace 1 runs the traced variant
// and prints the per-layer metrics.  Every output is checked against a
// host reference; the last line of stdout is one JSON object
//
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
//
// and the exit code is 0 only when every op and check passed (1 when any
// failed, 2 on a usage or set-up error, with no JSON line).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "hmmbench: %s\n"
               "usage: hmmbench --workload sum-global|conv-shared|sort-sweep|"
               "service-mix --seed N --seconds S --trace 0|1\n"
               "                [--hmmsimd PATH] [--run-dir DIR] [--commit ID]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *s != '\0' && *s != '-' && *end == '\0';
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void write_record(const std::string& path, const Options& opt,
                  const HostRecord& host, const std::string& commit,
                  const Result& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"seconds\": %s,\n  \"trace\": %d,\n"
               "  \"host\": {\"nproc\": %ld, \"effective_parallelism\": %s, "
               "\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"commit\": \"%s\"},\n"
               "  \"model_validation\": \"none: the repository holds no "
               "hardware reference\",\n"
               "  \"attempted\": %lld,\n  \"failed\": %lld,\n  \"metrics\": {",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               number(opt.seconds).c_str(), opt.trace ? 1 : 0, host.nproc,
               number(host.effective_parallelism).c_str(),
               host.compiler.c_str(), host.build_type.c_str(), commit.c_str(),
               static_cast<long long>(r.attempted),
               static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                    "\"samples\": %lld}",
                 i == 0 ? "" : ",", m.name.c_str(), number(m.value).c_str(),
                 m.unit.c_str(), static_cast<long long>(m.samples));
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed" && parse_u64(v, u)) {
      opt.seed = u;
      have_seed = true;
    } else if (a == "--seconds" && parse_u64(v, u) && u >= 1 && u <= 600) {
      opt.seconds = static_cast<double>(u);
      have_seconds = true;
    } else if (a == "--trace" && (std::string(v) == "0" || std::string(v) == "1")) {
      opt.trace = std::string(v) == "1";
      have_trace = true;
    } else if (a == "--hmmsimd") {
      opt.hmmsimd = v;
    } else if (a == "--run-dir") {
      opt.run_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--corrupt-op" && parse_u64(v, u)) {
      opt.corrupt_op = static_cast<std::int64_t>(u);
    } else {
      return usage(("bad argument " + a + " " + v).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!is_engine_workload(opt.workload) && opt.workload != "service-mix") {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  try {
    const HostRecord host = probe_host();
    std::printf("hmmbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("host: nproc=%ld effective_parallelism=%.2f compiler=%s "
                "build=%s commit=%s\n",
                host.nproc, host.effective_parallelism, host.compiler.c_str(),
                host.build_type.c_str(), commit.c_str());
    std::printf("model: not validated against hardware (the repository holds "
                "no hardware reference), so no error figure is given\n");
    std::fflush(stdout);

    const Result r = is_engine_workload(opt.workload) ? run_engine_workload(opt)
                                                      : run_service_mix(opt);
    for (const Metric& m : r.metrics) {
      if (m.samples > 0) {
        std::printf("  %-34s %14.6g %-9s (n=%lld)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<long long>(m.samples));
      } else {
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    std::printf("  failed_ratio = %.6g (%lld failed of %lld attempted)\n",
                r.attempted > 0 ? static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted)
                                : 0.0,
                static_cast<long long>(r.failed),
                static_cast<long long>(r.attempted));
    for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
    write_record(opt.run_dir + "/" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + "-trace" +
                     (opt.trace ? "1" : "0") + ".json",
                 opt, host, commit, r);

    const bool correct = r.failed == 0 && r.attempted > 0;
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const Metric& m = r.metrics[i];
      json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
              number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmmbench: %s\n", e.what());
    return 2;
  }
}
