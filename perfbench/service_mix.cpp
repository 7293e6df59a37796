// service-mix: two closed-loop connections to a real hmmsimd process.
// Each connection sends one tiny single-point request, reads frames until
// its done frame, checks the result against a local run::run_point of the
// same point (local == --connect) and only then sends the next request.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/json.hpp"
#include "core/rng.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "run/point.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "stats.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {

namespace {

using hmm::run::Point;
namespace svc = hmm::service;

constexpr int kConnections = 2;
constexpr int kDaemonJobs = 2;
constexpr std::int64_t kTelemetryBudget = 64;

/// A running hmmsimd child process.  The destructor stops it (drain by
/// SIGTERM, then SIGKILL after a grace period) and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string listen = "--listen=unix:" + socket_path;
    const std::string jobs = "--jobs=" + std::to_string(kDaemonJobs);
    char* argv[] = {const_cast<char*>(binary.c_str()),
                    const_cast<char*>(listen.c_str()),
                    const_cast<char*>(jobs.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv,
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      close(out_fd_);
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
    // The daemon prints "... listening on ADDR" once the socket is bound.
    std::string seen;
    while (seen.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      char buf[256];
      if (poll(&p, 1, 10'000) <= 0) break;
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      seen.append(buf, static_cast<std::size_t>(n));
    }
    if (seen.find("listening on") == std::string::npos) {
      stop();
      throw std::runtime_error("hmmsimd did not start: " + seen);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  long pid() const { return pid_; }

  /// SIGTERM asks for a graceful drain; SIGKILL if it takes over 10 s.
  void stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 1000; ++i) {
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        usleep(10'000);
      }
      if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// One slot of the request deck: which point, and whether the request
/// also asks for a metrics frame and a telemetry stream.
struct Slot {
  std::size_t point = 0;
  bool streamed = false;
};

/// The distinct points: sum and scan on both models, small matmul; each
/// costs about a millisecond of engine time, so the service path
/// (parse, admission, queue, frame encoding, socket I/O) dominates.
std::vector<Point> service_points(std::uint64_t seed) {
  std::vector<Point> points;
  auto add = [&](const char* algorithm, const char* model, std::int64_t n) {
    Point p;
    p.algorithm = algorithm;
    p.model = model;
    p.n = n;
    p.p = 256;
    p.d = 4;
    p.w = 32;
    p.l = 400;
    p.seed = seed;
    points.push_back(p);
  };
  add("sum", "hmm", 4096);
  add("sum", "umm", 4096);
  add("scan", "hmm", 4096);
  add("scan", "umm", 4096);
  add("matmul", "hmm", 32);
  add("matmul", "umm", 16);
  return points;
}

/// 16 slots: the six points in turn, two of them (1 in 8) streamed.  The
/// deck fixes the mix; the seed only orders it.
std::vector<Slot> service_deck(std::size_t points) {
  std::vector<Slot> deck;
  for (std::size_t i = 0; i < 16; ++i) deck.push_back({i % points, i % 8 == 0});
  return deck;
}

svc::RunRequest request_for(const Point& p, const Slot& slot, std::string id) {
  svc::RunRequest r;
  r.id = std::move(id);
  r.algorithm = p.algorithm;
  r.model = p.model;
  r.n = {p.n};
  r.m = {p.m};
  r.p = {p.p};
  r.w = {p.w};
  r.l = {p.l};
  r.d = {p.d};
  r.seed = p.seed;
  r.threads = p.threads;
  r.metrics = slot.streamed;
  r.telemetry = slot.streamed ? kTelemetryBudget : 0;
  return r;
}

struct Fixture {
  std::vector<Point> points;
  hmm::alg::WorkloadCache cache;
  std::vector<PointInputs> inputs;
  std::vector<Reference> refs;
  std::vector<Simulated> timed;
  std::vector<hmm::run::PointOutcome> local;
  std::vector<double> local_ms;
  std::vector<bool> ok;  ///< per point: full output and local summary agree
  std::vector<Slot> deck;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<svc::Client>> clients;
};

struct Sample {
  std::size_t point = 0;
  bool ok = false;
  Clock::time_point sent, accepted, result, done;
  std::int64_t frames = 0;
  std::int64_t bytes = 0;
  std::int64_t drops = 0;
  bool traced = false;
};

/// Send one request and read its frames through the done frame.
/// `corrupt` falsifies the received summary before the check (test hook).
Sample exchange(svc::Client& client, const Fixture& fx, const Slot& slot,
                const std::string& id, bool corrupt = false) {
  Sample s;
  s.point = slot.point;
  const hmm::run::PointOutcome& want = fx.local[slot.point];
  s.sent = Clock::now();
  s.accepted = s.result = s.sent;
  bool result_ok = false, failed = false;
  try {
    client.send(request_for(fx.points[slot.point], slot, id));
    for (;;) {
      const std::optional<std::string> line = client.read_line();
      if (!line) throw std::runtime_error("connection lost");
      const auto now = Clock::now();
      ++s.frames;
      s.bytes += static_cast<std::int64_t>(line->size()) + 1;
      const svc::Frame frame = svc::frame_from_json(hmm::json::parse(*line));
      if (std::get_if<svc::AcceptedFrame>(&frame) != nullptr) {
        s.accepted = now;
      } else if (const auto* r = std::get_if<svc::ResultFrame>(&frame)) {
        s.result = now;
        const std::string summary = corrupt ? r->summary + " (corrupted)"
                                            : r->summary;
        result_ok = r->req == id && summary == want.summary &&
                    r->time == want.time &&
                    r->global_stages == want.global_stages;
      } else if (std::get_if<svc::DropFrame>(&frame) != nullptr) {
        ++s.drops;
      } else if (const auto* e = std::get_if<svc::ErrorFrame>(&frame)) {
        std::fprintf(stderr, "request %s: error frame: %s\n", id.c_str(),
                     e->message.c_str());
        failed = true;
        if (s.accepted == s.sent) break;  // refused at admission: no done
      } else if (const auto* d = std::get_if<svc::DoneFrame>(&frame)) {
        if (d->req == id) break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request %s failed: %s\n", id.c_str(), e.what());
    client.close();
    failed = true;
  }
  s.done = Clock::now();
  if (s.result == s.sent) s.result = s.done;
  s.ok = result_ok && !failed;
  return s;
}

std::unique_ptr<Fixture> make_fixture(const Options& opt, int generation,
                                      Tracer& tracer) {
  auto fx = std::make_unique<Fixture>();
  const ScopedSpan setup(tracer, "bench.setup");
  fx->points = service_points(opt.seed);
  {
    const ScopedSpan input(tracer, "alg.input", setup.id());
    for (const Point& p : fx->points) {
      fx->inputs.push_back(point_inputs(p, fx->cache));
      fx->refs.push_back(host_reference(p, fx->inputs.back()));
    }
    fx->deck = service_deck(fx->points.size());
  }
  {
    const ScopedSpan ref(tracer, "alg.reference", setup.id());
    for (std::size_t k = 0; k < fx->points.size(); ++k) {
      fx->timed.push_back(simulate(fx->points[k], fx->inputs[k]));
      const ScopedSpan point(tracer, "run.point", ref.id(),
                             static_cast<std::int64_t>(k));
      const auto t0 = Clock::now();
      fx->local.push_back(hmm::run::run_point(fx->points[k], fx->cache));
      fx->local_ms.push_back(ms_between(t0, Clock::now()));
      fx->ok.push_back(
          output_correct(fx->points[k], fx->inputs[k], fx->refs[k],
                         fx->timed[k].output) &&
          fx->local[k].summary == fx->refs[k].summary &&
          fx->local[k].time == fx->timed[k].report.makespan);
    }
  }
  {
    const ScopedSpan start(tracer, "service.start", setup.id());
    const std::string sock = opt.run_dir + "/hmmsimd-" +
                             std::to_string(getpid()) + "-" +
                             std::to_string(generation) + ".sock";
    fx->daemon = std::make_unique<Daemon>(opt.hmmsimd, sock);
    const svc::Address address = svc::parse_address("unix:" + sock);
    for (int c = 0; c < kConnections; ++c) {
      fx->clients.push_back(std::make_unique<svc::Client>());
      fx->clients.back()->connect(address);
    }
  }
  {
    const ScopedSpan warm(tracer, "bench.warmup", setup.id());
    for (int c = 0; c < kConnections; ++c) {
      const Sample s = exchange(*fx->clients[static_cast<std::size_t>(c)], *fx,
                                fx->deck[0], "warm" + std::to_string(c));
      if (!s.ok) throw std::runtime_error("warm-up request failed");
    }
  }
  return fx;
}

struct Loop {
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

constexpr std::size_t kChunk = 128;

/// Rates over consecutive chunks of kChunk correct completions, in done
/// order: requests per second and simulated instructions per second.
struct ChunkRates {
  std::vector<double> ops;
  std::vector<double> issue;
};

ChunkRates chunk_rates(const Loop& loop, const Fixture& fx) {
  std::vector<const Sample*> done;
  for (const Sample& s : loop.samples) {
    if (s.ok) done.push_back(&s);
  }
  std::sort(done.begin(), done.end(),
            [](const Sample* a, const Sample* b) { return a->done < b->done; });
  ChunkRates r;
  for (std::size_t j = 0; j + kChunk < done.size(); j += kChunk) {
    const double s = ms_between(done[j]->done, done[j + kChunk]->done) / 1000.0;
    double issue = 0.0;
    for (std::size_t i = j + 1; i <= j + kChunk; ++i) {
      issue += static_cast<double>(issue_slots(fx.timed[done[i]->point].report));
    }
    r.ops.push_back(static_cast<double>(kChunk) / s);
    r.issue.push_back(issue / s);
  }
  return r;
}

/// Every request's phases as spans: the request, then send -> accepted,
/// accepted -> result and result -> done as its children.
void record_request(Tracer& tracer, const Sample& s, std::int64_t op) {
  const std::int64_t req = tracer.record("service.request", -1, op, s.sent, s.done);
  tracer.record("service.accept", req, op, s.sent, s.accepted);
  tracer.record("service.run", req, op, s.accepted, s.result);
  tracer.record("service.stream", req, op, s.result, s.done);
}

/// Closed-loop clients until `seconds` have passed.  With `traced`, every
/// other request records its spans there as it completes.
Loop run_clients(Fixture& fx, double seconds, std::uint64_t seed,
                 std::int64_t corrupt_op, Tracer* traced) {
  std::atomic<std::int64_t> next_id{0};
  std::vector<std::vector<Sample>> per(kConnections);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      hmm::Rng rng(seed * 1000003u + static_cast<std::uint64_t>(c));
      std::vector<Slot> deck = fx.deck;
      svc::Client& client = *fx.clients[static_cast<std::size_t>(c)];
      std::size_t pos = deck.size();
      while (Clock::now() < deadline) {
        if (pos == deck.size()) {
          for (std::size_t i = deck.size(); i > 1; --i) {
            std::swap(deck[i - 1], deck[rng.next_below(i)]);
          }
          pos = 0;
        }
        const std::int64_t id = next_id.fetch_add(1);
        Sample s = exchange(client, fx, deck[pos++], std::to_string(id),
                            id == corrupt_op);
        s.traced = traced != nullptr && id % 2 == 1;
        if (s.traced) record_request(*traced, s, id);
        per[static_cast<std::size_t>(c)].push_back(s);
        if (!client.connected()) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Loop loop;
  loop.wall_s = ms_between(start, Clock::now()) / 1000.0;
  for (auto& v : per) loop.samples.insert(loop.samples.end(), v.begin(), v.end());
  return loop;
}

}  // namespace

Result run_service_mix(const Options& opt) {
  if (opt.hmmsimd.empty()) {
    throw std::invalid_argument("service-mix needs --hmmsimd PATH");
  }
  Result result;
  Tracer on(opt.trace);

  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = make_fixture(opt, i, on);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  for (const bool ok : fx->ok) result.tally(ok);

  if (!opt.trace) {
    const Loop loop =
        run_clients(*fx, opt.seconds, opt.seed, opt.corrupt_op, nullptr);
    const double daemon_rss = peak_rss_mb(fx->daemon->pid());
    std::vector<double> ms;
    for (const Sample& s : loop.samples) {
      result.tally(s.ok);
      ms.push_back(ms_between(s.sent, s.done));
    }
    // Throughput is the median rate over chunks of completions, which
    // keeps a burst of host noise out of it.
    const ChunkRates rates = chunk_rates(loop, *fx);
    const auto chunks = static_cast<std::int64_t>(rates.ops.size());
    const LatencySummary lat = summarize(ms);
    result.add("setup_s", median(setup_s), "s",
               static_cast<std::int64_t>(setup_s.size()));
    result.add("ops_per_s", median(rates.ops), "1/s", chunks);
    result.add("op_ms_p50", lat.p50, "ms", lat.samples);
    result.add("op_ms_p90", lat.p90, "ms", lat.samples);
    result.add("sim_issue_per_s", median(rates.issue), "1/s", chunks);
    result.add("peak_rss_mb", daemon_rss, "MB");
    result.notes.push_back(tail_note(lat));
    return result;
  }

  // Traced run: requests alternate untraced and traced; the difference
  // in mean latency is the tracing overhead.
  const Loop loop = run_clients(*fx, opt.seconds, opt.seed, -1, &on);
  double ms[2] = {0.0, 0.0};
  std::int64_t count[2] = {0, 0};
  std::int64_t frames = 0, bytes = 0, drops = 0;
  for (const Sample& s : loop.samples) {
    result.tally(s.ok);
    ms[s.traced] += ms_between(s.sent, s.done);
    ++count[s.traced];
    frames += s.frames;
    bytes += s.bytes;
    drops += s.drops;
  }
  const auto requests = static_cast<double>(loop.samples.size());
  const double run_ms = on.total_ms("service.run");

  result.add("alg.input_ms", on.total_ms("alg.input"), "ms");
  const std::vector<double> point_ms = on.self_ms("run.point");
  result.add("run.point_ms_p50", median(point_ms), "ms",
             static_cast<std::int64_t>(point_ms.size()));
  // The daemon's busy share as its clients see it: time in the run phase
  // of traced requests over both jobs, doubled for the untraced half.
  result.add("run.pool_busy_share",
             2.0 * run_ms / (kDaemonJobs * loop.wall_s * 1000.0), "ratio");
  result.add("trace.overhead_ms_per_op",
             ms[1] / static_cast<double>(count[1]) -
                 ms[0] / static_cast<double>(count[0]),
             "ms", count[1]);

  std::map<std::size_t, std::int64_t> share;
  for (const Slot& slot : fx->deck) ++share[slot.point];
  std::vector<LayerPoint> layer_points;
  for (std::size_t k = 0; k < fx->points.size(); ++k) {
    LayerPoint lp;
    lp.point = fx->points[k];
    lp.inputs = &fx->inputs[k];
    lp.reference = &fx->refs[k];
    lp.timed = &fx->timed[k];
    lp.op_ms = fx->local_ms[k];
    lp.ops = share[k];
    layer_points.push_back(lp);
  }
  add_layer_metrics(layer_points, on, result);

  for (const char* phase : {"accept", "run", "stream"}) {
    const std::vector<double> v = on.self_ms(std::string("service.") + phase);
    result.add(std::string("service.") + phase + "_ms_p50", median(v), "ms",
               static_cast<std::int64_t>(v.size()));
  }
  result.add("service.frames_per_req", static_cast<double>(frames) / requests,
             "count");
  result.add("service.bytes_per_req", static_cast<double>(bytes) / requests, "B");
  result.add("service.drop_frames", static_cast<double>(drops) / requests,
             "count/req");
  on.write_json(opt.run_dir + "/" + opt.workload + "-seed" +
                std::to_string(opt.seed) + "-spans.json");
  return result;
}

}  // namespace perfbench
