// In-memory spans for the traced run.
//
// The benchmark wraps a span around each call it makes into a layer of
// the program (run::run_point, a SweepRunner round, one service request
// and its phases, ...).  Spans live in memory for the whole run and are
// written out once at the end; nothing is recorded when the tracer is
// disabled, which is how the untimed-overhead runs measure.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t op = -1;      ///< the op (grid point or request) it serves
  Clock::time_point start;
  Clock::time_point end;
};

/// Thread-safe span store.  Span ids are assigned at open time, so a
/// child can name its parent before the parent closes.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserve an id for a span that will be added later (-1 if disabled).
  std::int64_t reserve();

  /// Record a finished span under a reserved id (no-op when disabled).
  void add(std::int64_t id, std::string name, std::int64_t parent,
           std::int64_t op, Clock::time_point start, Clock::time_point end);

  /// Reserve + add in one call; returns the id.
  std::int64_t record(std::string name, std::int64_t parent, std::int64_t op,
                      Clock::time_point start, Clock::time_point end);

  std::vector<Span> spans() const;

  /// Self time (ms) of every span named `name`: its duration minus the
  /// part of its interval covered by its children.
  std::vector<double> self_ms(const std::string& name) const;

  /// Summed duration (ms) of every span named `name`.
  double total_ms(const std::string& name) const;

  /// Chrome-trace JSON ("X" events, one track per root span chain).
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: opens at construction, records at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t parent = -1,
             std::int64_t op = -1)
      : tracer_(tracer),
        name_(std::move(name)),
        id_(tracer.reserve()),
        parent_(parent),
        op_(op),
        start_(Clock::now()) {}
  ~ScopedSpan() {
    tracer_.add(id_, std::move(name_), parent_, op_, start_, Clock::now());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::int64_t id_;
  std::int64_t parent_;
  std::int64_t op_;
  Clock::time_point start_;
};

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace perfbench
