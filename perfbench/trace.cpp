#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t Tracer::reserve() {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::add(std::int64_t id, std::string name, std::int64_t parent,
                 std::int64_t op, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), id, parent, op, start, end});
}

std::int64_t Tracer::record(std::string name, std::int64_t parent,
                            std::int64_t op, Clock::time_point start,
                            Clock::time_point end) {
  const std::int64_t id = reserve();
  add(id, std::move(name), parent, op, start, end);
  return id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  const std::vector<Span> all = spans();
  std::map<std::int64_t, std::vector<std::pair<Clock::time_point,
                                               Clock::time_point>>>
      children;
  for (const Span& s : all) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> out;
  for (const Span& s : all) {
    if (s.name != name) continue;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may run in parallel (a sweep round's points), so the
      // covered part is the union of their intervals, clipped to ours.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_lo{}, cur_hi{};
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += ms_between(cur_lo, cur_hi);
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += ms_between(cur_lo, cur_hi);
    }
    out.push_back(ms_between(s.start, s.end) - covered);
  }
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans()) {
    if (s.name == name) total += ms_between(s.start, s.end);
  }
  return total;
}

void Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  if (all.empty()) return;
  Clock::time_point origin = all.front().start;
  for (const Span& s : all) origin = std::min(origin, s.start);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %lld, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"op\": %lld}}%s\n",
                 s.name.c_str(), static_cast<long long>(s.op < 0 ? 0 : s.op),
                 us(s.start), us(s.end) - us(s.start),
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace perfbench
