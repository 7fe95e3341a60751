#include "host_probe.h"

#include <chrono>

namespace lcrb::perfbench {

namespace {

constexpr std::uint32_t kNodes = 1u << 16;
constexpr std::uint32_t kDegree = 8;
/// Cascades per thread in one sample.
constexpr std::uint32_t kCascades = 4;
/// An arc fires when the low byte of its hash is below this (p = 0.3).
constexpr std::uint64_t kFireBelow = 77;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

HostProbe::HostProbe(std::size_t threads)
    : offsets_(kNodes + 1), scratch_(threads == 0 ? 1 : threads) {
  targets_.reserve(static_cast<std::size_t>(kNodes) * kDegree);
  for (std::uint32_t u = 0; u < kNodes; ++u) {
    offsets_[u] = static_cast<std::uint32_t>(targets_.size());
    for (std::uint32_t k = 0; k < kDegree; ++k) {
      targets_.push_back(static_cast<std::uint32_t>(
          mix(static_cast<std::uint64_t>(u) * kDegree + k) % kNodes));
    }
  }
  offsets_[kNodes] = static_cast<std::uint32_t>(targets_.size());
  for (Scratch& s : scratch_) {
    s.stamp.assign(kNodes, 0);
    s.queue.resize(kNodes);
  }
  for (std::size_t id = 1; id < scratch_.size(); ++id) {
    workers_.emplace_back([this, id] { worker(id); });
  }
}

HostProbe::~HostProbe() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void HostProbe::cascade(std::uint32_t c, Scratch& s) {
  const std::uint64_t salt = mix(c + 1);
  ++s.epoch;
  std::uint32_t head = 0;
  std::uint32_t tail = 0;
  const std::uint32_t source = static_cast<std::uint32_t>(salt % kNodes);
  s.stamp[source] = s.epoch;
  s.queue[tail++] = source;
  while (head < tail) {
    const std::uint32_t u = s.queue[head++];
    for (std::uint32_t a = offsets_[u]; a < offsets_[u + 1]; ++a) {
      if ((mix(salt ^ a) & 0xff) >= kFireBelow) continue;
      const std::uint32_t v = targets_[a];
      if (s.stamp[v] == s.epoch) continue;
      s.stamp[v] = s.epoch;
      s.queue[tail++] = v;
    }
  }
  s.visited += tail;
}

void HostProbe::take_cascades(Scratch& s) {
  const std::uint32_t units = units_.load();
  for (std::uint32_t u; (u = next_.fetch_add(1)) < units;) {
    cascade(u % kCascades, s);
    if (done_.fetch_add(1) + 1 == units) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void HostProbe::worker(std::size_t id) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lock.unlock();
    take_cascades(scratch_[id]);
    lock.lock();
  }
}

double HostProbe::narrow_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t c = 0; c < kCascades; ++c) cascade(c, scratch_[0]);
  return ms_since(t0);
}

double HostProbe::wide_ms() {
  const std::uint32_t units =
      static_cast<std::uint32_t>(scratch_.size()) * kCascades;
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // done_ is reset before next_: a worker still in the last sample's
    // loop can take a cascade only once next_ is reset, and then counts it
    // in this sample.
    units_ = units;
    done_ = 0;
    next_ = 0;
    ++generation_;
  }
  start_cv_.notify_all();
  take_cascades(scratch_[0]);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return done_.load() == units; });
  }
  return ms_since(t0);
}

}  // namespace lcrb::perfbench
