// Host speed probe of the end-to-end benchmark.
//
// The benchmark runs on a shared machine whose speed drifts by 1.2-2x
// for minutes at a time, with or without hypervisor steal, and every stage
// of the program slows with it. The probe is a fixed reference task that
// does not use the lcrb library, so no change to the program changes it.
// Timed between the scenarios of each measurement window, it tells how fast
// the host ran during the window, and the end-to-end times are scaled to a
// reference host speed by it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace lcrb::perfbench {

class HostProbe {
 public:
  /// Wall time of one sample, narrow or wide, on the reference host: about
  /// the median wide sample on the 4-core machine the benchmark was set up
  /// on, so that scaled figures there read close to unscaled ones.
  static constexpr double kReferenceMs = 18.0;

  /// Builds the reference graph and starts `threads` - 1 worker threads
  /// (not timed).
  explicit HostProbe(std::size_t threads);
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the reference task on the calling thread and returns its wall time
  /// in ms. The task is a fixed set of independent-cascade style traversals
  /// (random reads over a 2 MiB graph, a coin flip per arc), the access
  /// pattern of the diffusion kernels.
  double narrow_ms();

  /// Runs the reference task once per thread, spread over the calling thread
  /// and the workers, and returns the wall time until all of it is done, in
  /// ms. Like ThreadPool::parallel_for, the cascades are dealt one at a time
  /// from a shared counter and the sample waits only for cascades taken, so
  /// a stalled core costs it what that core holds, not more.
  double wide_ms();

 private:
  struct Scratch {
    std::vector<std::uint32_t> stamp;
    std::vector<std::uint32_t> queue;
    std::uint32_t epoch = 0;
    std::uint64_t visited = 0;  ///< kept so the traversals are not elided
  };
  /// Runs cascade number `c` (the same cascade every time it is given).
  void cascade(std::uint32_t c, Scratch& s);
  /// Takes cascades of the current wide sample until none is left.
  void take_cascades(Scratch& s);
  void worker(std::size_t id);

  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<Scratch> scratch_;  ///< one per thread; 0 is the caller's

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  ///< wide samples started
  bool stop_ = false;
  std::atomic<std::uint32_t> units_{0};
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint32_t> done_{0};
  std::vector<std::thread> workers_;
};

}  // namespace lcrb::perfbench
