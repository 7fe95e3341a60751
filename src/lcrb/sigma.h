// Monte-Carlo estimator of the protector influence function sigma(A)
// (paper §V-A): the expected number of bridge ends saved by seeding
// protectors at A, i.e. E|PB(A)|.
//
// Sampling uses common random numbers: sample i fixes every node's pick
// stream (OPOAO) or the live-edge/threshold draw (IC/LT), so evaluating
// different protector sets on sample i realizes the paper's coupled random
// graphs G_R/G_P. That keeps greedy marginal gains low-variance and
// per-sample monotone/submodular (Lemma 4).
//
// Evaluations are served by the sample-realization cache (SigmaEngine) when
// the model supports it: the per-sample randomness is materialized once at
// construction and every sigma(A) call is a cheap deterministic replay —
// same results as the legacy simulate()-based path, bit for bit. Per-sample
// outcomes are integer counts and cross-sample reductions run in fixed
// sample order, so results are bit-identical across thread counts.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "diffusion/montecarlo.h"
#include "graph/backend.h"
#include "util/threadpool.h"
#include "util/types.h"

namespace lcrb {

class SigmaEngine;

/// Which machinery actually serves sigma evaluations (tests and benches
/// assert on this instead of inferring it from timings).
enum class SigmaPath : std::uint8_t {
  kRealizationCache,  ///< SigmaEngine replay
  kLegacySimulate,    ///< per-sample simulate() re-runs
};

/// Why the estimator is NOT on the realization cache.
enum class SigmaFallbackReason : std::uint8_t {
  kNone,              ///< not a fallback: the cache is serving
  kDisabled,          ///< use_realization_cache = false
  kUnsupportedModel,  ///< DOAM (deterministic, never cached)
  kByteCap,           ///< estimated cache size exceeds max_cache_bytes
};

std::string to_string(SigmaPath p);
std::string to_string(SigmaFallbackReason r);

struct SigmaConfig {
  std::size_t samples = 50;
  std::uint64_t seed = 7;
  std::uint32_t max_hops = 31;
  DiffusionModel model = DiffusionModel::kOpoao;
  double ic_edge_prob = 0.1;
  /// Serve evaluations from the per-sample realization cache (SigmaEngine)
  /// when the model supports it. false forces the legacy re-simulation path
  /// (kept as the reference implementation; results are identical).
  bool use_realization_cache = true;
  /// Fall back to the legacy path when the realization cache would exceed
  /// this many bytes (dominant term: OPOAO pick tables at
  /// 4B x nodes x max_hops x samples). 0 disables the cap.
  std::size_t max_cache_bytes = std::size_t{1} << 30;
};

/// Which greedy run a trajectory belongs to: the knobs that fix the pick
/// sequence on a given estimator. Budget and alpha are not part of it — they
/// only decide where a run stops.
struct GreedyTrajectoryKey {
  std::uint8_t candidates = 0;  ///< CandidateStrategy
  std::size_t max_candidates = 0;
  bool use_celf = true;
  auto operator<=>(const GreedyTrajectoryKey&) const = default;
};

/// The picks a greedy run made on one estimator, kept so that a later run
/// with a different budget or alpha reads a prefix instead of starting over
/// (greedy.cpp fills and reads it). Index k of the per-pick vectors
/// describes the state after k picks.
struct GreedyTrajectory {
  /// CELF heap entry: stale gain, node, round when the gain was evaluated.
  struct HeapEntry {
    double gain;
    NodeId node;
    std::size_t round;
    bool operator<(const HeapEntry& o) const { return gain < o.gain; }
  };

  std::vector<NodeId> candidates;
  std::vector<NodeId> picks;
  std::vector<double> gains;       ///< gains[k]: marginal gain of picks[k]
  std::vector<double> fractions;   ///< protected fraction after k picks
  /// sigma calls a from-scratch run makes to reach k picks; empty until the
  /// run's first call sets up the k = 0 state.
  std::vector<std::size_t> calls;
  double sigma = 0.0;              ///< running sigma of the picks
  std::vector<HeapEntry> heap;     ///< CELF lazy heap after the last pick
  std::vector<bool> used;          ///< plain greedy: candidate slots picked
  /// No pick follows: the heap or the candidates ran out, or the last pick
  /// had zero gain.
  bool terminal = false;
  /// Terminal only: sigma calls a from-scratch run makes before it finds
  /// that no pick follows.
  std::size_t end_calls = 0;

  std::size_t memory_bytes() const;
};

/// Estimates sigma(A) and the protected fraction of the bridge ends for a
/// fixed rumor seed set. Thread-safe for concurrent evaluations.
class SigmaEstimator {
 public:
  /// `g` may reference either backend; the referenced graph must outlive
  /// the estimator (same contract as the old const DiGraph&).
  SigmaEstimator(GraphRef g, std::vector<NodeId> rumors,
                 std::vector<NodeId> bridge_ends, const SigmaConfig& cfg,
                 ThreadPool* pool = nullptr);
  ~SigmaEstimator();

  /// sigma-hat(A): mean over samples of |{v in B : infected without
  /// protectors, uninfected with A}|.
  double sigma(std::span<const NodeId> protectors) const;

  /// Mean fraction of bridge ends ending uninfected when A seeds cascade P.
  /// (The greedy's stopping rule: protect alpha |B| in expectation.)
  double protected_fraction(std::span<const NodeId> protectors) const;

  /// Mean number of bridge ends infected with no protectors at all.
  double baseline_infected() const { return baseline_infected_mean_; }

  const std::vector<NodeId>& bridge_ends() const { return bridge_ends_; }
  std::size_t samples() const { return cfg_.samples; }

  /// True when evaluations are served by the realization cache rather than
  /// by re-running simulate() per sample.
  bool uses_engine() const { return engine_ != nullptr; }

  /// The path serving sigma evaluations. When it is kLegacySimulate despite
  /// use_realization_cache = true, fallback_reason() says why (the byte-cap
  /// case additionally logs a one-time warning).
  SigmaPath served_by() const {
    return uses_engine() ? SigmaPath::kRealizationCache
                         : SigmaPath::kLegacySimulate;
  }
  SigmaFallbackReason fallback_reason() const { return fallback_reason_; }

  /// Number of single-sample evaluations performed so far (for the CELF
  /// ablation bench). Approximate under concurrency.
  std::size_t evaluations() const { return evals_; }

  /// Cumulative elementary node-touch operations spent on evaluations (engine
  /// replay ops, or activated-node counts on the legacy path) — the common
  /// cost currency of the MC-vs-RIS ablation. Exact once concurrent
  /// evaluations have finished.
  std::uint64_t nodes_visited() const;

  /// Heap footprint of the warm state (realization cache or legacy baseline
  /// bitsets, plus the stored greedy trajectories), for the session
  /// registry's byte accounting.
  std::size_t memory_bytes() const;

  /// Runs fn(GreedyTrajectory&) on the trajectory stored under `key`
  /// (created empty on first use). One lock guards every trajectory of this
  /// estimator and is held for the whole call, so concurrent greedy runs
  /// extend a trajectory one at a time. If fn throws, the trajectory is
  /// dropped: a half-made pick never reaches a later run.
  template <class Fn>
  auto with_trajectory(const GreedyTrajectoryKey& key, Fn&& fn) const {
    std::lock_guard<std::mutex> lock(trajectory_mu_);
    GreedyTrajectory& t = trajectories_[key];
    try {
      auto out = fn(t);
      count_trajectory_bytes();
      return out;
    } catch (...) {
      t = GreedyTrajectory{};
      count_trajectory_bytes();
      throw;
    }
  }

 private:
  struct SampleOutcome {
    double saved_vs_baseline;  ///< |PB(A)| in this sample
    double uninfected;         ///< |B| - infected(A) in this sample
  };
  struct Totals {
    double saved = 0.0;
    double uninfected = 0.0;
  };
  /// Re-counts trajectory bytes; caller holds trajectory_mu_.
  void count_trajectory_bytes() const;
  SampleOutcome evaluate_sample(std::size_t i,
                                std::span<const NodeId> protectors) const;
  /// Evaluates every sample (in parallel when a pool is attached) and
  /// reduces the per-sample outcomes in fixed sample order, so the result
  /// does not depend on thread scheduling.
  Totals evaluate_all(std::span<const NodeId> protectors) const;

  GraphRef g_;
  std::vector<NodeId> rumors_;
  std::vector<NodeId> bridge_ends_;
  SigmaConfig cfg_;
  ThreadPool* pool_;

  std::vector<std::uint64_t> sample_seeds_;
  std::unique_ptr<SigmaEngine> engine_;  ///< null = legacy path
  /// Legacy path only: baseline_infected_[i] = bridge-end indices infected
  /// in sample i with A = {} (bitset over bridge_ends_).
  std::vector<std::vector<bool>> baseline_infected_;
  double baseline_infected_mean_ = 0.0;
  SigmaFallbackReason fallback_reason_ = SigmaFallbackReason::kNone;
  mutable std::atomic<std::size_t> evals_{0};
  /// Legacy path's visit counter; the engine path reads SigmaEngine's.
  mutable std::atomic<std::uint64_t> legacy_visits_{0};
  mutable std::mutex trajectory_mu_;
  mutable std::map<GreedyTrajectoryKey, GreedyTrajectory> trajectories_;
  /// Kept outside the lock so memory_bytes() never waits on a greedy run.
  mutable std::atomic<std::size_t> trajectory_bytes_{0};
};

}  // namespace lcrb
