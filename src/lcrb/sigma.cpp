#include "lcrb/sigma.h"

#include <atomic>

#include "lcrb/sigma_engine.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace lcrb {

std::string to_string(SigmaPath p) {
  switch (p) {
    case SigmaPath::kRealizationCache: return "realization_cache";
    case SigmaPath::kLegacySimulate: return "legacy_simulate";
  }
  return "unknown";
}

std::string to_string(SigmaFallbackReason r) {
  switch (r) {
    case SigmaFallbackReason::kNone: return "none";
    case SigmaFallbackReason::kDisabled: return "disabled";
    case SigmaFallbackReason::kUnsupportedModel: return "unsupported_model";
    case SigmaFallbackReason::kByteCap: return "byte_cap";
  }
  return "unknown";
}

SigmaEstimator::SigmaEstimator(GraphRef g, std::vector<NodeId> rumors,
                               std::vector<NodeId> bridge_ends,
                               const SigmaConfig& cfg, ThreadPool* pool)
    : g_(g),
      rumors_(std::move(rumors)),
      bridge_ends_(std::move(bridge_ends)),
      cfg_(cfg),
      pool_(pool) {
  LCRB_REQUIRE(cfg_.samples >= 1, "need at least one sample");
  LCRB_REQUIRE(!rumors_.empty(), "need rumor originators");

  Rng master(cfg_.seed);
  sample_seeds_.resize(cfg_.samples);
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    sample_seeds_[i] = master.fork(i).next();
  }

  const std::size_t estimated = SigmaEngine::estimated_bytes(g_, cfg_);
  const bool cache_fits =
      cfg_.max_cache_bytes == 0 || estimated <= cfg_.max_cache_bytes;
  if (!cfg_.use_realization_cache) {
    fallback_reason_ = SigmaFallbackReason::kDisabled;
  } else if (!SigmaEngine::supports(cfg_.model)) {
    fallback_reason_ = SigmaFallbackReason::kUnsupportedModel;
  } else if (!cache_fits) {
    // The caller asked for the cache and the model supports it, but the
    // byte cap silently downgraded to per-sample re-simulation — that is a
    // real perf cliff, so say so (once per process; repeats at debug level).
    fallback_reason_ = SigmaFallbackReason::kByteCap;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      LCRB_LOG_WARN << "sigma: realization cache requested but its estimated "
                    << estimated << " bytes exceed max_cache_bytes "
                    << cfg_.max_cache_bytes
                    << "; falling back to the legacy simulate() path "
                    << "(~5x slower per evaluation)";
    } else {
      LCRB_LOG_DEBUG << "sigma: byte-cap fallback to legacy path (estimated "
                     << estimated << " > cap " << cfg_.max_cache_bytes << ")";
    }
  }
  if (fallback_reason_ == SigmaFallbackReason::kNone) {
    // The engine runs the rumor-only baselines itself while materializing
    // each sample's realization.
    engine_ = std::make_unique<SigmaEngine>(g_, rumors_, bridge_ends_,
                                            sample_seeds_, cfg_, pool_);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cfg_.samples; ++i) {
      total += engine_->baseline_infected(i);
    }
    baseline_infected_mean_ =
        static_cast<double>(total) / static_cast<double>(cfg_.samples);
    return;
  }

  // Legacy path: run every sample with no protectors and record which bridge
  // ends get infected. Per-sample counts land in their own slots and are
  // reduced in sample order, so the result is thread-schedule independent.
  baseline_infected_.assign(cfg_.samples,
                            std::vector<bool>(bridge_ends_.size(), false));
  MonteCarloConfig mc;
  mc.max_hops = cfg_.max_hops;
  mc.model = cfg_.model;
  mc.ic_edge_prob = cfg_.ic_edge_prob;

  std::vector<std::uint64_t> counts(cfg_.samples, 0);
  auto run_baseline = [&](std::size_t i) {
    SeedSets seeds;
    seeds.rumors = rumors_;
    const DiffusionResult r = g_.visit([&](const auto& gr) {
      return simulate(gr, seeds, sample_seeds_[i], mc);
    });
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < bridge_ends_.size(); ++b) {
      if (r.state[bridge_ends_[b]] == NodeState::kInfected) {
        baseline_infected_[i][b] = true;
        ++count;
      }
    }
    counts[i] = count;
  };
  if (pool_ != nullptr && cfg_.samples > 1) {
    pool_->parallel_for(cfg_.samples, run_baseline);
  } else {
    for (std::size_t i = 0; i < cfg_.samples; ++i) run_baseline(i);
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cfg_.samples; ++i) total += counts[i];
  baseline_infected_mean_ =
      static_cast<double>(total) / static_cast<double>(cfg_.samples);
}

SigmaEstimator::~SigmaEstimator() = default;

SigmaEstimator::SampleOutcome SigmaEstimator::evaluate_sample(
    std::size_t i, std::span<const NodeId> protectors) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  if (engine_ != nullptr) {
    const SigmaEngine::Outcome o = engine_->evaluate(i, protectors);
    return {static_cast<double>(o.saved), static_cast<double>(o.uninfected)};
  }

  MonteCarloConfig mc;
  mc.max_hops = cfg_.max_hops;
  mc.model = cfg_.model;
  mc.ic_edge_prob = cfg_.ic_edge_prob;

  SeedSets seeds;
  seeds.rumors = rumors_;
  seeds.protectors.assign(protectors.begin(), protectors.end());
  const DiffusionResult r = g_.visit([&](const auto& gr) {
    return simulate(gr, seeds, sample_seeds_[i], mc);
  });
  // Visit proxy for a full simulation: every node the run activated.
  legacy_visits_.fetch_add(
      r.infected_count() + r.protected_count(), std::memory_order_relaxed);

  SampleOutcome out{0.0, 0.0};
  for (std::size_t b = 0; b < bridge_ends_.size(); ++b) {
    const bool infected = r.state[bridge_ends_[b]] == NodeState::kInfected;
    if (!infected) {
      out.uninfected += 1.0;
      if (baseline_infected_[i][b]) out.saved_vs_baseline += 1.0;
    }
  }
  return out;
}

SigmaEstimator::Totals SigmaEstimator::evaluate_all(
    std::span<const NodeId> protectors) const {
  // Per-sample outcomes land in preassigned slots; the reduction below runs
  // serially in sample order. Outcomes are integer-valued bridge-end counts
  // (exact in double), so parallel and serial runs agree bit for bit.
  std::vector<SampleOutcome> outcomes(cfg_.samples);
  auto eval_one = [&](std::size_t i) {
    outcomes[i] = evaluate_sample(i, protectors);
  };
  if (pool_ != nullptr && cfg_.samples > 1) {
    pool_->parallel_for(cfg_.samples, eval_one);
  } else {
    for (std::size_t i = 0; i < cfg_.samples; ++i) eval_one(i);
  }
  Totals t;
  for (std::size_t i = 0; i < cfg_.samples; ++i) {
    t.saved += outcomes[i].saved_vs_baseline;
    t.uninfected += outcomes[i].uninfected;
  }
  return t;
}

std::uint64_t SigmaEstimator::nodes_visited() const {
  return engine_ != nullptr
             ? engine_->nodes_visited()
             : legacy_visits_.load(std::memory_order_relaxed);
}

std::size_t SigmaEstimator::memory_bytes() const {
  std::size_t bytes = sizeof(*this) +
                      sample_seeds_.capacity() * sizeof(std::uint64_t);
  if (engine_ != nullptr) {
    bytes += engine_->realization_bytes();
  }
  for (const std::vector<bool>& bits : baseline_infected_) {
    bytes += bits.capacity() / 8;
  }
  return bytes + trajectory_bytes_.load(std::memory_order_relaxed);
}

std::size_t GreedyTrajectory::memory_bytes() const {
  return sizeof(*this) + candidates.capacity() * sizeof(NodeId) +
         picks.capacity() * sizeof(NodeId) +
         gains.capacity() * sizeof(double) +
         fractions.capacity() * sizeof(double) +
         calls.capacity() * sizeof(std::size_t) +
         heap.capacity() * sizeof(HeapEntry) + used.capacity() / 8;
}

void SigmaEstimator::count_trajectory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, t] : trajectories_) {
    bytes += sizeof(key) + t.memory_bytes();
  }
  trajectory_bytes_.store(bytes, std::memory_order_relaxed);
}

double SigmaEstimator::sigma(std::span<const NodeId> protectors) const {
  return evaluate_all(protectors).saved / static_cast<double>(cfg_.samples);
}

double SigmaEstimator::protected_fraction(
    std::span<const NodeId> protectors) const {
  if (bridge_ends_.empty()) return 1.0;
  return evaluate_all(protectors).uninfected /
         static_cast<double>(cfg_.samples) /
         static_cast<double>(bridge_ends_.size());
}

}  // namespace lcrb
