#include "lcrb/greedy.h"

#include "graph/ef_graph.h"
#include "graph/graph.h"

#include <algorithm>
#include <limits>

#include "lcrb/bbst.h"
#include "util/error.h"
#include "util/log.h"

namespace lcrb {

std::string to_string(CandidateStrategy s) {
  switch (s) {
    case CandidateStrategy::kBbstUnion: return "bbst_union";
    case CandidateStrategy::kAllNodes: return "all_nodes";
    case CandidateStrategy::kBridgeEnds: return "bridge_ends";
  }
  return "unknown";
}

std::string to_string(MultiCascadeMode m) {
  switch (m) {
    case MultiCascadeMode::kOff: return "off";
    case MultiCascadeMode::kCoordinated: return "coordinated";
    case MultiCascadeMode::kUncoordinated: return "uncoordinated";
  }
  return "unknown";
}

namespace {

template <class G>
std::vector<NodeId> make_candidates(const G& g,
                                    std::span<const NodeId> rumors,
                                    const BridgeEndResult& bridges,
                                    CandidateStrategy strategy,
                                    std::size_t max_candidates) {
  std::vector<bool> excluded(g.num_nodes(), false);
  for (NodeId r : rumors) excluded[r] = true;

  std::vector<NodeId> out;
  // Truncation rank: BBST-membership count where available, out-degree
  // otherwise.
  std::vector<std::uint32_t> rank(g.num_nodes(), 0);
  bool have_rank = false;

  switch (strategy) {
    case CandidateStrategy::kBridgeEnds:
      for (NodeId v : bridges.bridge_ends) {
        if (!excluded[v]) out.push_back(v);
      }
      break;
    case CandidateStrategy::kAllNodes:
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!excluded[v]) out.push_back(v);
      }
      break;
    case CandidateStrategy::kBbstUnion: {
      const std::vector<Bbst> bbsts = build_all_bbsts(
          g, bridges.bridge_ends, bridges.rumor_dist, rumors);
      for (const Bbst& q : bbsts) {
        for (NodeId u : q.nodes) ++rank[u];
      }
      have_rank = true;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (rank[v] > 0 && !excluded[v]) out.push_back(v);
      }
      break;
    }
  }

  if (max_candidates > 0 && out.size() > max_candidates) {
    if (!have_rank) {
      for (NodeId v : out) rank[v] = g.out_degree(v);
    }
    std::stable_sort(out.begin(), out.end(), [&rank](NodeId a, NodeId b) {
      return rank[a] > rank[b];
    });
    out.resize(max_candidates);
    std::sort(out.begin(), out.end());
  }
  return out;
}

/// Sigma calls made on a trajectory so far.
std::size_t calls_made(const GreedyTrajectory& t) {
  if (t.calls.empty()) return 0;
  return t.terminal ? t.end_calls : t.calls.back();
}

void mark_terminal(GreedyTrajectory& t, std::size_t calls) {
  t.terminal = true;
  t.end_calls = calls;
}

double gain_of(const GreedyTrajectory& t, const SigmaEstimator& estimator,
               NodeId v) {
  std::vector<NodeId> with = t.picks;
  with.push_back(v);
  return estimator.sigma(with) - t.sigma;
}

/// Evaluates gains[i] = gain_of(candidates[i]) for every slot not marked
/// in `skip`, in parallel when a pool is attached.
void evaluate_gains(const GreedyTrajectory& t, const SigmaEstimator& estimator,
                    const std::vector<bool>& skip, std::vector<double>& gains,
                    ThreadPool* pool) {
  const std::vector<NodeId>& candidates = t.candidates;
  gains.assign(candidates.size(), 0.0);
  auto eval = [&](std::size_t i) {
    // NaN never compares greater-or-equal: skipped slots can't win an argmax.
    gains[i] = !skip.empty() && skip[i]
                   ? std::numeric_limits<double>::quiet_NaN()
                   : gain_of(t, estimator, candidates[i]);
  };
  if (pool != nullptr && candidates.size() > 1) {
    pool->parallel_for(candidates.size(), eval);
  } else {
    for (std::size_t i = 0; i < candidates.size(); ++i) eval(i);
  }
}

/// Sets up the state before the first pick: the empty set's protected
/// fraction and, for CELF, the round-0 gains every run evaluates up front.
void start(GreedyTrajectory& t, std::vector<NodeId> candidates, bool use_celf,
           const SigmaEstimator& estimator, ThreadPool* pool) {
  t.candidates = std::move(candidates);
  t.candidates.shrink_to_fit();  // kept for the estimator's lifetime
  t.fractions.push_back(estimator.protected_fraction({}));
  std::size_t calls = 1;
  if (use_celf) {
    std::vector<double> gains;
    evaluate_gains(t, estimator, {}, gains, pool);
    calls += t.candidates.size();
    t.heap.reserve(t.candidates.size());
    for (std::size_t i = 0; i < t.candidates.size(); ++i) {
      t.heap.push_back({gains[i], t.candidates[i], 0});
      std::push_heap(t.heap.begin(), t.heap.end());
    }
  } else {
    t.used.assign(t.candidates.size(), false);
  }
  t.calls.push_back(calls);
  if (t.candidates.empty()) mark_terminal(t, calls);
}

/// Appends a pick. A zero-gain pick ends every run that reaches it: either
/// alpha is met or the greedy stops early.
void accept(GreedyTrajectory& t, const SigmaEstimator& estimator, NodeId v,
            double gain, std::size_t calls) {
  t.picks.push_back(v);
  t.sigma += gain;
  t.gains.push_back(gain);
  t.fractions.push_back(estimator.protected_fraction(t.picks));
  t.calls.push_back(calls + 1);
  if (gain <= 0.0) mark_terminal(t, calls + 1);
}

/// One CELF pick from the saved lazy heap (submodularity makes stale upper
/// bounds sound). The heap is a binary heap on a vector, operated exactly as
/// std::priority_queue operates its container.
void celf_step(GreedyTrajectory& t, const SigmaEstimator& estimator) {
  std::vector<GreedyTrajectory::HeapEntry>& heap = t.heap;
  std::size_t calls = t.calls.back();
  for (;;) {
    std::pop_heap(heap.begin(), heap.end());
    GreedyTrajectory::HeapEntry top = heap.back();
    heap.pop_back();
    if (top.round != t.picks.size()) {
      top.gain = gain_of(t, estimator, top.node);
      ++calls;
      top.round = t.picks.size();
      if (!heap.empty() && top.gain < heap.front().gain) {
        heap.push_back(top);
        std::push_heap(heap.begin(), heap.end());
        continue;
      }
    }
    // Accept (even zero-gain picks: alpha may still be unreachable and the
    // caller's cap bounds the run).
    accept(t, estimator, top.node, top.gain, calls);
    break;
  }
  if (!t.terminal && heap.empty()) mark_terminal(t, t.calls.back());
}

/// One pick of the paper's plain greedy: re-evaluate every unused
/// candidate. Gains land in per-candidate slots and the argmax scans them in
/// candidate order afterwards — no mutex, and the pick (ties go to the
/// lowest node id) cannot depend on thread scheduling.
void plain_step(GreedyTrajectory& t, const SigmaEstimator& estimator,
                ThreadPool* pool) {
  std::vector<double> gains;
  evaluate_gains(t, estimator, t.used, gains, pool);
  const std::size_t calls =
      t.calls.back() + t.candidates.size() - t.picks.size();
  double best_gain = -1.0;
  NodeId best_node = kInvalidNode;
  std::size_t best_slot = 0;
  for (std::size_t i = 0; i < t.candidates.size(); ++i) {
    if (gains[i] > best_gain ||
        (gains[i] == best_gain && t.candidates[i] < best_node)) {
      best_gain = gains[i];
      best_node = t.candidates[i];
      best_slot = i;
    }
  }
  if (best_node == kInvalidNode) {
    mark_terminal(t, calls);
    return;
  }
  t.used[best_slot] = true;
  accept(t, estimator, best_node, best_gain, calls);
  if (!t.terminal && t.picks.size() == t.candidates.size()) {
    mark_terminal(t, t.calls.back());
  }
}

struct Served {
  std::size_t picks = 0;         ///< length of the answer's prefix
  std::size_t calls = 0;         ///< sigma calls of a from-scratch run
  std::size_t prefix_picks = 0;  ///< picks read from the stored trajectory
  std::size_t calls_run = 0;     ///< sigma calls this call actually made
};

/// Walks the trajectory with the loop of a from-scratch run — stop once
/// alpha is met, the cap is hit, no pick follows, or a pick had zero gain —
/// and extends it one pick at a time when the walk runs past its end.
Served serve(GreedyTrajectory& t, const GreedyConfig& cfg,
             const SigmaEstimator& estimator, ThreadPool* pool) {
  const std::size_t cap =
      cfg.max_protectors == 0 ? t.candidates.size() : cfg.max_protectors;
  const std::size_t stored = t.picks.size();
  Served s;
  std::size_t& k = s.picks;
  for (;;) {
    if (t.fractions[k] >= cfg.alpha || k >= cap) {
      s.calls = t.calls[k];
      break;
    }
    if (k == t.picks.size()) {
      if (t.terminal) {
        s.calls = t.end_calls;
        break;
      }
      if (cfg.use_celf) {
        celf_step(t, estimator);
      } else {
        plain_step(t, estimator, pool);
      }
      continue;
    }
    const double gain = t.gains[k++];
    if (gain <= 0.0) {
      if (cfg.use_celf && t.fractions[k] < cfg.alpha) {
        LCRB_LOG_WARN << "greedy: zero marginal gain with fraction "
                      << t.fractions[k] << " < alpha " << cfg.alpha
                      << "; stopping early";
      }
      s.calls = t.calls[k];
      break;
    }
  }
  s.prefix_picks = std::min(k, stored);
  return s;
}

}  // namespace

template <GraphView G>
GreedyResult greedy_lcrbp(const G& g, const Partition& p,
                          CommunityId rumor_community,
                          std::span<const NodeId> rumors,
                          const GreedyConfig& cfg, ThreadPool* pool) {
  const BridgeEndResult bridges =
      find_bridge_ends(g, p, rumor_community, rumors);
  return greedy_lcrbp_from_bridges(g, rumors, bridges, cfg, pool);
}

template <GraphView G>
GreedyResult greedy_lcrbp_from_bridges(const G& g,
                                       std::span<const NodeId> rumors,
                                       const BridgeEndResult& bridges,
                                       const GreedyConfig& cfg,
                                       ThreadPool* pool) {
  LCRB_REQUIRE(cfg.alpha > 0.0 && cfg.alpha <= 1.0, "alpha must be in (0,1]");

  GreedyResult out;
  if (bridges.bridge_ends.empty()) {
    out.achieved_fraction = 1.0;
    return out;
  }

  if (cfg.sigma_mode == SigmaMode::kRis) {
    // RR-set max coverage instead of Monte-Carlo gains. The diffusion knobs
    // mirror cfg.sigma so both modes estimate the same sigma; candidate
    // restriction is unnecessary — only nodes appearing in some RR set can
    // ever have positive coverage gain, which is the same pruning for free.
    RisConfig rc = cfg.ris;
    rc.model = cfg.sigma.model;
    rc.seed = cfg.sigma.seed;
    rc.max_hops = cfg.sigma.max_hops;
    rc.ic_edge_prob = cfg.sigma.ic_edge_prob;
    RisGreedyResult ris = ris_greedy_from_bridges(
        g, rumors, bridges, cfg.alpha, cfg.max_protectors, rc, pool);
    out.protectors = std::move(ris.protectors);
    out.achieved_fraction = ris.achieved_fraction;
    out.gain_history = std::move(ris.gain_history);
    out.sigma_evaluations = ris.rr_sets;
    out.candidate_count = ris.distinct_candidates;
    out.nodes_visited = ris.nodes_visited;
    out.ris_rounds = ris.rounds;
    out.ris_sigma_lower = ris.sigma_lower;
    out.ris_sigma_upper = ris.sigma_upper;
    out.ris_guarantee_met = ris.guarantee_met;
    out.ris_stop_reason = ris.stop_reason;
    return out;
  }

  SigmaEstimator estimator(g, {rumors.begin(), rumors.end()},
                           bridges.bridge_ends, cfg.sigma, pool);
  out = greedy_lcrbp_with_estimator(g, rumors, bridges, cfg, estimator, pool);
  // With a private estimator the visit counter is race-free; report it so
  // nodes_visited includes the estimator's internal work.
  out.nodes_visited = estimator.nodes_visited();
  return out;
}

template <GraphView G>
GreedyResult greedy_lcrbp_with_estimator(const G& g,
                                         std::span<const NodeId> rumors,
                                         const BridgeEndResult& bridges,
                                         const GreedyConfig& cfg,
                                         const SigmaEstimator& estimator,
                                         ThreadPool* pool) {
  LCRB_REQUIRE(cfg.alpha > 0.0 && cfg.alpha <= 1.0, "alpha must be in (0,1]");
  LCRB_REQUIRE(cfg.sigma_mode == SigmaMode::kMonteCarlo,
               "greedy_lcrbp_with_estimator is Monte-Carlo only");

  GreedyResult out;
  if (bridges.bridge_ends.empty()) {
    out.achieved_fraction = 1.0;
    return out;
  }

  const GreedyTrajectoryKey key{static_cast<std::uint8_t>(cfg.candidates),
                                cfg.max_candidates, cfg.use_celf};
  const Served served =
      estimator.with_trajectory(key, [&](GreedyTrajectory& t) {
        const std::size_t calls_before = calls_made(t);
        if (t.calls.empty()) {
          start(t,
                make_candidates(g, rumors, bridges, cfg.candidates,
                                cfg.max_candidates),
                cfg.use_celf, estimator, pool);
        }
        Served s = serve(t, cfg, estimator, pool);
        s.calls_run = calls_made(t) - calls_before;
        out.protectors.assign(t.picks.begin(), t.picks.begin() + s.picks);
        out.gain_history.assign(t.gains.begin(), t.gains.begin() + s.picks);
        out.achieved_fraction = t.fractions[s.picks];
        out.candidate_count = t.candidates.size();
        return s;
      });

  // Counted in sigma calls at the trajectory's (serial) call sites: one call
  // = cfg.sigma.samples single-run evaluations, the unit of
  // SigmaEstimator::evaluations() for a private estimator.
  out.sigma_evaluations = served.calls * cfg.sigma.samples;
  out.prefix_picks = served.prefix_picks;
  out.sigma_evaluations_run = served.calls_run * cfg.sigma.samples;
  // nodes_visited stays 0 here: the shared estimator's visit counter mixes
  // concurrent queries. greedy_lcrbp_from_bridges overwrites it.
  out.sigma_path = estimator.served_by();
  out.sigma_fallback = estimator.fallback_reason();
  return out;
}

template <GraphView G>
MultiGreedyResult greedy_multi_with_estimator(
    const G& g, std::span<const NodeId> rumors,
    const BridgeEndResult& bridges, const GreedyConfig& cfg,
    std::span<const std::size_t> budgets, MultiCascadeMode mode,
    const SigmaEstimator& estimator, ThreadPool* pool) {
  LCRB_REQUIRE(mode != MultiCascadeMode::kOff,
               "greedy_multi: mode must be coordinated or uncoordinated");
  LCRB_REQUIRE(!budgets.empty(), "greedy_multi: budgets must be non-empty");
  std::size_t total = 0;
  for (std::size_t b : budgets) {
    LCRB_REQUIRE(b > 0, "greedy_multi: every campaign budget must be > 0");
    total += b;
  }

  MultiGreedyResult out;
  out.groups.resize(budgets.size());

  if (mode == MultiCascadeMode::kCoordinated) {
    // One greedy over the summed budget; under the role-separable collapse
    // every pick helps every campaign, so the i-th pick goes to the next
    // campaign (round-robin) that still has budget left.
    GreedyConfig c = cfg;
    c.max_protectors = total;
    out.combined =
        greedy_lcrbp_with_estimator(g, rumors, bridges, c, estimator, pool);
    std::vector<std::size_t> left(budgets.begin(), budgets.end());
    std::size_t campaign = 0;
    for (NodeId v : out.combined.protectors) {
      while (left[campaign] == 0) campaign = (campaign + 1) % left.size();
      out.groups[campaign].push_back(v);
      --left[campaign];
      campaign = (campaign + 1) % left.size();
    }
    out.deployed = out.combined.protectors;
  } else {
    // Each campaign runs greedy with its own budget, blind to the others.
    // Equal-budget campaigns pick identical sets; the deployed union is
    // their dedup — Tong et al.'s uncoordinated setting.
    for (std::size_t ci = 0; ci < budgets.size(); ++ci) {
      GreedyConfig c = cfg;
      c.max_protectors = budgets[ci];
      GreedyResult r =
          greedy_lcrbp_with_estimator(g, rumors, bridges, c, estimator, pool);
      out.groups[ci] = r.protectors;
      out.combined.sigma_evaluations += r.sigma_evaluations;
      out.combined.prefix_picks += r.prefix_picks;
      out.combined.sigma_evaluations_run += r.sigma_evaluations_run;
      out.combined.gain_history.insert(out.combined.gain_history.end(),
                                       r.gain_history.begin(),
                                       r.gain_history.end());
      out.combined.candidate_count =
          std::max(out.combined.candidate_count, r.candidate_count);
      out.combined.sigma_path = r.sigma_path;
      out.combined.sigma_fallback = r.sigma_fallback;
      out.deployed.insert(out.deployed.end(), r.protectors.begin(),
                          r.protectors.end());
    }
    std::sort(out.deployed.begin(), out.deployed.end());
    out.deployed.erase(std::unique(out.deployed.begin(), out.deployed.end()),
                       out.deployed.end());
    out.combined.protectors = out.deployed;
    if (bridges.bridge_ends.empty()) {
      out.combined.achieved_fraction = 1.0;
    } else {
      // One protected_fraction call on the deployed union: samples
      // single-run evaluations, the unit of sigma_evaluations.
      out.combined.achieved_fraction =
          estimator.protected_fraction(out.deployed);
      out.combined.sigma_evaluations += cfg.sigma.samples;
      out.combined.sigma_evaluations_run += cfg.sigma.samples;
    }
  }
  std::sort(out.deployed.begin(), out.deployed.end());
  out.deployed.erase(std::unique(out.deployed.begin(), out.deployed.end()),
                     out.deployed.end());
  return out;
}

template <GraphView G>
MultiGreedyResult greedy_multi_from_bridges(
    const G& g, std::span<const NodeId> rumors,
    const BridgeEndResult& bridges, const GreedyConfig& cfg,
    std::span<const std::size_t> budgets, MultiCascadeMode mode,
    ThreadPool* pool) {
  LCRB_REQUIRE(cfg.sigma_mode == SigmaMode::kMonteCarlo,
               "greedy_multi is Monte-Carlo only");
  if (bridges.bridge_ends.empty()) {
    MultiGreedyResult out;
    out.groups.resize(budgets.size());
    out.combined.achieved_fraction = 1.0;
    return out;
  }
  SigmaEstimator estimator(g, {rumors.begin(), rumors.end()},
                           bridges.bridge_ends, cfg.sigma, pool);
  MultiGreedyResult out = greedy_multi_with_estimator(
      g, rumors, bridges, cfg, budgets, mode, estimator, pool);
  out.combined.nodes_visited = estimator.nodes_visited();
  return out;
}

#define LCRB_INSTANTIATE_GREEDY(G)                                            \
  template GreedyResult greedy_lcrbp<G>(const G&, const Partition&,           \
                                        CommunityId, std::span<const NodeId>, \
                                        const GreedyConfig&, ThreadPool*);    \
  template GreedyResult greedy_lcrbp_from_bridges<G>(                         \
      const G&, std::span<const NodeId>, const BridgeEndResult&,              \
      const GreedyConfig&, ThreadPool*);                                      \
  template GreedyResult greedy_lcrbp_with_estimator<G>(                       \
      const G&, std::span<const NodeId>, const BridgeEndResult&,              \
      const GreedyConfig&, const SigmaEstimator&, ThreadPool*);               \
  template MultiGreedyResult greedy_multi_with_estimator<G>(                  \
      const G&, std::span<const NodeId>, const BridgeEndResult&,              \
      const GreedyConfig&, std::span<const std::size_t>, MultiCascadeMode,    \
      const SigmaEstimator&, ThreadPool*);                                    \
  template MultiGreedyResult greedy_multi_from_bridges<G>(                    \
      const G&, std::span<const NodeId>, const BridgeEndResult&,              \
      const GreedyConfig&, std::span<const std::size_t>, MultiCascadeMode,    \
      ThreadPool*);

LCRB_INSTANTIATE_GREEDY(DiGraph)
LCRB_INSTANTIATE_GREEDY(EfGraph)

#undef LCRB_INSTANTIATE_GREEDY

}  // namespace lcrb
