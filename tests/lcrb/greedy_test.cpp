#include "lcrb/greedy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>

#include "diffusion/doam.h"
#include "graph/builder.h"
#include "graph/ef_graph.h"
#include "graph/generators.h"
#include "lcrb/scbg.h"
#include "util/threadpool.h"

namespace lcrb {
namespace {

// Rumor community {0} -> two independent paths to two bridge ends.
// (Community 0 = {0}; community 1 = everything else.)
struct TwoPathFixture {
  DiGraph g = make_graph(7, {{0, 1}, {1, 2}, {2, 3},   // path A to bridge 1
                             {0, 4}, {4, 5}, {5, 6}}); // path B to bridge 4
  Partition p{std::vector<CommunityId>{0, 1, 1, 1, 1, 1, 1}};
};

GreedyConfig fast_cfg(double alpha = 0.99) {
  GreedyConfig cfg;
  cfg.alpha = alpha;
  cfg.sigma.samples = 20;
  cfg.sigma.seed = 5;
  cfg.sigma.max_hops = 30;
  return cfg;
}

TEST(GreedyLcrbp, ProtectsBothBranches) {
  TwoPathFixture f;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, fast_cfg());
  // Bridge ends are 1 and 4 (direct out-neighbors of the rumor). The only
  // way to save them is to seed protectors exactly there.
  EXPECT_GE(r.achieved_fraction, 0.99);
  std::vector<NodeId> sorted = r.protectors;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeId>{1, 4}));
}

TEST(GreedyLcrbp, AlphaHalfNeedsOnlyOneProtector) {
  TwoPathFixture f;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, fast_cfg(0.5));
  EXPECT_EQ(r.protectors.size(), 1u);
  EXPECT_GE(r.achieved_fraction, 0.5);
}

TEST(GreedyLcrbp, MaxProtectorsCapRespected) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg(1.0);
  cfg.max_protectors = 1;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  EXPECT_EQ(r.protectors.size(), 1u);
}

TEST(GreedyLcrbp, NoBridgeEndsIsTriviallyDone) {
  // Rumor community with no outgoing boundary.
  const DiGraph g = make_graph(3, {{0, 1}});
  const Partition p(std::vector<CommunityId>{0, 0, 1});
  const GreedyResult r = greedy_lcrbp(g, p, 0, std::vector<NodeId>{0},
                                      fast_cfg());
  EXPECT_TRUE(r.protectors.empty());
  EXPECT_DOUBLE_EQ(r.achieved_fraction, 1.0);
}

TEST(GreedyLcrbp, CelfMatchesPlainGreedy) {
  TwoPathFixture f;
  GreedyConfig celf = fast_cfg();
  celf.use_celf = true;
  GreedyConfig plain = fast_cfg();
  plain.use_celf = false;
  const GreedyResult a =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, celf);
  const GreedyResult b =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, plain);
  std::vector<NodeId> sa = a.protectors, sb = b.protectors;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
  // CELF must not use more evaluations than the plain re-evaluation loop.
  EXPECT_LE(a.sigma_evaluations, b.sigma_evaluations);
}

TEST(GreedyLcrbp, GainHistoryNonIncreasingOnDeterministicGraph) {
  TwoPathFixture f;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, fast_cfg());
  for (std::size_t i = 1; i < r.gain_history.size(); ++i) {
    EXPECT_LE(r.gain_history[i], r.gain_history[i - 1] + 1e-9);
  }
}

TEST(GreedyLcrbp, CandidateStrategies) {
  TwoPathFixture f;
  for (auto strat : {CandidateStrategy::kBbstUnion,
                     CandidateStrategy::kAllNodes,
                     CandidateStrategy::kBridgeEnds}) {
    GreedyConfig cfg = fast_cfg();
    cfg.candidates = strat;
    const GreedyResult r =
        greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
    EXPECT_GE(r.achieved_fraction, 0.99) << to_string(strat);
    EXPECT_GT(r.candidate_count, 0u);
  }
}

TEST(GreedyLcrbp, BbstUnionSmallerThanAllNodes) {
  TwoPathFixture f;
  GreedyConfig un = fast_cfg();
  un.candidates = CandidateStrategy::kBbstUnion;
  GreedyConfig all = fast_cfg();
  all.candidates = CandidateStrategy::kAllNodes;
  const GreedyResult a =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, un);
  const GreedyResult b =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, all);
  EXPECT_LT(a.candidate_count, b.candidate_count);
}

TEST(GreedyLcrbp, InvalidAlphaThrows) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.alpha = 0.0;
  EXPECT_THROW(greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg), Error);
  cfg.alpha = 1.5;
  EXPECT_THROW(greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg), Error);
}

TEST(GreedyLcrbp, DoamSigmaReachesFullProtectionLikeScbg) {
  // The greedy is model-agnostic: with sigma targeting DOAM (deterministic,
  // one sample suffices) and alpha = 1, it must fully protect the bridge
  // ends, the guarantee SCBG provides by construction.
  CommunityGraphConfig cg_cfg;
  cg_cfg.community_sizes = {50, 50, 50};
  cg_cfg.avg_inter_degree = 1.0;
  cg_cfg.seed = 19;
  const CommunityGraph cg = make_community_graph(cg_cfg);
  const Partition p(cg.membership);
  const std::vector<NodeId> rumors{p.members(0)[0], p.members(0)[1]};

  GreedyConfig cfg;
  cfg.alpha = 1.0;
  cfg.sigma.model = DiffusionModel::kDoam;
  cfg.sigma.samples = 1;
  cfg.max_protectors = 200;
  const GreedyResult r = greedy_lcrbp(cg.graph, p, 0, rumors, cfg);
  EXPECT_DOUBLE_EQ(r.achieved_fraction, 1.0);

  // Sanity against SCBG on the same instance: both fully protect; the
  // set-cover greedy should not be drastically worse than the sigma greedy.
  const ScbgResult sc = scbg(cg.graph, p, 0, rumors);
  SeedSets seeds{rumors, r.protectors};
  const BridgeEndResult b = find_bridge_ends(cg.graph, p, 0, rumors);
  const auto saved = doam_saved(cg.graph, seeds, b.bridge_ends);
  for (bool s : saved) EXPECT_TRUE(s);
  EXPECT_LE(sc.protectors.size(), r.protectors.size() + 5);
}

TEST(GreedyLcrbp, MaxCandidatesCapsPoolButKeepsQuality) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.max_candidates = 2;
  const GreedyResult r =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  EXPECT_LE(r.candidate_count, 2u);
  // Nodes 1 and 4 sit in the most BBSTs... each sits in exactly one; the
  // rank-by-membership truncation must still leave a pool that can make
  // progress (both bridge ends are their own best protectors).
  EXPECT_GT(r.achieved_fraction, 0.0);
}

TEST(GreedyLcrbp, MaxCandidatesZeroMeansUnlimited) {
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg();
  cfg.max_candidates = 0;
  const GreedyResult a =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  cfg.max_candidates = 1000000;
  const GreedyResult b =
      greedy_lcrbp(f.g, f.p, 0, std::vector<NodeId>{0}, cfg);
  EXPECT_EQ(a.candidate_count, b.candidate_count);
}

// ---------------------------------------------------------------------------
// Resumable trajectory: a greedy run on a warm estimator reads the picks an
// earlier run stored and extends them only when it needs more. Every answer
// must equal a from-scratch run on a private estimator, bit for bit.
// ---------------------------------------------------------------------------

template <class G>
class GreedyTrajectoryTest : public ::testing::Test {
 protected:
  struct Instance {
    G g;
    std::vector<NodeId> rumors;
    BridgeEndResult bridges;
  };

  static Instance make_instance(const DiGraph& csr, const Partition& p,
                                std::vector<NodeId> rumors) {
    Instance in;
    in.bridges = find_bridge_ends(csr, p, 0, rumors);
    in.rumors = std::move(rumors);
    if constexpr (std::is_same_v<G, DiGraph>) {
      in.g = csr;
    } else {
      in.g = EfGraph::from_csr(csr);
    }
    return in;
  }

  /// Three planted communities; the rumors sit in community 0, whose many
  /// bridge ends keep the greedy making positive-gain picks well past six.
  static Instance community_instance() {
    CommunityGraphConfig cfg;
    cfg.community_sizes = {40, 40, 40};
    cfg.avg_intra_degree = 6.0;
    cfg.avg_inter_degree = 1.5;
    cfg.seed = 12;
    const CommunityGraph cg = make_community_graph(cfg);
    const Partition p(cg.membership);
    return make_instance(cg.graph, p, {p.members(0)[0], p.members(0)[1]});
  }

  /// The two-path fixture plus a rumor-free component whose nodes out-rank
  /// the paths on out-degree. With kAllNodes capped at three candidates the
  /// pool is {1, 7, 8}: after node 1 only zero-gain picks remain, and the
  /// other bridge end (4) cannot be saved.
  static Instance zero_gain_instance() {
    const DiGraph g = make_graph(10, {{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5},
                                      {5, 6}, {7, 8}, {7, 9}, {8, 7}, {8, 9},
                                      {9, 7}});
    const Partition p(std::vector<CommunityId>{0, 1, 1, 1, 1, 1, 1, 1, 1, 1});
    return make_instance(g, p, {0});
  }

  static GreedyConfig config(bool celf, double alpha, std::size_t budget) {
    GreedyConfig cfg;
    cfg.alpha = alpha;
    cfg.max_protectors = budget;
    cfg.use_celf = celf;
    cfg.max_candidates = 30;
    cfg.sigma.samples = 8;
    cfg.sigma.seed = 3;
    return cfg;
  }

  static std::unique_ptr<SigmaEstimator> estimator(const Instance& in,
                                                   const GreedyConfig& cfg,
                                                   ThreadPool* pool = nullptr) {
    return std::make_unique<SigmaEstimator>(in.g, in.rumors,
                                            in.bridges.bridge_ends, cfg.sigma,
                                            pool);
  }

  /// A from-scratch run on a private estimator; `evals` receives the
  /// single-run evaluations that estimator performed.
  static GreedyResult fresh(const Instance& in, const GreedyConfig& cfg,
                            std::size_t* evals = nullptr) {
    const auto est = estimator(in, cfg);
    GreedyResult r = greedy_lcrbp_with_estimator(in.g, in.rumors, in.bridges,
                                                 cfg, *est);
    if (evals != nullptr) *evals = est->evaluations();
    return r;
  }

  static void expect_same(const GreedyResult& got, const GreedyResult& want,
                          const std::string& what) {
    EXPECT_EQ(got.protectors, want.protectors) << what;
    ASSERT_EQ(got.gain_history.size(), want.gain_history.size()) << what;
    for (std::size_t i = 0; i < got.gain_history.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.gain_history[i]),
                std::bit_cast<std::uint64_t>(want.gain_history[i]))
          << what << ": gain " << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.achieved_fraction),
              std::bit_cast<std::uint64_t>(want.achieved_fraction))
        << what;
    EXPECT_EQ(got.sigma_evaluations, want.sigma_evaluations) << what;
    EXPECT_EQ(got.candidate_count, want.candidate_count) << what;
  }

  /// Runs `first` on a shared estimator, then `second` on the same one.
  /// Both must equal fresh runs, and the second must run fewer evaluations
  /// than its fresh counterpart.
  static void check_resume(const Instance& in, const GreedyConfig& first,
                           const GreedyConfig& second,
                           const std::string& what) {
    const auto shared = estimator(in, first);
    const GreedyResult a = greedy_lcrbp_with_estimator(
        in.g, in.rumors, in.bridges, first, *shared);
    expect_same(a, fresh(in, first), what + " (first)");
    EXPECT_EQ(a.prefix_picks, 0u) << what;
    EXPECT_EQ(a.sigma_evaluations_run, a.sigma_evaluations) << what;

    const std::size_t before = shared->evaluations();
    const GreedyResult b = greedy_lcrbp_with_estimator(
        in.g, in.rumors, in.bridges, second, *shared);
    const std::size_t ran = shared->evaluations() - before;
    std::size_t fresh_evals = 0;
    const GreedyResult want = fresh(in, second, &fresh_evals);
    expect_same(b, want, what + " (resumed)");
    EXPECT_EQ(fresh_evals, want.sigma_evaluations) << what;
    EXPECT_EQ(b.sigma_evaluations_run, ran) << what;
    EXPECT_LT(ran, fresh_evals) << what;
    EXPECT_EQ(b.prefix_picks,
              std::min(a.protectors.size(), b.protectors.size()))
        << what;
  }
};

using TrajectoryBackends = ::testing::Types<DiGraph, EfGraph>;
TYPED_TEST_SUITE(GreedyTrajectoryTest, TrajectoryBackends);

TYPED_TEST(GreedyTrajectoryTest, LargerBudgetExtendsTheStoredPicks) {
  const auto in = this->community_instance();
  for (bool celf : {true, false}) {
    const GreedyConfig six = this->config(celf, 1.0, 6);
    ASSERT_EQ(this->fresh(in, six).protectors.size(), 6u);
    this->check_resume(in, this->config(celf, 1.0, 4), six,
                       celf ? "celf 4->6" : "plain 4->6");
  }
}

TYPED_TEST(GreedyTrajectoryTest, SmallerBudgetReadsAPrefix) {
  const auto in = this->community_instance();
  for (bool celf : {true, false}) {
    this->check_resume(in, this->config(celf, 1.0, 6),
                       this->config(celf, 1.0, 4),
                       celf ? "celf 6->4" : "plain 6->4");
  }
}

TYPED_TEST(GreedyTrajectoryTest, AlphaSweepMatchesFreshRuns) {
  const auto in = this->community_instance();
  for (bool celf : {true, false}) {
    const std::string mode = celf ? "celf" : "plain";
    const auto shared = this->estimator(in, this->config(celf, 0.5, 0));
    for (double alpha : {0.5, 0.9, 0.7}) {
      const GreedyConfig cfg = this->config(celf, alpha, 0);
      const std::size_t before = shared->evaluations();
      const GreedyResult r = greedy_lcrbp_with_estimator(
          in.g, in.rumors, in.bridges, cfg, *shared);
      std::size_t fresh_evals = 0;
      const GreedyResult want = this->fresh(in, cfg, &fresh_evals);
      const std::string what = mode + " alpha " + std::to_string(alpha);
      this->expect_same(r, want, what);
      EXPECT_EQ(r.sigma_evaluations_run, shared->evaluations() - before)
          << what;
      if (alpha != 0.5) {
        EXPECT_LT(r.sigma_evaluations_run, fresh_evals) << what;
      }
    }
  }
}

TYPED_TEST(GreedyTrajectoryTest, ZeroGainStopIsTerminal) {
  const auto in = this->zero_gain_instance();
  for (bool celf : {true, false}) {
    GreedyConfig first = this->config(celf, 0.99, 5);
    first.candidates = CandidateStrategy::kAllNodes;
    first.max_candidates = 3;
    GreedyConfig second = first;
    second.max_protectors = 8;
    const GreedyResult stop = this->fresh(in, first);
    ASSERT_EQ(stop.protectors.size(), 2u);
    EXPECT_EQ(stop.protectors[0], 1u);
    EXPECT_EQ(stop.gain_history[1], 0.0);
    EXPECT_LT(stop.achieved_fraction, 0.99);
    this->check_resume(in, first, second,
                       celf ? "celf zero gain" : "plain zero gain");
  }
}

TYPED_TEST(GreedyTrajectoryTest, ConcurrentCallersMatchSequentialRuns) {
  const auto in = this->community_instance();
  struct Ask {
    double alpha;
    std::size_t budget;
  };
  const std::vector<Ask> asks = {{1.0, 6}, {0.5, 0}, {1.0, 3}, {0.9, 0}};
  for (bool celf : {true, false}) {
    std::vector<GreedyResult> want;
    for (const Ask& a : asks) {
      want.push_back(this->fresh(in, this->config(celf, a.alpha, a.budget)));
    }
    ThreadPool pool(2);
    const auto shared = this->estimator(in, this->config(celf, 1.0, 0), &pool);
    std::vector<GreedyResult> got(asks.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < asks.size(); ++i) {
      threads.emplace_back([&, i] {
        const GreedyConfig cfg =
            this->config(celf, asks[i].alpha, asks[i].budget);
        got[i] = greedy_lcrbp_with_estimator(in.g, in.rumors, in.bridges,
                                             cfg, *shared, &pool);
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < asks.size(); ++i) {
      this->expect_same(got[i], want[i],
                        (celf ? "celf ask " : "plain ask ") +
                            std::to_string(i));
    }
  }
}

TYPED_TEST(GreedyTrajectoryTest, TrajectoryBytesAreCounted) {
  const auto in = this->community_instance();
  const GreedyConfig cfg = this->config(true, 1.0, 4);
  const auto est = this->estimator(in, cfg);
  const std::size_t cold = est->memory_bytes();
  greedy_lcrbp_with_estimator(in.g, in.rumors, in.bridges, cfg, *est);
  const std::size_t warm = est->memory_bytes();
  // At least the candidate list and the CELF heap are now resident.
  EXPECT_GE(warm, cold + 30 * (sizeof(NodeId) +
                               sizeof(GreedyTrajectory::HeapEntry)));
}

TEST(GreedyMulti, UncoordinatedCountsTheDeployedUnionInSamples) {
  // Equal budgets: the second campaign reads the first one's picks from the
  // trajectory, yet reports what a from-scratch run costs. The final
  // protected_fraction on the deployed union costs one call of `samples`
  // single-run evaluations.
  TwoPathFixture f;
  GreedyConfig cfg = fast_cfg(1.0);
  const std::vector<NodeId> rumors{0};
  const BridgeEndResult bridges = find_bridge_ends(f.g, f.p, 0, rumors);
  const std::vector<std::size_t> one{1};
  const std::vector<std::size_t> two{1, 1};
  const MultiGreedyResult single = greedy_multi_from_bridges(
      f.g, rumors, bridges, cfg, one, MultiCascadeMode::kUncoordinated);
  const MultiGreedyResult pair = greedy_multi_from_bridges(
      f.g, rumors, bridges, cfg, two, MultiCascadeMode::kUncoordinated);
  const std::size_t per_run = single.combined.sigma_evaluations -
                              cfg.sigma.samples;
  EXPECT_EQ(pair.combined.sigma_evaluations,
            2 * per_run + cfg.sigma.samples);
  EXPECT_EQ(pair.combined.prefix_picks, 1u);
  EXPECT_LT(pair.combined.sigma_evaluations_run,
            pair.combined.sigma_evaluations);
}

TEST(GreedyLcrbp, StrategyNames) {
  EXPECT_EQ(to_string(CandidateStrategy::kBbstUnion), "bbst_union");
  EXPECT_EQ(to_string(CandidateStrategy::kAllNodes), "all_nodes");
  EXPECT_EQ(to_string(CandidateStrategy::kBridgeEnds), "bridge_ends");
}

}  // namespace
}  // namespace lcrb
