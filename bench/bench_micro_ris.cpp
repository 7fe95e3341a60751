// MC-vs-RIS ablation (google-benchmark): the LCRB-P greedy with the
// Monte-Carlo SigmaEstimator against SigmaMode::kRis on the paper-figure
// analogs (Fig. 4: Hep under OPOAO; Fig. 7: Hep under DOAM), tiny scale.
//
// Counters:
//   visits_per_seed   sigma node-touch operations / protectors selected —
//                     the common cost currency of both modes
//   visit_ratio       MC visits_per_seed / RIS visits_per_seed (the
//                     acceptance bar is >= 5)
//   sigma_mc_ref,     both protector sets scored by one fresh reference
//   sigma_ris_ref     MC estimator on common random numbers
//   agreement_ok      1 when |sigma_mc_ref - sigma_ris_ref| <=
//                     eps * |B| + Hoeffding tolerance (matches the stat
//                     test's check)
//   ef_over_csr       BM_RisGenerate_Backend: OPOAO RR generation time on
//                     the Elias-Fano graph over CSR, same run
//   fused_over_seq    BM_RisGenerate_Pair: time to grow the selection and
//                     validation pools in one extend over two back-to-back
//                     extends, same run
//
// Regenerate the committed record from a Release build with:
//   ./build/bench/bench_micro_ris --benchmark_out=bench/BENCH_ris.json
//       --benchmark_out_format=json   (both flags on one line)
// plus the --benchmark_context machine stamp docs/benchmarks.md gives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "build_guard.h"
#include "graph/ef_graph.h"
#include "lcrb/experiments.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace {

using namespace lcrb;

constexpr double kScale = 0.1;
constexpr double kRisEpsilon = 0.1;

struct FigureSetup {
  DiGraph graph;
  std::vector<NodeId> rumors;
  BridgeEndResult bridges;
  std::size_t budget = 0;
};

/// Hep-like dataset with rumors planted in the paper's medium community at
/// the 5%-of-|C| figure point — the shared substrate of Fig. 4 / Fig. 7.
FigureSetup make_setup() {
  DatasetSubstitute ds = make_hep_like(/*seed=*/1, kScale);
  const Partition part(ds.net.membership);
  const NodeId csize = part.size_of(ds.planted_medium);
  const auto nr =
      static_cast<std::size_t>(std::max<NodeId>(2, csize / 20));
  ExperimentSetup ex =
      prepare_experiment(ds.net.graph, part, ds.planted_medium, nr, 102);
  FigureSetup out;
  out.rumors = std::move(ex.rumors);
  out.bridges = std::move(ex.bridges);
  out.budget = out.rumors.size();
  out.graph = std::move(ds.net.graph);
  return out;
}

GreedyConfig mode_cfg(DiffusionModel model, SigmaMode mode,
                      std::size_t budget) {
  LcrbOptions opts;
  opts.alpha = 0.95;
  opts.budget = budget;
  opts.max_candidates = 300;
  opts.model = model;
  opts.sigma_samples = (model == DiffusionModel::kDoam) ? 4 : 20;
  opts.sigma_seed = 9;
  opts.sigma_mode = mode;
  opts.ris_epsilon = kRisEpsilon;
  opts.ris_initial_sets = 256;  // the doubling rule grows it when needed
  opts.ris_max_sets = std::size_t{1} << 14;
  return opts.greedy_config();
}

double visits_per_seed(const GreedyResult& r) {
  return r.protectors.empty()
             ? 0.0
             : static_cast<double>(r.nodes_visited) /
                   static_cast<double>(r.protectors.size());
}

void run_select(benchmark::State& state, DiffusionModel model,
                SigmaMode mode) {
  static const FigureSetup setup = make_setup();
  const GreedyConfig cfg = mode_cfg(model, mode, setup.budget);
  GreedyResult last;
  for (auto _ : state) {
    last = greedy_lcrbp_from_bridges(setup.graph, setup.rumors, setup.bridges,
                                     cfg);
    benchmark::DoNotOptimize(last.protectors.data());
  }
  state.counters["protectors"] =
      static_cast<double>(last.protectors.size());
  state.counters["visits_per_seed"] = visits_per_seed(last);
  if (mode == SigmaMode::kRis) {
    state.counters["rr_sets"] = static_cast<double>(last.sigma_evaluations);
    state.counters["rounds"] = static_cast<double>(last.ris_rounds);
  }
}

void BM_SelectMc_HepOpoao(benchmark::State& state) {
  run_select(state, DiffusionModel::kOpoao, SigmaMode::kMonteCarlo);
}
void BM_SelectRis_HepOpoao(benchmark::State& state) {
  run_select(state, DiffusionModel::kOpoao, SigmaMode::kRis);
}
void BM_SelectMc_HepDoam(benchmark::State& state) {
  run_select(state, DiffusionModel::kDoam, SigmaMode::kMonteCarlo);
}
void BM_SelectRis_HepDoam(benchmark::State& state) {
  run_select(state, DiffusionModel::kDoam, SigmaMode::kRis);
}

/// The ablation record: both modes end to end, a reference estimator scoring
/// both protector sets, and the visit ratio the acceptance bar reads.
void run_ablation(benchmark::State& state, DiffusionModel model) {
  static const FigureSetup setup = make_setup();
  GreedyResult mc, ris;
  for (auto _ : state) {
    mc = greedy_lcrbp_from_bridges(
        setup.graph, setup.rumors, setup.bridges,
        mode_cfg(model, SigmaMode::kMonteCarlo, setup.budget));
    ris = greedy_lcrbp_from_bridges(
        setup.graph, setup.rumors, setup.bridges,
        mode_cfg(model, SigmaMode::kRis, setup.budget));
    benchmark::DoNotOptimize(mc.protectors.data());
    benchmark::DoNotOptimize(ris.protectors.data());
  }

  SigmaConfig ref_cfg;
  ref_cfg.model = model;
  ref_cfg.samples = (model == DiffusionModel::kDoam) ? 4 : 400;
  ref_cfg.seed = 777;
  SigmaEstimator ref(setup.graph, setup.rumors, setup.bridges.bridge_ends,
                     ref_cfg);
  const double sigma_mc = ref.sigma(mc.protectors);
  const double sigma_ris = ref.sigma(ris.protectors);
  const auto range = static_cast<double>(setup.bridges.bridge_ends.size());
  const double hoeffding =
      2.0 * range *
      std::sqrt(std::log(2.0 / 1e-4) /
                (2.0 * static_cast<double>(ref_cfg.samples)));
  const double tol = kRisEpsilon * range + hoeffding;

  const double mc_vps = visits_per_seed(mc);
  const double ris_vps = visits_per_seed(ris);
  state.counters["mc_visits_per_seed"] = mc_vps;
  state.counters["ris_visits_per_seed"] = ris_vps;
  state.counters["visit_ratio"] = ris_vps > 0.0 ? mc_vps / ris_vps : 0.0;
  state.counters["sigma_mc_ref"] = sigma_mc;
  state.counters["sigma_ris_ref"] = sigma_ris;
  state.counters["agreement_tol"] = tol;
  state.counters["agreement_ok"] =
      std::fabs(sigma_mc - sigma_ris) <= tol ? 1.0 : 0.0;
}

void BM_McVsRis_Fig4Opoao(benchmark::State& state) {
  run_ablation(state, DiffusionModel::kOpoao);
}
void BM_McVsRis_Fig7Doam(benchmark::State& state) {
  run_ablation(state, DiffusionModel::kDoam);
}

/// Sharded-generation scaling sweep: grow a fixed-size RR pool on 1/2/4/8
/// worker threads. Determinism makes the pools byte-identical across the
/// sweep, so the only variable is wall-clock; `sets_per_sec` is the scaling
/// counter the CI artifact tracks.
void BM_RisGenerate_ThreadSweep(benchmark::State& state) {
  static const FigureSetup setup = make_setup();
  constexpr std::size_t kSweepSets = 4096;
  RisConfig rc;
  rc.model = DiffusionModel::kOpoao;
  rc.seed = 9;
  RrSampler sampler(setup.graph, setup.rumors, setup.bridges.bridge_ends, rc);
  const auto threads = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(threads);
  std::uint64_t visits = 0;
  for (auto _ : state) {
    RrPool rr;
    sampler.extend(rr, 0, kSweepSets, &pool);
    visits = rr.nodes_visited();
    benchmark::DoNotOptimize(rr.num_sets());
  }
  state.counters["sets_per_sec"] = benchmark::Counter(
      static_cast<double>(kSweepSets) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["nodes_visited"] = static_cast<double>(visits);
  state.counters["threads"] = static_cast<double>(threads);
}

struct EmailSetup {
  DiGraph csr;
  EfGraph ef;
  std::vector<NodeId> rumors, ends;
};

/// The Email analog (scale 0.3, 5 rumors in the planted small community) —
/// the graph perfbench's ris_cover workload serves from Elias-Fano.
const EmailSetup& email_setup() {
  static const EmailSetup setup = [] {
    DatasetSubstitute ds = make_enron_like(/*seed=*/21, /*scale=*/0.3);
    const Partition part(ds.net.membership);
    ExperimentSetup ex =
        prepare_experiment(ds.net.graph, part, ds.planted_small, 5, 102);
    EmailSetup out;
    out.ef = EfGraph::from_csr(ds.net.graph);
    out.csr = std::move(ds.net.graph);
    out.rumors = std::move(ex.rumors);
    out.ends = std::move(ex.bridges.bridge_ends);
    return out;
  }();
  return setup;
}

bool same_pools(const RrPool& a, const RrPool& b) {
  if (a.num_sets() != b.num_sets() || a.nodes_visited() != b.nodes_visited() ||
      a.total_entries() != b.total_entries()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_sets(); ++i) {
    const auto x = a.set_nodes(i), y = b.set_nodes(i);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

/// Backend A/B of the OPOAO reverse search: the same 512 draws on the Email
/// analog grown on CSR and on Elias-Fano, one thread, timed back to back in
/// every iteration. `ef_over_csr` is the same-run time ratio; `pools_equal`
/// is 1 when the two pools agree set for set.
void BM_RisGenerate_Backend(benchmark::State& state) {
  const EmailSetup& setup = email_setup();
  constexpr std::size_t kDraws = 512;
  RisConfig rc;
  rc.model = DiffusionModel::kOpoao;
  rc.seed = 9;
  const RrSampler csr(setup.csr, setup.rumors, setup.ends, rc);
  const RrSampler ef(setup.ef, setup.rumors, setup.ends, rc);
  double csr_ms = 0.0, ef_ms = 0.0;
  bool equal = true;
  for (auto _ : state) {
    RrPool a, b;
    Timer t;
    csr.extend(a, 0, kDraws);
    csr_ms += t.millis();
    t.restart();
    ef.extend(b, 0, kDraws);
    ef_ms += t.millis();
    benchmark::DoNotOptimize(a.total_entries());
    benchmark::DoNotOptimize(b.total_entries());
    equal = equal && same_pools(a, b);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["csr_ms"] = csr_ms / iters;
  state.counters["ef_ms"] = ef_ms / iters;
  state.counters["ef_over_csr"] = csr_ms > 0.0 ? ef_ms / csr_ms : 0.0;
  state.counters["pools_equal"] = equal ? 1.0 : 0.0;
  state.counters["bridge_ends"] = static_cast<double>(setup.ends.size());
}

/// Pool-growth A/B: a cold RIS select's two pools — 256 OPOAO draws each
/// on streams 0 and 1, the Elias-Fano Email analog, a 4-thread pool — grown
/// by one fused extend and by two back-to-back single-pool extends (each
/// with its own fork, tail and index rebuild), timed back to back in every
/// iteration. `fused_over_seq` is the same-run time ratio; `pools_equal` is
/// 1 when both ways built the same two pools.
void BM_RisGenerate_Pair(benchmark::State& state) {
  const EmailSetup& setup = email_setup();
  constexpr std::size_t kDraws = 256;
  constexpr std::size_t kThreads = 4;
  RisConfig rc;
  rc.model = DiffusionModel::kOpoao;
  rc.seed = 9;
  const RrSampler ef(setup.ef, setup.rumors, setup.ends, rc);
  ThreadPool pool(kThreads);
  double fused_ms = 0.0, seq_ms = 0.0;
  bool equal = true;
  for (auto _ : state) {
    RrPool fused_sel, fused_val, seq_sel, seq_val;
    Timer t;
    const RrGrowJob jobs[] = {{&fused_sel, 0, kDraws}, {&fused_val, 1, kDraws}};
    ef.extend(jobs, &pool);
    fused_ms += t.millis();
    t.restart();
    ef.extend(seq_sel, 0, kDraws, &pool);
    ef.extend(seq_val, 1, kDraws, &pool);
    seq_ms += t.millis();
    benchmark::DoNotOptimize(fused_val.total_entries());
    benchmark::DoNotOptimize(seq_val.total_entries());
    equal = equal && same_pools(fused_sel, seq_sel) &&
            same_pools(fused_val, seq_val);
  }
  const auto iters = static_cast<double>(state.iterations());
  state.counters["fused_ms"] = fused_ms / iters;
  state.counters["seq_ms"] = seq_ms / iters;
  state.counters["fused_over_seq"] = seq_ms > 0.0 ? fused_ms / seq_ms : 0.0;
  state.counters["pools_equal"] = equal ? 1.0 : 0.0;
  state.counters["threads"] = static_cast<double>(kThreads);
}

BENCHMARK(BM_SelectMc_HepOpoao)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectRis_HepOpoao)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectMc_HepDoam)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SelectRis_HepDoam)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_McVsRis_Fig4Opoao)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_McVsRis_Fig7Doam)->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_RisGenerate_ThreadSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_RisGenerate_Backend)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(BM_RisGenerate_Pair)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  lcrb::bench::require_release_build("bench_micro_ris");
  benchmark::AddCustomContext("lcrb_build_type", lcrb::bench::kBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
