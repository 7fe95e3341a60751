#include "staged.h"

#include <algorithm>
#include <utility>

#include "community/detect.h"
#include "graph/io.h"
#include "lcrb/pipeline.h"
#include "util/error.h"

namespace lcrb::perfbench {

namespace {

using service::GraphSession;
using service::QueryOp;
using service::QueryRequest;
using service::QueryResult;

double span_ms(const SpanRecorder& rec, int index) {
  return rec.spans()[static_cast<std::size_t>(index)].duration_ms();
}

}  // namespace

StagedReplay::StagedReplay(std::size_t threads, SpanRecorder& rec)
    : rec_(rec), pool_(threads) {}

void StagedReplay::open_dataset(const std::string& dataset,
                                const std::string& path,
                                GraphBackend backend) {
  ScopedSpan open(rec_, "open_dataset", "setup");
  DiGraph g = [&] {
    ScopedSpan s(rec_, "load_edge_list", "setup");
    return load_edge_list(path, false);
  }();
  Partition p = [&] {
    ScopedSpan s(rec_, "detect_communities", "setup");
    return detect_communities(g, CommunityMethod::kLouvain, 1);
  }();
  GraphAny any = [&] {
    ScopedSpan s(rec_, "to_backend", "setup");
    return to_backend(std::move(g), backend);
  }();
  sessions_[dataset] =
      std::make_shared<GraphSession>(dataset, std::move(any), std::move(p));
}

std::string StagedReplay::run(const std::string& line, StagedFacts& facts) {
  facts = StagedFacts{};
  std::string payload;
  std::string rid = "?";
  int root = -1;
  {
    ScopedSpan request(rec_, "request", rid);
    root = request.index();
    QueryRequest req;
    {
      ScopedSpan s(rec_, "codec.decode", rid);
      req = QueryRequest::from_json(JsonValue::parse(line));
    }
    rid = req.id;
    GraphSession& session = *sessions_.at(req.dataset);
    const std::string key = service::make_result_key(req);
    std::shared_ptr<const QueryResult> cached;
    {
      ScopedSpan s(rec_, "GraphSession::cached_result", rid);
      cached = session.cached_result(key);
    }
    QueryResult result;
    if (cached != nullptr) {
      result = *cached;
      result.id = req.id;
      facts.result_cache_hit = true;
      facts.kind = req.op == QueryOp::kEvaluate
                       ? StagedFacts::Kind::kEvaluate
                       : StagedFacts::Kind::kOtherSelect;
    } else {
      try {
        result = execute(req, session, rid, facts);
      } catch (const Error& e) {
        result = QueryResult::make_error(req, e.what());
      }
      if (result.ok) session.store_result(key, result);
    }
    result.version = req.version;
    ScopedSpan s(rec_, "codec.encode", rid);
    payload = result.to_json(false).dump();
  }
  facts.total_ms = span_ms(rec_, root);
  rec_.label_request(root, rid);
  return payload;
}

QueryResult StagedReplay::execute(const QueryRequest& req,
                                  GraphSession& session, const std::string& rid,
                                  StagedFacts& facts) {
  LCRB_REQUIRE(req.rumor_ids.empty() && req.rumor_groups.empty(),
               "staged replay covers rumors drawn by community only");
  req.options.validate();
  QueryResult result;
  result.version = req.version;
  result.id = req.id;
  result.op = req.op;
  result.dataset = req.dataset;
  if (req.op == QueryOp::kEvaluate) {
    for (NodeId v : req.protectors) {
      LCRB_REQUIRE(v < session.graph().num_nodes(),
                   "protector id out of range");
    }
  }

  // QueryService::setup_for, for rumors drawn from a community.
  const Partition& p = session.partition();
  CommunityId community = req.rumor_community;
  if (community == kInvalidCommunity) {
    community = p.closest_to_size(static_cast<NodeId>(req.community_size));
  }
  const std::string setup_key =
      service::make_setup_key({}, community, req.num_rumors, req.rumor_seed);
  std::shared_ptr<const ExperimentSetup> setup;
  {
    ScopedSpan s(rec_, "GraphSession::setup_for", rid);
    bool hit = false;
    setup = session.setup_for(
        setup_key,
        [&]() -> ExperimentSetup {
          ScopedSpan ps(rec_, "prepare_experiment", rid);
          facts.setup_built = true;
          LCRB_REQUIRE(community < p.num_communities(),
                       "rumor community out of range");
          const std::size_t k = std::min<std::size_t>(
              std::max<std::size_t>(req.num_rumors, 1), p.size_of(community));
          return prepare_experiment(session.graph(), p, community, k,
                                    req.rumor_seed);
        },
        &hit);
  }
  result.rumor_community = setup->rumor_community;
  result.rumors = setup->rumors;
  result.num_bridge_ends = setup->bridges.bridge_ends.size();
  facts.bridge_ends = result.num_bridge_ends;

  const LcrbOptions& opts = req.options;
  if (req.op == QueryOp::kEvaluate) {
    result.protectors = req.protectors;
    LCRB_REQUIRE(req.eval_runs >= 1, "eval_runs must be >= 1");
    MonteCarloConfig mc;
    mc.runs = req.eval_runs;
    mc.seed = req.eval_seed;
    mc.max_hops = opts.max_hops;
    mc.model = opts.model;
    mc.ic_edge_prob = opts.ic_edge_prob;
    HopSeries series;
    int span = -1;
    {
      ScopedSpan s(rec_, "evaluate_protectors", rid);
      span = s.index();
      series = evaluate_protectors(*setup, req.protectors, mc, &pool_);
    }
    facts.kind = StagedFacts::Kind::kEvaluate;
    facts.evaluate_ms = span_ms(rec_, span);
    facts.eval_runs = req.eval_runs;
    result.infected_by_hop = series.infected_mean;
    result.infected_ci95 = series.infected_ci95;
    result.protected_by_hop = series.protected_mean;
    result.final_infected_mean = series.final_infected_mean;
    result.final_protected_mean = series.final_protected_mean;
    result.saved_fraction = series.saved_fraction_mean;
    return result;
  }

  LCRB_REQUIRE(opts.multi_mode == MultiCascadeMode::kOff,
               "staged replay covers single-campaign selects only");
  const std::size_t budget = opts.resolved_budget(setup->rumors.size());
  if (opts.selector == SelectorKind::kGreedy &&
      opts.sigma_mode == SigmaMode::kMonteCarlo) {
    facts.kind = StagedFacts::Kind::kGreedyMc;
    std::shared_ptr<SigmaEstimator> estimator;
    int span = -1;
    {
      ScopedSpan s(rec_, "GraphSession::estimator_for", rid);
      span = s.index();
      estimator = session.estimator_for(setup_key, *setup,
                                        opts.sigma_config(), &pool_,
                                        &facts.warm);
    }
    facts.estimator_ms = span_ms(rec_, span);
    GreedyConfig gc = opts.greedy_config();
    gc.max_protectors = budget;
    GreedyResult r;
    {
      ScopedSpan s(rec_, "greedy_lcrbp_with_estimator", rid);
      span = s.index();
      r = session.graph().visit([&](const auto& g) {
        return greedy_lcrbp_with_estimator(g, setup->rumors, setup->bridges,
                                           gc, *estimator, &pool_);
      });
    }
    facts.select_ms = span_ms(rec_, span);
    facts.estimator_bytes = estimator->memory_bytes();
    facts.sigma_evaluations = r.sigma_evaluations;
    facts.candidates = r.candidate_count;
    result.protectors = r.protectors;
    result.achieved_fraction = r.achieved_fraction;
    result.gain_history = r.gain_history;
    result.candidate_count = r.candidate_count;
    result.sigma_evaluations = r.sigma_evaluations;
  } else if (opts.selector == SelectorKind::kGreedy) {
    facts.kind = StagedFacts::Kind::kRis;
    std::shared_ptr<RisContext> ctx;
    int span = -1;
    {
      ScopedSpan s(rec_, "GraphSession::ris_context_for", rid);
      span = s.index();
      ctx = session.ris_context_for(setup_key, *setup, opts.ris_config(),
                                    &facts.warm);
    }
    facts.context_ms = span_ms(rec_, span);
    const std::size_t before =
        ctx->selection.num_sets() + ctx->validation.num_sets();
    RisGreedyResult r;
    {
      ScopedSpan s(rec_, "ris_greedy_with_context", rid);
      span = s.index();
      r = ris_greedy_with_context(opts.alpha, budget, opts.ris_config(), *ctx,
                                  &pool_);
    }
    facts.select_ms = span_ms(rec_, span);
    facts.rr_sets_generated =
        ctx->selection.num_sets() + ctx->validation.num_sets() - before;
    facts.sigma_evaluations = r.rr_sets;
    facts.candidates = r.distinct_candidates;
    facts.guarantee_met = r.guarantee_met;
    result.protectors = r.protectors;
    result.achieved_fraction = r.achieved_fraction;
    result.gain_history = r.gain_history;
    result.candidate_count = r.distinct_candidates;
    result.sigma_evaluations = r.rr_sets;
  } else {
    facts.kind = StagedFacts::Kind::kOtherSelect;
    int span = -1;
    {
      ScopedSpan s(rec_, "select_protectors", rid);
      span = s.index();
      result.protectors = select_protectors(*setup, opts, &pool_);
    }
    facts.select_ms = span_ms(rec_, span);
    if (opts.selector == SelectorKind::kScbg) result.achieved_fraction = 1.0;
  }
  return result;
}

}  // namespace lcrb::perfbench
