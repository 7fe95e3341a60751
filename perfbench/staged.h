// Staged replay: the traced run's re-execution of the requests the service
// already answered, one module call at a time.
//
// QueryService::execute is one opaque call, so to see where a request's time
// goes the traced run replays each wire line here, calling the same public
// functions execute() calls (GraphSession caches, prepare_experiment, the
// sigma estimator, the greedy, the RIS context, select_protectors,
// evaluate_protectors, the codec) against sessions of its own, each call
// wrapped in a span. The replay covers the request shapes the benchmark
// sends (rumors drawn by community size; single-campaign select and
// evaluate) and must reproduce the service's payload byte for byte — the
// benchmark counts any difference as a failed request.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "graph/backend.h"
#include "service/session.h"
#include "spans.h"
#include "util/threadpool.h"

namespace lcrb::perfbench {

/// What one replayed request did, for the per-layer metrics.
struct StagedFacts {
  enum class Kind { kGreedyMc, kRis, kOtherSelect, kEvaluate };
  Kind kind = Kind::kEvaluate;
  bool result_cache_hit = false;
  bool setup_built = false;     ///< setup_for missed and prepared anew
  std::size_t bridge_ends = 0;
  bool warm = false;            ///< estimator / RIS context cache hit
  double estimator_ms = 0;      ///< estimator_for span (kGreedyMc)
  std::size_t estimator_bytes = 0;
  double context_ms = 0;        ///< ris_context_for span (kRis)
  double select_ms = 0;         ///< greedy / RIS greedy / select_protectors
  std::size_t sigma_evaluations = 0;
  std::size_t candidates = 0;
  std::size_t rr_sets_generated = 0;  ///< pool growth during the select
  bool guarantee_met = false;
  double evaluate_ms = 0;
  std::size_t eval_runs = 0;
  double total_ms = 0;          ///< the request's root span
};

class StagedReplay {
 public:
  StagedReplay(std::size_t threads, SpanRecorder& rec);

  /// Staged QueryService::open_dataset: load_edge_list, detect_communities
  /// and to_backend, each in its own span.
  void open_dataset(const std::string& dataset, const std::string& path,
                    GraphBackend backend);

  /// Replays one wire line; returns the deterministic payload
  /// (QueryResult::to_json(false)) and fills `facts`.
  std::string run(const std::string& line, StagedFacts& facts);

  const service::GraphSession& session(const std::string& dataset) const {
    return *sessions_.at(dataset);
  }

 private:
  service::QueryResult execute(const service::QueryRequest& req,
                               service::GraphSession& session,
                               const std::string& rid, StagedFacts& facts);

  SpanRecorder& rec_;
  ThreadPool pool_;
  std::map<std::string, std::shared_ptr<service::GraphSession>> sessions_;
};

}  // namespace lcrb::perfbench
