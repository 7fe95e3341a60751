// lcrb_perfbench — the repository's end-to-end benchmark.
//
// Drives the lcrb_service engine (QueryService, the engine lcrbd wraps) from
// one process with one load-generating thread. Inputs come from --seed: the
// benchmark generates the graph, writes it as an edge-list file, and the
// service sees only that file and v2 wire lines. Every request goes through
// QueryRequest::from_json and every answer through QueryResult::to_json, so
// the codec is on the measured path; the daemon's socket loop is not.
//
//   lcrb_perfbench --workload mc_pipeline|ris_cover --seed N --seconds S
//                  --trace 0|1 [--threads N] [--scale F] [--data-dir D]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics", "digest", "context"}; perfbench/run.py reduces it to
// the benchmark contract's four keys. Workloads, metrics and checks are
// described in perfbench/README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/build_guard.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "host_probe.h"
#include "service/query_service.h"
#include "spans.h"
#include "staged.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace lcrb;
using namespace lcrb::perfbench;
using service::QueryRequest;
using service::QueryResult;
using service::QueryService;
using service::ServiceStats;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t threads = 0;  ///< inner pool; 0 = hardware concurrency
  double scale = 0.3;
  std::string data_dir = ".bench_build/data";
};

/// Rumor originators per scenario (drawn by the service from a community).
constexpr std::size_t kRumors = 5;
/// Set-ups timed before the first measurement window and after each one,
/// each after a host probe sample; setup_s is their median. On a shared
/// host, a single-threaded set-up ran at one of two speeds (17 or 28 ms on
/// mc_pipeline) for a second or more at a time, so a median over set-ups
/// taken in one burst followed that burst's speed; spread over the run it
/// follows the run's.
constexpr int kSetupReps = 5;
/// The measured scenarios are cut into this many consecutive windows;
/// requests_per_s is the median over the windows, so a burst of noise on
/// the host moves at most two of them.
constexpr std::size_t kWindows = 6;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

enum class Shape { kHep, kEmail };

struct DatasetInput {
  std::string id;
  std::string path;
  GraphBackend backend = GraphBackend::kCsr;
};

/// Writes the graph of dataset `id`. Graphs come from fixed generator seeds,
/// not from --seed: analogs drawn per seed differ by up to about 10% in
/// evaluation and Louvain cost, which made throughput and set-up time
/// spread across seeds more than a bound can tolerate. The workload seed
/// still picks every rumor draw and request stream.
DatasetInput write_dataset(const Config& cfg, const std::string& id,
                           Shape shape, std::uint64_t gen_seed,
                           GraphBackend backend) {
  const DatasetSubstitute ds = shape == Shape::kHep
                                   ? make_hep_like(gen_seed, cfg.scale)
                                   : make_enron_like(gen_seed, cfg.scale);
  std::filesystem::create_directories(cfg.data_dir);
  DatasetInput in;
  in.id = id;
  in.path = cfg.data_dir + "/" + cfg.workload + "-" + std::to_string(cfg.seed) +
            "-" + id + ".txt";
  in.backend = backend;
  save_edge_list(ds.net.graph, in.path);
  return in;
}

/// One rumor draw: the service picks the community closest to
/// `community_size` nodes and samples kRumors originators with `rumor_seed`.
struct Scenario {
  std::string dataset;
  std::uint64_t community_size = 0;
  std::uint64_t rumor_seed = 0;
};

/// The community sizes of `count` scenarios: evenly spaced over 30..149, in
/// a shuffled order. A request's cost depends mostly on the community its
/// rumors fall in. With one fixed community per graph, a run's cost hinged
/// on where its rumors fell (mc_pipeline's throughput spread by 0.45 across
/// seeds); with sizes drawn at random, on how many draws hit the costly
/// communities (ris_cover's median SCBG latency ranged from 12.7 to 19.9 ms
/// over five seeds). Dealt this way, every window of every run covers the
/// same spread of communities.
std::vector<std::uint64_t> deal_community_sizes(Rng& rng, std::size_t count) {
  std::vector<std::uint64_t> sizes(count);
  for (std::size_t j = 0; j < count; ++j) {
    sizes[j] = 30 + (120 * j + 60) / count;
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.next_below(i)]);
  }
  return sizes;
}

Scenario draw_scenario(Rng& rng, const std::string& dataset,
                       std::uint64_t community_size) {
  return Scenario{dataset, community_size, 1 + rng.next_below(1'000'000'000)};
}

// ---------------------------------------------------------------------------
// Wire lines
// ---------------------------------------------------------------------------

JsonValue request_json(const std::string& id, const char* op,
                       const Scenario& s, JsonValue options) {
  JsonValue v = JsonValue::object();
  v.set("v", 2);
  v.set("id", id);
  v.set("op", op);
  v.set("dataset", s.dataset);
  v.set("community_size", s.community_size);
  v.set("num_rumors", static_cast<std::uint64_t>(kRumors));
  v.set("rumor_seed", s.rumor_seed);
  v.set("options", std::move(options));
  return v;
}

JsonValue mc_options(std::uint64_t budget) {
  JsonValue o = JsonValue::object();
  o.set("selector", "Greedy");
  o.set("sigma_mode", "mc");
  o.set("budget", budget);
  o.set("sigma_samples", static_cast<std::uint64_t>(20));
  o.set("max_candidates", static_cast<std::uint64_t>(25));
  return o;
}

JsonValue ris_options(const char* model, double alpha, std::uint64_t budget) {
  JsonValue o = JsonValue::object();
  o.set("selector", "Greedy");
  o.set("sigma_mode", "ris");
  o.set("model", model);
  o.set("alpha", alpha);
  o.set("budget", budget);
  o.set("ris_epsilon", 0.2);
  o.set("ris_initial_sets", static_cast<std::uint64_t>(256));
  return o;
}

JsonValue scbg_options() {
  JsonValue o = JsonValue::object();
  o.set("selector", "SCBG");
  return o;
}

JsonValue evaluate_json(const std::string& id, const Scenario& s,
                        const char* model,
                        const std::vector<NodeId>& protectors,
                        std::uint64_t runs, std::uint64_t eval_seed) {
  JsonValue o = JsonValue::object();
  o.set("model", model);
  JsonValue v = request_json(id, "evaluate", s, std::move(o));
  JsonValue ids = JsonValue::array();
  for (NodeId p : protectors) ids.push_back(static_cast<std::uint64_t>(p));
  v.set("protectors", std::move(ids));
  v.set("eval_runs", runs);
  v.set("eval_seed", eval_seed);
  return v;
}

// ---------------------------------------------------------------------------
// Client: one wire line in, one payload out
// ---------------------------------------------------------------------------

enum Phase { kWarm = 0, kMeasured = 1 };

struct Call {
  std::size_t index = 0;
  std::string line;    ///< v2 wire line
  std::string klass;   ///< request class: its place in the scenario
  Phase phase = kWarm;
  Clock::time_point sent;
  // Filled on completion.
  bool done = false;
  bool ok = false;
  std::string payload;  ///< QueryResult::to_json(false)
  JsonValue meta;
  std::vector<NodeId> protectors;
  double saved_fraction = 0;
  double latency_ms = 0;  ///< send -> payload encoded
  double codec_ms = 0;    ///< decode + encode
  Clock::time_point finished;
};

class Client {
 public:
  explicit Client(QueryService& svc) : svc_(svc) {}

  /// Decodes the call's wire line and submits it; the executor thread that
  /// runs it encodes the payload and completes the call.
  void send(Call& c) {
    c.sent = Clock::now();
    QueryRequest req = QueryRequest::from_json(JsonValue::parse(c.line));
    const double decode_ms = ms_between(c.sent, Clock::now());
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++outstanding_;
    }
    svc_.submit_async(std::move(req), [this, &c, decode_ms](QueryResult r) {
      const Clock::time_point t0 = Clock::now();
      std::string payload = r.to_json(false).dump();
      const Clock::time_point t1 = Clock::now();
      c.payload = std::move(payload);
      c.codec_ms = decode_ms + ms_between(t0, t1);
      c.latency_ms = ms_between(c.sent, t1);
      c.finished = t1;
      c.ok = r.ok;
      c.meta = std::move(r.meta);
      c.protectors = std::move(r.protectors);
      c.saved_fraction = r.saved_fraction;
      {
        std::lock_guard<std::mutex> lock(mu_);
        c.done = true;
        --outstanding_;
      }
      cv_.notify_all();
    });
  }

  void wait_all() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

 private:
  QueryService& svc_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
};

/// Starts measuring peak RSS: hands freed heap pages back to the kernel, so
/// the measurement starts from live memory, then resets VmHWM (Linux
/// clear_refs value 5).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// The run's request log, in send order (deque: calls stay put while
/// executors complete them).
class Log {
 public:
  /// [first, last) call indices of each measurement window.
  std::vector<std::pair<std::size_t, std::size_t>> windows;
  /// Per window: host probe samples taken between its scenarios, and the
  /// wall time they took, which is not the requests' time.
  std::vector<std::vector<double>> probe_ms;
  std::vector<double> probe_pause_ms;

  Call& add(std::string line, std::string klass, Phase phase) {
    Call& c = calls_.emplace_back();
    c.index = calls_.size() - 1;
    c.line = std::move(line);
    c.klass = std::move(klass);
    c.phase = phase;
    return c;
  }
  std::string next_id() const { return "r" + std::to_string(calls_.size()); }
  std::deque<Call>& calls() { return calls_; }

 private:
  std::deque<Call> calls_;
};

/// Closed loop: sends one wire line and waits for its answer.
Call& round_trip(Client& client, Log& log, const JsonValue& request,
                 std::string klass, Phase phase) {
  Call& c = log.add(request.dump(), std::move(klass), phase);
  client.send(c);
  client.wait_all();
  return c;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  DatasetInput dataset;
  /// Sends one scenario's requests; `index` numbers the scenarios of a run.
  std::function<void(Client&, Log&, const Scenario&, std::uint64_t index,
                     Phase)>
      scenario;
  /// Measured scenarios per second of --seconds. The constant was sized
  /// once from the parent commit on a 4-core machine so that a run there
  /// measures about --seconds; it is never derived again, so every version
  /// of the program does the same work and peak memory does not depend on
  /// speed.
  double scenarios_per_s = 1;
  std::uint64_t stream = 0;  ///< seeds the scenario draws
};

/// mc_pipeline: per scenario a cold greedy-MC select, a warm one with
/// another budget (estimator reused, result cache missed), and an evaluate
/// of the first select's protectors.
void mc_scenario(Client& client, Log& log, const Scenario& s,
                 std::uint64_t eval_seed, Phase phase) {
  const Call& cold =
      round_trip(client, log,
                 request_json(log.next_id(), "select", s, mc_options(4)),
                 "mc.select.cold", phase);
  round_trip(client, log,
             request_json(log.next_id(), "select", s, mc_options(6)),
             "mc.select.warm", phase);
  round_trip(client, log,
             evaluate_json(log.next_id(), s, "OPOAO", cold.protectors, 200,
                           eval_seed),
             "mc.evaluate", phase);
}

/// ris_cover: per scenario a cold RIS OPOAO select (grows the RR pools), two
/// warm re-selects that read pool prefixes, a RIS DOAM select, an SCBG
/// select, and a DOAM evaluate of the SCBG set.
void ris_scenario(Client& client, Log& log, const Scenario& s, Phase phase) {
  auto select = [&](JsonValue options, const char* klass) -> const Call& {
    return round_trip(client, log,
                      request_json(log.next_id(), "select", s,
                                   std::move(options)),
                      klass, phase);
  };
  select(ris_options("OPOAO", 0.8, 0), "ris.opoao.cold");
  select(ris_options("OPOAO", 0.7, 0), "ris.opoao.alpha");
  select(ris_options("OPOAO", 0.8, 8), "ris.opoao.budget");
  select(ris_options("DOAM", 0.8, 0), "ris.doam.cold");
  const Call& scbg = select(scbg_options(), "scbg.select");
  round_trip(client, log,
             evaluate_json(log.next_id(), s, "DOAM", scbg.protectors, 100, 1),
             "scbg.evaluate", phase);
}

Workload make_mc_pipeline(const Config& cfg, Rng& rng) {
  Workload w;
  w.dataset =
      write_dataset(cfg, "hep", Shape::kHep, 11, GraphBackend::kCsr);
  w.scenario = [](Client& client, Log& log, const Scenario& s,
                  std::uint64_t index, Phase phase) {
    mc_scenario(client, log, s, index, phase);
  };
  w.scenarios_per_s = 3.2;
  w.stream = rng.next();
  return w;
}

Workload make_ris_cover(const Config& cfg, Rng& rng) {
  Workload w;
  w.dataset =
      write_dataset(cfg, "email", Shape::kEmail, 21, GraphBackend::kEf);
  w.scenario = [](Client& client, Log& log, const Scenario& s, std::uint64_t,
                  Phase phase) { ris_scenario(client, log, s, phase); };
  w.scenarios_per_s = 2.2;
  w.stream = rng.next();
  return w;
}

/// One warm-up scenario, then the run's fixed number of measured scenarios
/// in kWindows consecutive windows, with `between` called after each window
/// and `probe` (one host probe sample, in ms) after each measured scenario.
/// Sessions keep every cache they build: the service sheds warm state only
/// when its byte budget runs out, so peak memory shows the growth this
/// traffic causes.
void measure(const Config& cfg, const Workload& w, Client& client, Log& log,
             const std::function<void()>& between,
             const std::function<double()>& probe) {
  Rng r(w.stream);
  w.scenario(client, log, draw_scenario(r, w.dataset.id, 90), 0, kWarm);
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.seconds * w.scenarios_per_s)));
  const std::size_t windows = std::min(kWindows, n);
  for (std::size_t i = 0; i < windows; ++i) {
    const std::size_t first = log.calls().size();
    const std::size_t begin = n * i / windows;
    const std::vector<std::uint64_t> sizes =
        deal_community_sizes(r, n * (i + 1) / windows - begin);
    std::vector<double>& probes = log.probe_ms.emplace_back();
    double& pause_ms = log.probe_pause_ms.emplace_back(0.0);
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      w.scenario(client, log, draw_scenario(r, w.dataset.id, sizes[j]),
                 begin + j + 1, kMeasured);
      const Clock::time_point t0 = Clock::now();
      probes.push_back(probe());
      pause_ms += ms_between(t0, Clock::now());
    }
    log.windows.emplace_back(first, log.calls().size());
    between();
  }
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;  ///< over every payload, in send order
  std::vector<std::string> problems;
};

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Checks every call: ok; RIS selects certified; DOAM evaluates of SCBG sets
/// save every bridge end. `extra_bad` marks calls failed by another check.
Verdict check_calls(const std::deque<Call>& calls,
                    const std::vector<bool>& extra_bad) {
  Verdict v;
  v.digest = 14695981039346656037ULL;
  for (const Call& c : calls) {
    ++v.attempted;
    std::string problem;
    if (!c.done || !c.ok) problem = "request failed: " + c.payload;
    if (problem.empty() && c.klass.rfind("ris.", 0) == 0 &&
        !c.meta.get_bool("ris_guarantee_met", false)) {
      problem = "RIS select without guarantee_met";
    }
    if (problem.empty() && c.klass == "scbg.evaluate" &&
        c.saved_fraction != 1.0) {
      problem = "SCBG set does not save every bridge end under DOAM";
    }
    if (problem.empty() && c.index < extra_bad.size() && extra_bad[c.index]) {
      problem = "staged replay payload differs from the service payload";
    }
    v.digest = fnv1a(fnv1a(v.digest, c.payload), "\n");
    if (!problem.empty()) {
      ++v.failed;
      if (v.problems.size() < 5) {
        v.problems.push_back("request " + std::to_string(c.index) + " (" +
                             c.klass + "): " + problem);
      }
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double pct(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : percentile_of(std::move(xs), p);
}

/// Host probe samples taken at one calibration point: on one thread, and on
/// as many threads as the inner pool has.
struct ProbePoint {
  std::vector<double> narrow_ms;
  std::vector<double> wide_ms;
};

/// The host's slowdown: the median of probe samples over the probe's time
/// on the reference host (1 = as fast as the reference host).
double slowdown_of(std::vector<double> samples_ms) {
  return pct(std::move(samples_ms), 50) / HostProbe::kReferenceMs;
}

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct MetricSet {
  JsonValue obj = JsonValue::object();
  void add(const std::string& name, double value, const char* unit) {
    JsonValue m = JsonValue::object();
    m.set("value", value);
    m.set("unit", unit);
    obj.set(name, std::move(m));
  }
};

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced run
// ---------------------------------------------------------------------------

/// Meta-flag hit ratio over the calls that report the flag.
double meta_hit_ratio(const std::deque<Call>& calls, const char* flag) {
  std::size_t hits = 0;
  std::size_t seen = 0;
  for (const Call& c : calls) {
    if (const JsonValue* f = c.meta.find(flag)) {
      ++seen;
      hits += f->as_bool() ? 1 : 0;
    }
  }
  return ratio(hits, seen);
}

struct Traced {
  SpanRecorder rec;
  std::vector<StagedFacts> facts;  ///< per replayed call, in send order
  std::vector<bool> mismatch;      ///< per call: replay payload differs
  double graph_bytes_per_arc = 0;
};

/// Replays the run's calls stage by stage (in send order, for at most
/// `budget_ms`) against a fresh session, recording spans.
void staged_replay(const Config& cfg, const Workload& w,
                   const std::deque<Call>& calls, double budget_ms,
                   Traced& t) {
  StagedReplay replay(cfg.threads, t.rec);
  replay.open_dataset(w.dataset.id, w.dataset.path, w.dataset.backend);
  const GraphRef g = replay.session(w.dataset.id).graph();
  t.graph_bytes_per_arc = static_cast<double>(g.memory_bytes()) /
                          static_cast<double>(g.num_edges());
  const Clock::time_point start = Clock::now();
  t.mismatch.assign(calls.size(), false);
  for (const Call& c : calls) {
    if (ms_between(start, Clock::now()) > budget_ms) break;
    StagedFacts f;
    const std::string payload = replay.run(c.line, f);
    t.mismatch[c.index] = payload != c.payload;
    t.facts.push_back(f);
  }
  t.rec.finish();
}

void per_layer_metrics(const std::deque<Call>& calls,
                       const ServiceStats& stats, double cpu_util,
                       const Traced& t, MetricSet& m) {
  using Kind = StagedFacts::Kind;
  auto span_ms = [&](const char* name) {
    std::vector<double> xs;
    for (const Span& s : t.rec.spans()) {
      if (s.name == name) xs.push_back(s.duration_ms());
    }
    return pct(xs, 50);
  };
  auto facts_where = [&](auto pred, auto field) {
    std::vector<double> xs;
    for (const StagedFacts& f : t.facts) {
      if (!f.result_cache_hit && pred(f)) xs.push_back(field(f));
    }
    return xs;
  };
  auto sum = [](const std::vector<double>& xs) {
    double s = 0;
    for (double x : xs) s += x;
    return s;
  };
  auto mean = [&](const std::vector<double>& xs) {
    return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
  };
  const auto is = [](Kind k) {
    return [k](const StagedFacts& f) { return f.kind == k; };
  };
  const auto is_warm = [](Kind k, bool warm) {
    return [k, warm](const StagedFacts& f) {
      return f.kind == k && f.warm == warm;
    };
  };

  // graph
  m.add("graph.load_edge_list_ms", span_ms("load_edge_list"), "ms");
  m.add("graph.to_backend_ms", span_ms("to_backend"), "ms");
  m.add("graph.bytes_per_arc", t.graph_bytes_per_arc, "B/arc");
  // community
  m.add("community.detect_ms", span_ms("detect_communities"), "ms");
  // lcrb setup
  m.add("lcrb.prepare_experiment_ms", span_ms("prepare_experiment"), "ms");
  m.add("lcrb.bridge_ends",
        mean(facts_where([](const StagedFacts& f) { return f.setup_built; },
                         [](const StagedFacts& f) {
                           return static_cast<double>(f.bridge_ends);
                         })),
        "count");
  // sigma engine + greedy
  m.add("sigma.estimator_build_ms",
        pct(facts_where(is_warm(Kind::kGreedyMc, false),
                        [](const StagedFacts& f) { return f.estimator_ms; }),
            50),
        "ms");
  m.add("sigma.evaluations_per_select",
        mean(facts_where(is(Kind::kGreedyMc),
                         [](const StagedFacts& f) {
                           return static_cast<double>(f.sigma_evaluations);
                         })),
        "count");
  m.add("sigma.estimator_bytes",
        pct(facts_where(is(Kind::kGreedyMc),
                        [](const StagedFacts& f) {
                          return static_cast<double>(f.estimator_bytes);
                        }),
            50),
        "B");
  m.add("greedy.select_ms.cold",
        pct(facts_where(is_warm(Kind::kGreedyMc, false),
                        [](const StagedFacts& f) { return f.select_ms; }),
            50),
        "ms");
  m.add("greedy.select_ms.warm",
        pct(facts_where(is_warm(Kind::kGreedyMc, true),
                        [](const StagedFacts& f) { return f.select_ms; }),
            50),
        "ms");
  m.add("greedy.candidates",
        mean(facts_where(is(Kind::kGreedyMc),
                         [](const StagedFacts& f) {
                           return static_cast<double>(f.candidates);
                         })),
        "count");
  // ris
  m.add("ris.context_ms",
        pct(facts_where(is_warm(Kind::kRis, false),
                        [](const StagedFacts& f) { return f.context_ms; }),
            50),
        "ms");
  m.add("ris.select_ms.cold",
        pct(facts_where(is_warm(Kind::kRis, false),
                        [](const StagedFacts& f) { return f.select_ms; }),
            50),
        "ms");
  m.add("ris.select_ms.warm",
        pct(facts_where(is_warm(Kind::kRis, true),
                        [](const StagedFacts& f) { return f.select_ms; }),
            50),
        "ms");
  const std::vector<double> ris_sets =
      facts_where(is(Kind::kRis), [](const StagedFacts& f) {
        return static_cast<double>(f.sigma_evaluations);
      });
  m.add("ris.rr_sets_per_select", mean(ris_sets), "count");
  const double ris_ms =
      sum(facts_where(is(Kind::kRis),
                      [](const StagedFacts& f) { return f.select_ms; }));
  const double generated =
      sum(facts_where(is(Kind::kRis), [](const StagedFacts& f) {
        return static_cast<double>(f.rr_sets_generated);
      }));
  m.add("ris.rr_sets_per_s", ris_ms > 0 ? generated / (ris_ms / 1e3) : 0.0,
        "1/s");
  m.add("ris.certified_ratio",
        mean(facts_where(is(Kind::kRis),
                         [](const StagedFacts& f) {
                           return f.guarantee_met ? 1.0 : 0.0;
                         })),
        "ratio");
  // scbg
  m.add("scbg.select_ms",
        pct(facts_where(is(Kind::kOtherSelect),
                        [](const StagedFacts& f) { return f.select_ms; }),
            50),
        "ms");
  // diffusion
  const std::vector<double> eval_ms = facts_where(
      is(Kind::kEvaluate), [](const StagedFacts& f) { return f.evaluate_ms; });
  const double eval_runs =
      sum(facts_where(is(Kind::kEvaluate), [](const StagedFacts& f) {
        return static_cast<double>(f.eval_runs);
      }));
  m.add("diffusion.evaluate_ms", pct(eval_ms, 50), "ms");
  m.add("diffusion.mc_runs_per_s",
        sum(eval_ms) > 0 ? eval_runs / (sum(eval_ms) / 1e3) : 0.0, "1/s");
  // service sessions (from the service run)
  m.add("service.result_cache_hit_ratio",
        meta_hit_ratio(calls, "result_cache_hit"), "ratio");
  m.add("service.setup_cache_hit_ratio",
        meta_hit_ratio(calls, "setup_cache_hit"), "ratio");
  m.add("service.estimator_cache_hit_ratio",
        meta_hit_ratio(calls, "estimator_cache_hit"), "ratio");
  m.add("service.ris_cache_hit_ratio", meta_hit_ratio(calls, "ris_cache_hit"),
        "ratio");
  m.add("service.resident_bytes",
        static_cast<double>(stats.registry.resident_bytes), "B");
  std::vector<double> codec;
  std::vector<double> queue_wait;
  std::vector<double> exec;
  for (const Call& c : calls) {
    codec.push_back(c.codec_ms);
    if (c.phase != kMeasured) continue;
    const double wall = c.meta.get_double("wall_ms", 0.0);
    exec.push_back(wall);
    queue_wait.push_back(std::max(0.0, c.latency_ms - c.codec_ms - wall));
  }
  m.add("service.codec_ms", pct(codec, 50), "ms");
  // dispatcher
  m.add("dispatch.queue_wait_ms.p50", pct(queue_wait, 50), "ms");
  m.add("dispatch.queue_wait_ms.p90", pct(queue_wait, 90), "ms");
  m.add("dispatch.exec_ms.p50", pct(exec, 50), "ms");
  m.add("dispatch.shed", static_cast<double>(stats.dispatch.shed), "count");
  m.add("dispatch.expired", static_cast<double>(stats.dispatch.expired),
        "count");
  // util thread pool
  m.add("process.cpu_util", cpu_util, "ratio");
  // tracing overhead: replayed time over the client latency of the same
  // requests.
  double replayed = 0;
  double served = 0;
  for (std::size_t i = 0; i < t.facts.size(); ++i) {
    replayed += t.facts[i].total_ms;
    served += calls[i].latency_ms;
  }
  m.add("trace.overhead_ratio", served > 0 ? replayed / served : 0.0,
        "ratio");
  m.add("trace.replayed_requests", static_cast<double>(t.facts.size()),
        "count");
}

/// Every time is scaled to the reference host speed: divided by the host's
/// slowdown around its window (`slowdown[i]` for window i, 1 = the
/// reference speed), and every rate multiplied by it.
///
/// requests_per_s is the median over the measurement windows. The latency
/// percentiles are taken over every measured request of the run (384 on
/// mc_pipeline, 528 on ris_cover at 40 s), so the 90th has about 38 or more
/// requests beyond it.
///
/// latency_p50_ms is the median of the request classes' medians. Every class
/// (a request's place in the scenario) is sent once per scenario, and the
/// classes' latencies lie apart: ris_cover's six requests fall into three
/// that take a few ms and three whose medians are 15 ms or more. The median
/// of all requests then sits in the gap, between the slowest fast request
/// and the fastest slow one, and jumped with those two extremes from run to
/// run (spread 0.28-0.33); the median of the class medians sits in the same
/// gap but moves only with the classes' typical latencies. latency_p90_ms
/// falls inside the slowest class and is taken over all requests.
void end_to_end_metrics(const Log& log, const std::deque<Call>& calls,
                        const std::vector<double>& slowdown, MetricSet& m) {
  std::vector<double> throughput;
  std::vector<double> latency;
  std::map<std::string, std::vector<double>> by_class;
  for (std::size_t w = 0; w < log.windows.size(); ++w) {
    const auto [first, last] = log.windows[w];
    const double s = ms_between(calls[first].sent, calls[last - 1].finished) -
                     log.probe_pause_ms[w];
    throughput.push_back(static_cast<double>(last - first) / (s / 1e3) *
                         slowdown[w]);
    for (std::size_t i = first; i < last; ++i) {
      const double ms = calls[i].latency_ms / slowdown[w];
      latency.push_back(ms);
      by_class[calls[i].klass].push_back(ms);
    }
  }
  std::vector<double> class_p50s;
  for (auto& [klass, xs] : by_class) {
    class_p50s.push_back(pct(std::move(xs), 50));
  }
  m.add("requests_per_s", pct(std::move(throughput), 50), "req/s");
  m.add("latency_p50_ms", pct(std::move(class_p50s), 50), "ms");
  m.add("latency_p90_ms", pct(std::move(latency), 90), "ms");
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

int run(const Config& cfg) {
  Rng rng(cfg.seed);
  Workload w;
  if (cfg.workload == "mc_pipeline") {
    w = make_mc_pipeline(cfg, rng);
  } else if (cfg.workload == "ris_cover") {
    w = make_ris_cover(cfg, rng);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", cfg.workload.c_str());
    return 2;
  }

  service::ServiceConfig sc;
  sc.threads = cfg.threads;
  sc.max_concurrent = 0;  // the daemon default (auto)
  // One service throughout, so the set-ups run beside the pools' threads
  // (and their allocator arenas) the measured requests use.
  QueryService svc(sc);
  Client client(svc);
  Log log;
  // Host probe samples at each calibration point: the set-ups before the
  // first window, and those after each window. Window i lies between points
  // i and i + 1.
  const std::size_t wide = svc.pool().thread_count();
  HostProbe probe(wide);
  std::vector<ProbePoint> points(1);
  std::vector<std::pair<std::size_t, double>> setup_s;  // (point, seconds)
  auto timed_open = [&](const std::string& id) {
    points.back().narrow_ms.push_back(probe.narrow_ms());
    points.back().wide_ms.push_back(probe.wide_ms());
    const Clock::time_point t0 = Clock::now();
    svc.open_dataset(id, w.dataset.path, false, 1, w.dataset.backend);
    setup_s.emplace_back(points.size() - 1,
                         ms_between(t0, Clock::now()) / 1e3);
  };
  // The workload's session, then repeated set-ups of a second session from
  // the same file, each closed again at once.
  const std::string spare = w.dataset.id + ".setup";
  double setup_cpu_s = 0;
  double setup_wall_s = 0;
  auto setups = [&] {
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < kSetupReps; ++rep) {
      timed_open(spare);
      svc.registry().close(spare);
    }
    points.emplace_back();
    setup_wall_s += ms_between(t0, Clock::now()) / 1e3;
    setup_cpu_s += cpu_seconds() - cpu0;
  };
  timed_open(w.dataset.id);
  setups();

  reset_peak_rss();
  setup_cpu_s = 0;
  setup_wall_s = 0;
  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  double probe_cpu_s = 0;
  measure(cfg, w, client, log, setups, [&] {
    const double c0 = cpu_seconds();
    const double ms = probe.wide_ms();
    probe_cpu_s += cpu_seconds() - c0;
    return ms;
  });
  client.wait_all();
  const double peak_mb = peak_rss_mb();
  // CPU use and wall time of the measured phase, set-ups and probes taken
  // out.
  double probe_wall_s = 0;
  for (double ms : log.probe_pause_ms) probe_wall_s += ms / 1e3;
  const double wall_s = ms_between(start, Clock::now()) / 1e3 - setup_wall_s -
                        probe_wall_s;
  const double cpu_s = cpu_seconds() - cpu0 - setup_cpu_s - probe_cpu_s;
  const double cpu_util =
      cpu_s / (wall_s * static_cast<double>(svc.pool().thread_count()));
  const ServiceStats stats = svc.stats();
  std::deque<Call>& calls = log.calls();

  std::unique_ptr<Traced> traced;
  if (cfg.trace) {
    // The replay builds the same warm state again; free the service's copy.
    svc.registry().close(w.dataset.id);
    traced = std::make_unique<Traced>();
    staged_replay(cfg, w, calls, cfg.seconds * 1e3, *traced);
  }
  const Verdict verdict =
      check_calls(calls, traced ? traced->mismatch : std::vector<bool>{});
  for (const std::string& p : verdict.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }

  // The host's slowdown around each window, from the wide samples in it and
  // at the set-ups on both sides of it, and beside each set-up, from the
  // narrow samples of its point: a set-up runs on one thread, a request's
  // heavy stages on the whole inner pool. Which of the host's cores are
  // slowed changes from minute to minute, so only a probe as wide as the
  // pool follows the requests.
  std::vector<double> window_slowdown;
  for (std::size_t i = 0; i < log.windows.size(); ++i) {
    std::vector<double> around = points[i].wide_ms;
    for (const std::vector<double>* more :
         {&log.probe_ms[i], &points[i + 1].wide_ms}) {
      around.insert(around.end(), more->begin(), more->end());
    }
    window_slowdown.push_back(slowdown_of(std::move(around)));
  }
  std::vector<double> setups_scaled;
  std::vector<double> setups_raw;
  for (const auto& [point, s] : setup_s) {
    setups_scaled.push_back(s / slowdown_of(points[point].narrow_ms));
    setups_raw.push_back(s);
  }

  MetricSet m;
  // The same end-to-end figures unscaled, for the run context.
  MetricSet raw;
  if (!cfg.trace) {
    m.add("setup_s", pct(setups_scaled, 50), "s");
    m.add("peak_rss_mb", peak_mb, "MiB");
    m.add("ok_ratio", 1.0 - ratio(verdict.failed, verdict.attempted),
          "ok/attempted");
    end_to_end_metrics(log, calls, window_slowdown, m);
    raw.add("setup_s", pct(setups_raw, 50), "s");
    end_to_end_metrics(log, calls,
                       std::vector<double>(window_slowdown.size(), 1.0), raw);
  } else {
    per_layer_metrics(calls, stats, cpu_util, *traced, m);
    const std::string path = cfg.data_dir + "/trace-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".json";
    traced->rec.write_chrome_trace(path);
    std::fprintf(stderr, "trace written to %s\nself time by stage (ms):\n",
                 path.c_str());
    for (const auto& [name, ms] : traced->rec.self_ms_by_name()) {
      std::fprintf(stderr, "  %-32s %12.3f\n", name.c_str(), ms);
    }
  }

  std::filesystem::remove(w.dataset.path);

  JsonValue context = JsonValue::object();
  context.set("workload", cfg.workload);
  context.set("seed", cfg.seed);
  context.set("scale", cfg.scale);
  context.set("build_type", bench::kBuildType);
  context.set("nproc", static_cast<std::uint64_t>(
                           std::thread::hardware_concurrency()));
  context.set("inner_threads",
              static_cast<std::uint64_t>(svc.pool().thread_count()));
  context.set("seconds", cfg.seconds);
  context.set("measured_s", wall_s);
  context.set("resident_bytes",
              static_cast<std::uint64_t>(stats.registry.resident_bytes));
  context.set("host_slowdown", pct(window_slowdown, 50));
  context.set("unscaled", std::move(raw.obj));
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(verdict.digest));

  JsonValue out = JsonValue::object();
  out.set("correct", verdict.failed == 0);
  out.set("attempted", static_cast<std::uint64_t>(verdict.attempted));
  out.set("failed", static_cast<std::uint64_t>(verdict.failed));
  out.set("metrics", std::move(m.obj));
  out.set("digest", std::string(digest));
  out.set("context", std::move(context));
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  lcrb::bench::require_release_build("lcrb_perfbench");
  const lcrb::Args args(argc, argv);
  Config cfg;
  cfg.workload = args.get_string("workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.seconds = args.get_double("seconds", 10);
  cfg.trace = args.get_int("trace", 0) != 0;
  cfg.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  cfg.scale = args.get_double("scale", 0.3);
  cfg.data_dir = args.get_string("data-dir", cfg.data_dir);
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lcrb_perfbench: %s\n", e.what());
    return 1;
  }
}
