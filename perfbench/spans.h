// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call the benchmark makes into a library module (graph
// load, community detection, experiment setup, sigma estimator, greedy, RIS,
// SCBG, evaluation, codec). Spans are recorded from the benchmark's own code
// only — the library itself is not instrumented — so the untraced runs
// execute exactly the program a user runs. Spans of one request share its
// request id; nesting follows the call stack of the single recording thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace lcrb::perfbench {

struct Span {
  std::string name;
  std::string request;  ///< request id ("setup" for dataset loads)
  double start_ms = 0;  ///< since the recorder was created
  double end_ms = 0;
  int parent = -1;      ///< index into the recorder's spans, -1 = root
  double self_ms = 0;   ///< filled by SpanRecorder::finish()

  double duration_ms() const { return end_ms - start_ms; }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its index.
  int open(std::string name, const std::string& request);
  void close(int index);
  /// Sets the request id of span `first` and every span opened after it
  /// (a request's id is known only once its wire line is decoded).
  void label_request(int first, const std::string& request);

  /// Computes every span's self time: its duration minus the time its
  /// children cover (children never overlap: one thread records).
  void finish();

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time summed per span name.
  std::map<std::string, double> self_ms_by_name() const;

  /// Writes the spans as Chrome trace-event JSON (complete "X" events).
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, const std::string& request)
      : rec_(rec), index_(rec.open(std::move(name), request)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace lcrb::perfbench
