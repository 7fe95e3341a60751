#include "spans.h"

#include <fstream>

#include "util/error.h"
#include "util/json.h"

namespace lcrb::perfbench {

int SpanRecorder::open(std::string name, const std::string& request) {
  Span s;
  s.name = std::move(name);
  s.request = request;
  s.start_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanRecorder::close(int index) {
  LCRB_REQUIRE(!stack_.empty() && stack_.back() == index,
               "spans must close innermost first");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
}

void SpanRecorder::label_request(int first, const std::string& request) {
  for (auto i = static_cast<std::size_t>(first); i < spans_.size(); ++i) {
    spans_[i].request = request;
  }
}

void SpanRecorder::finish() {
  for (Span& s : spans_) s.self_ms = s.duration_ms();
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      spans_[static_cast<std::size_t>(s.parent)].self_ms -= s.duration_ms();
    }
  }
}

std::map<std::string, double> SpanRecorder::self_ms_by_name() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.self_ms;
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  JsonValue events = JsonValue::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonValue args = JsonValue::object();
    args.set("request", s.request);
    args.set("span", static_cast<std::int64_t>(i));
    args.set("parent", static_cast<std::int64_t>(s.parent));
    args.set("self_ms", s.self_ms);
    JsonValue e = JsonValue::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", s.start_ms * 1e3);
    e.set("dur", s.duration_ms() * 1e3);
    e.set("pid", static_cast<std::int64_t>(1));
    e.set("tid", static_cast<std::int64_t>(1));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path);
  LCRB_REQUIRE(out.good(), "cannot write trace file " + path);
  out << doc.dump() << '\n';
}

}  // namespace lcrb::perfbench
