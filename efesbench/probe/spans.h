// In-memory spans for the benchmark's traced run.
//
// The benchmark times calls into each EFES layer from the outside: every
// call sits inside a ScopedSpan, spans nest by lexical scope, and the log
// is written out once at the end as Chrome trace-event JSON. Nothing here
// touches the program's own TraceRecorder or MetricsRegistry, so the
// traced run registers no names in the program.

#ifndef EFESBENCH_PROBE_SPANS_H_
#define EFESBENCH_PROBE_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "efes/common/clock.h"
#include "efes/common/json_writer.h"

namespace efesbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  // index into spans(), -1 for a root
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  size_t Begin(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    span.start_ns = efes::Clock::Default()->NowNanos();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void End(size_t index) {
    spans_[index].end_ns = efes::Clock::Default()->NowNanos();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children. Children of one
  /// span never overlap: every call here runs on the calling thread.
  double SelfMs(size_t index) const {
    double self = spans_[index].ms();
    for (const Span& span : spans_) {
      if (span.parent == static_cast<int>(index)) self -= span.ms();
    }
    return self;
  }

  /// Self time per span name, summed over the descendants of every root
  /// span called `root` (the roots themselves included).
  std::map<std::string, double> SelfMsUnder(const std::string& root) const {
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (RootName(i) == root) self[spans_[i].name] += SelfMs(i);
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string ToChromeTraceJson() const {
    efes::JsonWriter json;
    json.BeginObject();
    json.Key("traceEvents");
    json.BeginArray();
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.BeginObject();
      json.Key("name");
      json.String(span.name);
      json.Key("ph");
      json.String("X");
      json.Key("pid");
      json.Number(static_cast<int64_t>(1));
      json.Key("tid");
      json.Number(static_cast<int64_t>(1));
      json.Key("ts");
      json.Number(static_cast<double>(span.start_ns - origin) / 1e3);
      json.Key("dur");
      json.Number(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      json.Key("args");
      json.BeginObject();
      json.Key("id");
      json.Number(i);
      json.Key("parent");
      json.Number(static_cast<int64_t>(span.parent));
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return json.ToString();
  }

 private:
  std::string RootName(size_t index) const {
    while (spans_[index].parent >= 0) {
      index = static_cast<size_t>(spans_[index].parent);
    }
    return spans_[index].name;
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Times one lexical scope as a span of `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), index_(log.Begin(std::move(name))) {}
  ~ScopedSpan() { log_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  size_t index() const { return index_; }

 private:
  SpanLog& log_;
  size_t index_;
};

}  // namespace efesbench

#endif  // EFESBENCH_PROBE_SPANS_H_
