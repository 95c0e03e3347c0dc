// In-memory span recorder for the benchmark's traced runs.
//
// The driver opens one span around each public engine call it makes
// (ParseQuery, Search, StageDocument, Commit, SaveEngineDir, ...) and one
// around each operation that groups them (a query, a commit cycle). Spans
// stay in memory until the run ends; the driver then derives self times and
// the per-layer metrics from them and writes them out as JSON lines.
//
// Single-threaded by design: only the driver's own thread records spans.
// When recording is off, opening a span costs one branch.

#ifndef XONTORANK_PERFBENCH_TRACE_H_
#define XONTORANK_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  uint32_t id = 0;      ///< 1-based; 0 means "no span"
  uint32_t parent = 0;  ///< enclosing span, 0 for a root
  uint64_t op = 0;      ///< operation id shared by all spans of one op
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t count = 0;  ///< work count measured at this boundary (or a flag)

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  /// RAII handle: closes its span when destroyed. Inert when not recording.
  class Scope {
   public:
    Scope(Tracer* tracer, uint32_t id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (id_ != 0) tracer_->Close(id_);
    }
    void set_count(int64_t count) {
      if (id_ != 0) tracer_->spans_[id_ - 1].count = count;
    }

   private:
    Tracer* tracer_;
    uint32_t id_;
  };

  /// Starts a new operation; `record` decides whether its spans are kept.
  void BeginOp(bool record) {
    ++op_;
    recording_ = record;
  }
  bool recording() const { return recording_; }

  Scope Open(const char* name) {
    if (!recording_) return Scope(this, 0);
    Span span;
    span.name = name;
    span.id = static_cast<uint32_t>(spans_.size() + 1);
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.op = op_;
    span.start_ns = NowNanos();
    spans_.push_back(span);
    stack_.push_back(span.id);
    return Scope(this, span.id);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: how many spans, their total time and their self time
  /// (duration minus the time covered by their direct children).
  struct LayerTime {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, LayerTime> SelfTimes() const {
    std::vector<double> child_ms(spans_.size() + 1, 0.0);
    for (const Span& span : spans_) {
      if (span.parent != 0) child_ms[span.parent] += span.millis();
    }
    std::map<std::string, LayerTime> layers;
    for (const Span& span : spans_) {
      LayerTime& layer = layers[span.name];
      ++layer.count;
      layer.total_ms += span.millis();
      layer.self_ms += span.millis() - child_ms[span.id];
    }
    return layers;
  }

  /// Durations (ms) of every span called `name` whose count satisfies
  /// `keep` (e.g. cache hits only).
  template <typename Pred>
  std::vector<double> Durations(const std::string& name, Pred keep) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name && keep(span)) out.push_back(span.millis());
    }
    return out;
  }

  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& span : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"op\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%lld}\n",
                   span.name, span.id, span.parent,
                   static_cast<unsigned long long>(span.op),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   static_cast<long long>(span.count));
    }
    return std::fclose(out) == 0;
  }

 private:
  void Close(uint32_t id) {
    spans_[id - 1].end_ns = NowNanos();
    // Scopes nest lexically, so the closing span is the innermost one.
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  uint64_t op_ = 0;
  bool recording_ = false;
};

}  // namespace perfbench

#endif  // XONTORANK_PERFBENCH_TRACE_H_
