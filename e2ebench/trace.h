// In-memory span recorder and per-layer accumulators for the traced
// pass. Spans are written out only when the benchmark ends.
#ifndef MQD_E2EBENCH_TRACE_H_
#define MQD_E2EBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace e2e {

/// Layers timed around the library's public entry points, in the
/// module names of the library.
enum Layer {
  kTokenize,     // text: Tokenizer::Tokenize
  kMatch,        // pipeline: TopicMatcher::MatchTokens
  kFingerprint,  // simhash: SimHash
  kDedup,        // simhash: NearDuplicateDetector::IsDuplicate
  kBuild,        // core: InstanceBuilder::Add + Build
  kLoad,         // core: ReadInstanceFromFile
  kMatcherBuild, // pipeline: TopicMatcher::Create
  kCreate,       // stream: engine creation
  kSubscribe,    // stream: MultiTenantStream::Subscribe at set-up (epoch 0)
  kJoin,         // stream: MultiTenantStream::Subscribe mid-stream
  kUnsubscribe,  // stream: MultiTenantStream::Unsubscribe
  kFeed,         // stream: RunUntil / AdvanceTo+OnArrival
  kFinish,       // stream: Finish
  kDerive,       // stream: TenantEmissions / emissions()
  kCheckpoint,   // stream: WriteStreamCheckpointToFile
  kRestore,      // stream: fresh processor + ReadStreamCheckpointFromFile
  kSolve,        // core: GreedySCSolver::Solve (helper thread)
  kSolveWait,    // client blocked on the in-flight solve
  kParse,        // serve: ParseServeRequest
  kFormat,       // serve: response body + ServeResponse::Format
  kNumLayers,
};

const char* LayerName(Layer layer);

struct LayerStat {
  double seconds = 0.0;
  uint64_t calls = 0;
  uint64_t items = 0;
};

/// One span: `busy` equals end - start except for aggregated text
/// spans, which cover a chunk of tweets and carry the summed time of
/// their `n` calls.
struct Span {
  uint32_t id;
  uint32_t parent;
  const char* name;
  double start;
  double end;
  double busy;
  uint64_t n;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  double Now() const { return enabled_ ? NowSeconds() : 0.0; }

  uint32_t Open(const char* name, uint32_t parent, double start) {
    if (!enabled_) return 0;
    spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent,
                          name, start, start, 0.0, 1});
    return spans_.back().id;
  }
  void Close(uint32_t id, double end) {
    if (!enabled_ || id == 0) return;
    Span& s = spans_[id - 1];
    s.end = end;
    s.busy = end - s.start;
  }
  /// A closed span plus its layer's accumulator in one step.
  void Record(Layer layer, uint32_t parent, double start, double end,
              uint64_t items = 1) {
    if (!enabled_) return;
    Close(Open(LayerName(layer), parent, start), end);
    Add(layer, end - start, items);
  }
  void Add(Layer layer, double seconds, uint64_t items = 1) {
    if (!enabled_) return;
    LayerStat& s = stats_[layer];
    s.seconds += seconds;
    s.calls += 1;
    s.items += items;
  }
  /// Aggregated child span of `parent` for `n` calls that took `busy`.
  void Aggregate(const char* name, uint32_t parent, double start, double end,
                 double busy, uint64_t n) {
    if (!enabled_ || n == 0) return;
    spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent,
                          name, start, end, busy, n});
  }

  const LayerStat& stat(Layer layer) const { return stats_[layer]; }
  LayerStat& mutable_stat(Layer layer) { return stats_[layer]; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as JSON lines; false on an I/O failure.
  bool WriteJsonl(const std::string& path, double origin) const;

 private:
  bool enabled_;
  LayerStat stats_[kNumLayers];
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // MQD_E2EBENCH_TRACE_H_
