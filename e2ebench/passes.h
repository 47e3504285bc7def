// The two ways one workload is run: the served closed-loop client
// (timed, untraced) and the direct pass that calls each layer's public
// functions on the same inputs in the same order (traced or not).
#ifndef MQD_E2EBENCH_PASSES_H_
#define MQD_E2EBENCH_PASSES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/instance.h"
#include "pipeline/matcher.h"
#include "trace.h"

namespace e2e {

/// Per-tweet checks on a fixed sample, filled by the direct pass.
struct TextSample {
  uint64_t checked = 0;
  std::vector<std::string> failures;
};

/// Tokenize -> match -> SimHash -> dedup -> InstanceBuilder over every
/// tweet. With a tracer, times each layer; with a sample, checks every
/// `kTextSampleStride`-th tweet against a naive keyword scan and a
/// brute-force scan of the detector's window.
struct TextCounts {
  uint64_t tweets = 0, tokens = 0, matched = 0, dropped = 0;
};
inline constexpr uint64_t kTextSampleStride = 97;
bool IngestText(const Inputs& in, const mqd::TopicMatcher& matcher,
                Tracer* tracer, uint32_t parent, TextSample* sample,
                TextCounts* counts, mqd::Instance* table, std::string* err);

/// One tenant's (or the single stream's) output as the direct pass saw
/// it. Unfinished streams are checked up to `horizon`.
struct StreamOutput {
  LabelMask mask = 0;
  PostId join = 0;
  bool finished = false;
  double horizon = 0.0;
  std::vector<mqd::Emission> emissions;
};

struct DirectResult {
  std::string error;  // non-empty: the pass could not run
  mqd::Instance table;
  std::vector<OpRecord> records;      // per script op
  std::vector<int64_t> setup_tenants; // per set-up subscribe
  /// Traced only: parse + call + format seconds of each stream-lane
  /// request, per script op (-1 for other ops) and per set-up subscribe.
  std::vector<double> op_seconds;
  std::vector<double> setup_op_seconds;
  std::vector<StreamOutput> streams;
  std::vector<std::vector<PostId>> covers;
  TextSample text_sample;
  TextCounts text;
  size_t clusters = 0;
  double fanout_amplification = 0.0;
  double shared_hit_rate = 0.0;
  uint64_t residual_corrections = 0;
  uint64_t arena_block_allocs = 0;
  uint64_t checkpoint_bytes = 0;
  double wall_s = 0.0;
  Tracer tracer{false};
};

DirectResult RunDirect(const Inputs& in, bool traced,
                       const std::string& work_dir);

/// One served round: set-up, then the script through mqd::Server.
struct ServedRound {
  std::string error;  // non-empty: a request failed or was refused
  double setup_s = 0.0;
  double main_s = 0.0;
  double ingest_s = 0.0;  // text ingest, part of main_s
  double wait_s = 0.0;    // client blocked on an in-flight solve
  uint64_t input_posts = 0;
  uint64_t requests = 0;  // completed after set-up
  std::vector<double> feed_us, read_us, solve_ms;
  std::vector<OpRecord> records;
  std::vector<int64_t> setup_tenants;
  /// Served latency of each stream-lane request (-1 for other ops) and
  /// of each set-up subscribe, seconds.
  std::vector<double> op_latency;
  std::vector<double> setup_latency;
  /// Client wall time of each script op, seconds: from the op's start to
  /// the start of the next one (request, solve wait, restart).
  std::vector<double> op_wall;
  /// Requests attempted and failed, per request kind.
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops;
  int max_threads = 0;
};

ServedRound RunServedRound(const Inputs& in, const std::string& work_dir);

/// Threads of this process now, from /proc/self/status (0 if unknown).
int CurrentThreads();

}  // namespace e2e

#endif  // MQD_E2EBENCH_PASSES_H_
