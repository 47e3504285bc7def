// Shared declarations of the end-to-end benchmark: workload inputs,
// the request script both passes replay, and the records the checks
// compare.
#ifndef MQD_E2EBENCH_BENCH_H_
#define MQD_E2EBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "gen/tweet_gen.h"
#include "stream/factory.h"
#include "stream/stream_solver.h"
#include "topics/topic_model.h"

namespace e2e {

using mqd::LabelMask;
using mqd::PostId;

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The fixed shape of one workload: what the served daemon runs and
/// which requests the client sends.
struct WorkloadSpec {
  std::string name;
  bool text = false;  // posts come from tweet text (else a table file)
  bool tenant_mode = false;
  mqd::StreamKind kind = mqd::StreamKind::kStreamScanPlus;
  double lambda = 60.0;
  double tau = 10.0;
  double solve_lambda = 60.0;
  uint32_t feed_posts = 64;
  size_t epoch0_profiles = 0;
  size_t profile_labels = 4;
  /// Tenant churn: one subscribe + one unsubscribe every `churn_every`
  /// feeds (0 = none); at most `churn_window` mid-stream joiners live.
  uint32_t churn_every = 0;
  size_t churn_window = 0;
  /// Solves: `solves` evenly spaced, each waited for before the stream
  /// goes on; or, when `solve_period` > 0, one per period of stream
  /// time, running beside the stream until the next one is due.
  uint32_t solves = 0;
  double solve_period = 0.0;
  /// Single-stream mode: quiesce, drain (checkpoint) and restore once
  /// at mid-stream.
  bool restart = false;
};

WorkloadSpec SpecFor(const std::string& name, bool* ok);

/// Generated inputs of one run; the same seed gives the same inputs.
struct Inputs {
  WorkloadSpec spec;
  uint64_t seed = 0;
  // text_firehose
  std::vector<mqd::Tweet> tweets;
  std::vector<mqd::Topic> topics;
  // table workloads: the post table as a core/io file
  std::string table_path;
  size_t table_posts = 0;
  int num_labels = 0;
  std::vector<LabelMask> epoch0_masks;
};

/// Generates the inputs; table workloads write their file under
/// `work_dir`.
bool MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                const std::string& work_dir, Inputs* out, std::string* err);

/// One client operation after set-up. Tenant operations name a slot:
/// the n-th subscribe of the pass (set-up subscribes first).
enum class OpKind {
  kFeed,
  kRead,
  kSubscribe,
  kUnsubscribe,
  kSolve,
  kWaitSolve,
  kRestart,
  kFinish,
};

struct Op {
  OpKind kind;
  uint32_t slot = 0;    // kRead / kUnsubscribe
  LabelMask mask = 0;   // kSubscribe
};

/// The post-set-up request sequence of a pass; a pure function of
/// (spec, seed, post table), so every pass sends the same requests.
std::vector<Op> BuildScript(const Inputs& in, const mqd::Instance& table);

/// What one operation answered; compared between the served rounds and
/// the direct pass op by op.
struct OpRecord {
  int64_t emitted = -1;  // feed (single stream), read
  int64_t tenant = -1;   // subscribe
  int64_t cover = -1;    // solve
  int64_t degraded = -1;
  PostId cursor = 0;     // stream cursor when the op ran
};

/// The 40 keyword topics of `text_firehose`.
std::vector<mqd::Topic> CutTopics();

}  // namespace e2e

#endif  // MQD_E2EBENCH_BENCH_H_
