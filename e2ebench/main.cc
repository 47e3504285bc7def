// e2e_bench: the end-to-end benchmark of the Figure-1 path.
//
//   e2e_bench --workload <text_firehose|tenant_churn|solve_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>] [--revision <r>]
//
// Runs a direct pass over the generated inputs, whole served rounds for
// at least --seconds, and with --trace 1 a traced direct pass; checks the
// outputs and prints a provenance line and, last, one JSON result.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checker.h"
#include "core/coverage.h"
#include "passes.h"
#include "stream/factory.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string revision = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--trace-out") a->trace_out = v;
    else if (k == "--revision") a->revision = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The same script runs in every round, so the k-th entry of `field` is
/// the same request in each. Returns, per entry, its median over the
/// rounds: a host stall lands on a few requests of one round and drops
/// out, while a slower program moves every round.
std::vector<double> PerOpMedian(const std::vector<ServedRound>& rounds,
                                std::vector<double> ServedRound::*field) {
  std::vector<double> out, across;
  if (rounds.empty()) return out;
  for (size_t k = 0; k < (rounds.front().*field).size(); ++k) {
    across.clear();
    for (const ServedRound& r : rounds) {
      if (k < (r.*field).size()) across.push_back((r.*field)[k]);
    }
    out.push_back(Median(across));
  }
  return out;
}

double PerCall(const LayerStat& s, double scale) {
  return s.calls == 0 ? 0.0 : s.seconds / static_cast<double>(s.calls) * scale;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The checks: every served round against the direct pass, and the
/// direct outputs against the independent checker.
struct Verdict {
  std::vector<std::string> failures;
  uint64_t finished_emitted = 0;
  uint64_t finished_bound = 0;
  size_t table_bound = 0;
  uint64_t streams_checked = 0;
  void Fail(const std::string& s) {
    if (failures.size() < 20) failures.push_back(s);
  }
};

Verdict Verify(const Inputs& in, const std::vector<ServedRound>& rounds,
               const DirectResult& d) {
  Verdict v;
  const WorkloadSpec& spec = in.spec;
  for (const std::string& f : CheckerSelfTest()) v.Fail("checker: " + f);
  if (!d.error.empty()) {
    v.Fail("direct pass: " + d.error);
    return v;
  }
  for (size_t r = 0; r < rounds.size(); ++r) {
    const ServedRound& s = rounds[r];
    const std::string where = "round " + std::to_string(r) + ": ";
    if (!s.error.empty()) {
      v.Fail(where + s.error);
      continue;
    }
    if (s.setup_tenants != d.setup_tenants) v.Fail(where + "set-up tenant ids");
    if (s.records.size() != d.records.size()) {
      v.Fail(where + "script length differs from the direct pass");
      continue;
    }
    for (size_t i = 0; i < s.records.size(); ++i) {
      const OpRecord& a = s.records[i];
      const OpRecord& b = d.records[i];
      if (a.emitted != b.emitted || a.tenant != b.tenant ||
          a.cover != b.cover || a.cursor != b.cursor) {
        v.Fail(where + "op " + std::to_string(i) + " served emitted=" +
               std::to_string(a.emitted) + " tenant=" +
               std::to_string(a.tenant) + " cover=" + std::to_string(a.cover) +
               " differs from the direct pass (" + std::to_string(b.emitted) +
               ", " + std::to_string(b.tenant) + ", " +
               std::to_string(b.cover) + ")");
        break;
      }
    }
  }

  // Every stream's emission list. Tenants with the same stream and the
  // same list share one verdict.
  std::map<std::pair<LabelMask, PostId>, size_t> bounds;
  std::map<std::tuple<LabelMask, PostId, double>,
           std::vector<const std::vector<mqd::Emission>*>>
      checked;
  for (const StreamOutput& out : d.streams) {
    StreamShape shape;
    shape.mask = out.mask;
    shape.join = out.join;
    shape.lambda = spec.lambda;
    shape.tau = spec.tau;
    shape.horizon =
        out.finished ? std::numeric_limits<double>::infinity() : out.horizon;
    auto& same = checked[{out.mask, out.join, shape.horizon}];
    bool known = false;
    for (const auto* list : same) known = known || *list == out.emissions;
    if (!known) {
      const std::string why = CheckEmissions(d.table, shape, out.emissions);
      if (!why.empty()) v.Fail("stream output: " + why);
      same.push_back(&out.emissions);
    }
    v.streams_checked++;
    if (!out.finished) continue;
    auto it = bounds.find({out.mask, out.join});
    if (it == bounds.end()) {
      it = bounds
               .emplace(std::make_pair(out.mask, out.join),
                        StreamLowerBound(d.table, out.mask, out.join,
                                         spec.lambda))
               .first;
    }
    v.finished_emitted += out.emissions.size();
    v.finished_bound += it->second;
    if (out.emissions.size() < it->second) {
      v.Fail("stream emitted fewer posts than its lower bound");
    }
  }

  // Solves: each direct cover is a lambda-cover; served sizes were
  // compared op by op above and must not undercut the bound.
  v.table_bound =
      StreamLowerBound(d.table, ~LabelMask{0}, 0, spec.solve_lambda);
  for (const auto& cover : d.covers) {
    const std::string why = CheckCover(d.table, spec.solve_lambda, cover);
    if (!why.empty()) v.Fail("direct solve cover: " + why);
    if (cover.size() < v.table_bound) v.Fail("cover below the lower bound");
  }

  // The drained-and-restored stream ends equal to an uninterrupted one.
  if (spec.restart) {
    const mqd::UniformLambda model(spec.lambda);
    auto proc = mqd::CreateStreamProcessorChecked(spec.kind, d.table, model,
                                                  spec.tau);
    if (!proc.ok()) {
      v.Fail("replay: " + proc.status().ToString());
    } else {
      for (PostId p = 0; p < d.table.num_posts(); ++p) {
        (*proc)->AdvanceTo(d.table.value(p));
        (*proc)->OnArrival(p);
      }
      (*proc)->Finish();
      if (d.streams.empty() || (*proc)->emissions() != d.streams[0].emissions) {
        v.Fail("restored stream differs from an uninterrupted replay");
      }
    }
  }

  if (spec.text) {
    if (d.text_sample.checked == 0) v.Fail("no text sample checked");
    for (const std::string& f : d.text_sample.failures) v.Fail("text: " + f);
  }
  return v;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir d] [--trace-out f] "
                 "[--revision r]\n");
    return 2;
  }
  bool known = false;
  const WorkloadSpec spec = SpecFor(args.workload, &known);
  if (!known) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  // The whole run, the daemon's workers included, stays on the core it
  // started on. On the reference VM, handing a request to a worker on
  // another vCPU wakes that vCPU through the hypervisor, which costs
  // what the host's load makes it: unpinned, in one busy hour,
  // tenant_churn read 134k-151k posts/s and a feed p50 of 47-50 us,
  // and pinned 200k-204k posts/s and 33-34 us, as on a quiet host. No
  // two requests of the client overlap but a solve and the stream of
  // solve_mix, and those two now share the core.
  const int core = sched_getcpu();
  if (core >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(core, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  Inputs in;
  std::string err;
  if (!MakeInputs(spec, args.seed, args.work_dir, &in, &err)) {
    std::fprintf(stderr, "input generation failed: %s\n", err.c_str());
    return 1;
  }

  // The direct pass runs first: its outputs are what the checks
  // examine, and the peak resident set after it is that of a process
  // that has run the workload once. (Taken after a served round instead,
  // the peak moves by a quarter between runs of one seed, with which
  // worker's malloc arena each request happened to use.)
  DirectResult direct = RunDirect(in, false, args.work_dir);
  std::fprintf(stderr, "direct pass: %.3fs\n", direct.wall_s);
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // Served rounds, whole ones only, until the run length is reached.
  std::vector<ServedRound> rounds;
  const double start = NowSeconds();
  do {
    rounds.push_back(RunServedRound(in, args.work_dir));
    const ServedRound& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu: setup %.3fs main %.3fs (ingest %.3fs) "
                 "feed p50/p99/p99.9 %.1f/%.1f/%.1fus "
                 "read %.1f/%.1f/%.1fus solve p50 %.1fms%s%s\n",
                 rounds.size(), r.setup_s, r.main_s, r.ingest_s,
                 Quantile(r.feed_us, 0.5), Quantile(r.feed_us, 0.99),
                 Quantile(r.feed_us, 0.999),
                 Quantile(r.read_us, 0.5), Quantile(r.read_us, 0.99),
                 Quantile(r.read_us, 0.999), Quantile(r.solve_ms, 0.5),
                 r.error.empty() ? "" : " error: ", r.error.c_str());
    if (!r.error.empty()) break;
  } while (NowSeconds() - start < args.seconds);
  const double measured = NowSeconds() - start;

  DirectResult traced;
  if (args.trace) traced = RunDirect(in, true, args.work_dir);
  Verdict verdict = Verify(in, rounds, direct);
  if (args.trace && !traced.error.empty()) {
    verdict.Fail("traced pass: " + traced.error);
  }
  const unsigned cores = std::thread::hardware_concurrency();
  int max_threads = 0;
  for (const ServedRound& r : rounds) {
    max_threads = std::max(max_threads, r.max_threads);
  }
  if (cores >= 3 && max_threads > static_cast<int>(cores)) {
    verdict.Fail("ran " + std::to_string(max_threads) + " threads on " +
                 std::to_string(cores) + " cores");
  }
  if (!in.table_path.empty()) std::filesystem::remove(in.table_path, ec);

  // Operations attempted and failed, per request kind.
  std::map<std::string, std::pair<uint64_t, uint64_t>> ops;
  uint64_t attempted = 0, failed = 0, degraded = 0;
  // Set-up is the median over the run's rounds. The rates divide one
  // round's work by its text ingest (median over rounds) plus, summed
  // over the script, each op's median wall time over the rounds; the
  // p50s are taken over each request's median latency over the rounds.
  // The tails are taken per round, median over rounds.
  std::vector<double> setup, ingest, solve;
  std::vector<double> feed90, feed99, read90, read99;
  size_t feeds = 0, reads = 0;
  for (const ServedRound& r : rounds) {
    for (const auto& [kind, c] : r.ops) {
      ops[kind].first += c.first;
      ops[kind].second += c.second;
      attempted += c.first;
      failed += c.second;
    }
    for (const OpRecord& rec : r.records) degraded += rec.degraded > 0;
    setup.push_back(r.setup_s);
    ingest.push_back(r.ingest_s);
    feed90.push_back(Quantile(r.feed_us, 0.9));
    feed99.push_back(Quantile(r.feed_us, 0.99));
    read90.push_back(Quantile(r.read_us, 0.9));
    read99.push_back(Quantile(r.read_us, 0.99));
    feeds += r.feed_us.size();
    reads += r.read_us.size();
    solve.insert(solve.end(), r.solve_ms.begin(), r.solve_ms.end());
  }
  double main_s = Median(ingest);
  for (double w : PerOpMedian(rounds, &ServedRound::op_wall)) main_s += w;
  const double round_posts =
      rounds.empty() ? 0.0 : static_cast<double>(rounds.front().input_posts);
  const double round_requests =
      rounds.empty() ? 0.0 : static_cast<double>(rounds.front().requests);
  std::vector<double> served_covers;
  if (!rounds.empty()) {
    for (const OpRecord& rec : rounds.front().records) {
      if (rec.cover >= 0) {
        served_covers.push_back(static_cast<double>(rec.cover));
      }
    }
  }

  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  std::string prov = "{\"provenance\":{\"workload\":" + JsonString(spec.name) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"revision\":" + JsonString(args.revision) +
                     ",\"host\":" + JsonString(host) +
                     ",\"cores\":" + std::to_string(cores) +
                     ",\"pinned_core\":" + std::to_string(core) +
                     ",\"compiler\":" + JsonString("gcc " __VERSION__) +
                     ",\"build_type\":" + JsonString(E2E_BUILD_TYPE) +
                     ",\"rounds\":" + std::to_string(rounds.size()) +
                     ",\"measured_s\":" + std::to_string(measured) +
                     ",\"max_threads\":" + std::to_string(max_threads) +
                     ",\"samples\":{\"feed\":" + std::to_string(feeds) +
                     ",\"read\":" + std::to_string(reads) +
                     ",\"solve\":" + std::to_string(solve.size()) +
                     "},\"streams_checked\":" +
                     std::to_string(verdict.streams_checked) + ",\"ops\":{";
  bool first = true;
  for (const auto& [kind, c] : ops) {
    prov += (first ? "" : ",") + JsonString(kind) + ":{\"attempted\":" +
            std::to_string(c.first) + ",\"failed\":" +
            std::to_string(c.second) + "}";
    first = false;
  }
  prov += "},\"check_failures\":[";
  for (size_t i = 0; i < verdict.failures.size(); ++i) {
    prov += (i ? "," : "") + JsonString(verdict.failures[i]);
  }
  prov += "]}}";
  std::printf("%s\n", prov.c_str());

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  auto put = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  };
  if (!args.trace) {
    put("setup_s", Median(setup), "s");
    put("posts_per_s", Ratio(round_posts, main_s), "posts/s");
    put("requests_per_s", Ratio(round_requests, main_s), "req/s");
    put("feed_p50_us", Median(PerOpMedian(rounds, &ServedRound::feed_us)),
        "us");
    put("read_p50_us", Median(PerOpMedian(rounds, &ServedRound::read_us)),
        "us");
    put("solve_p50_ms", Quantile(solve, 0.5), "ms");
    put("digest_ratio",
        Ratio(static_cast<double>(verdict.finished_emitted),
              static_cast<double>(verdict.finished_bound)),
        "ratio");
    put("solve_cover_ratio",
        Ratio(Median(served_covers), static_cast<double>(verdict.table_bound)),
        "ratio");
    put("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const Tracer& t = traced.tracer;
    const TextCounts& tc = traced.text;
    put("text.tokenize_us", PerCall(t.stat(kTokenize), 1e6), "us");
    put("text.tokens", Ratio(tc.tokens, tc.tweets), "tokens/tweet");
    put("pipeline.match_us", PerCall(t.stat(kMatch), 1e6), "us");
    put("pipeline.match_yield", Ratio(tc.matched, tc.tweets), "ratio");
    put("simhash.fingerprint_us", PerCall(t.stat(kFingerprint), 1e6), "us");
    put("simhash.dedup_us", PerCall(t.stat(kDedup), 1e6), "us");
    put("simhash.drop_yield", Ratio(tc.dropped, tc.matched), "ratio");
    put("core.build_ms", t.stat(kBuild).seconds * 1e3, "ms");
    put("core.load_ms", t.stat(kLoad).seconds * 1e3, "ms");
    put("core.solve_ms", PerCall(t.stat(kSolve), 1e3), "ms");
    put("core.cover_size",
        Ratio(static_cast<double>(t.stat(kSolve).items),
              static_cast<double>(t.stat(kSolve).calls)),
        "posts");
    put("core.degraded", static_cast<double>(degraded), "count");
    put("stream.feed_us", PerCall(t.stat(kFeed), 1e6), "us");
    put("stream.post_us",
        Ratio(t.stat(kFeed).seconds * 1e6,
              static_cast<double>(t.stat(kFeed).items)),
        "us");
    uint64_t emitted = 0;
    for (const StreamOutput& s : traced.streams) {
      if (s.finished) emitted += s.emissions.size();
    }
    put("stream.emissions", static_cast<double>(emitted), "count");
    put("stream.derive_us", PerCall(t.stat(kDerive), 1e6), "us");
    put("stream.subscribe_us", PerCall(t.stat(kSubscribe), 1e6), "us");
    put("stream.join_us", PerCall(t.stat(kJoin), 1e6), "us");
    put("stream.unsubscribe_us", PerCall(t.stat(kUnsubscribe), 1e6), "us");
    put("stream.clusters", static_cast<double>(traced.clusters), "count");
    put("stream.fanout_amplification", traced.fanout_amplification, "ratio");
    put("stream.shared_hit_rate", traced.shared_hit_rate, "ratio");
    put("stream.residual_corrections",
        static_cast<double>(traced.residual_corrections), "count");
    put("stream.arena_block_allocs",
        static_cast<double>(traced.arena_block_allocs), "count");
    put("stream.checkpoint_ms", t.stat(kCheckpoint).seconds * 1e3, "ms");
    put("stream.checkpoint_bytes", static_cast<double>(traced.checkpoint_bytes),
        "bytes");
    put("stream.restore_ms", t.stat(kRestore).seconds * 1e3, "ms");
    put("serve.feed_p90_us", Median(feed90), "us");
    put("serve.feed_p99_us", Median(feed99), "us");
    put("serve.read_p90_us", Median(read90), "us");
    put("serve.read_p99_us", Median(read99), "us");
    put("serve.parse_us", PerCall(t.stat(kParse), 1e6), "us");
    put("serve.format_us", PerCall(t.stat(kFormat), 1e6), "us");

    // Serve overhead: served latency minus the direct parse + call +
    // format time of the same request, per round.
    std::vector<double> overhead;
    uint64_t overhead_n = 0;
    for (const ServedRound& r : rounds) {
      double sum = 0.0;
      uint64_t n = 0;
      for (size_t i = 0; i < r.op_latency.size() &&
                         i < traced.op_seconds.size(); ++i) {
        if (r.op_latency[i] < 0.0 || traced.op_seconds[i] < 0.0) continue;
        sum += r.op_latency[i] - traced.op_seconds[i];
        ++n;
      }
      for (size_t i = 0; i < r.setup_latency.size() &&
                         i < traced.setup_op_seconds.size(); ++i) {
        sum += r.setup_latency[i] - traced.setup_op_seconds[i];
        ++n;
      }
      overhead.push_back(sum);
      overhead_n = n;
    }
    const double serve_overhead = Median(overhead);
    put("serve.overhead_us",
        Ratio(serve_overhead * 1e6, static_cast<double>(overhead_n)), "us");
    // The client's blocking path: its own layer calls, the serve
    // overhead of its requests, and its waits for an in-flight solve
    // (taken from the served rounds: how much of a solve the stream
    // hides depends on the stream's served speed).
    double client = 0.0;
    for (int l = 0; l < kNumLayers; ++l) {
      if (l != kSolve && l != kSolveWait) {
        client += t.stat(static_cast<Layer>(l)).seconds;
      }
    }
    std::vector<double> waits;
    for (const ServedRound& r : rounds) waits.push_back(r.wait_s);
    const double untraced_wall = Median(setup) + main_s;
    const double attributed = client + serve_overhead + Median(waits);
    put("ledger.attributed_share", Ratio(attributed, untraced_wall), "ratio");
    put("ledger.unattributed_ms", (untraced_wall - attributed) * 1e3, "ms");
    put("ledger.trace_overhead_pct",
        Ratio(traced.wall_s - direct.wall_s, direct.wall_s) * 100.0, "%");
    if (!args.trace_out.empty() &&
        !t.WriteJsonl(args.trace_out, t.spans().empty()
                                          ? 0.0
                                          : t.spans().front().start)) {
      verdict.Fail("could not write " + args.trace_out);
    }
  }

  std::string out = "{\"correct\": ";
  out += verdict.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].first.c_str(),
                  metrics[i].second.first, metrics[i].second.second);
    out += buf;
  }
  out += "}}";
  for (const std::string& f : verdict.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  std::printf("%s\n", out.c_str());
  return verdict.failures.empty() ? 0 : 3;
}
