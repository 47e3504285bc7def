// The served pass: one client thread drives mqd::Server closed-loop
// with protocol lines, as `mqd serve` would receive them.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "core/io.h"
#include "passes.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace e2e {
namespace {

/// Value of `key=` in a response line, or -1.
int64_t Field(const std::string& line, const char* key) {
  const std::string needle = std::string(" ") + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + needle.size(), nullptr, 10);
}

bool IsOk(const std::string& line) {
  const size_t sp = line.find(' ');
  return sp != std::string::npos && line.compare(sp, 3, " ok") == 0 &&
         (line.size() == sp + 3 || line[sp + 3] == ' ');
}

/// The in-flight batch-lane request (at most one).
struct PendingSolve {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::string line;
  double start = 0.0, end = 0.0;
};

class Client {
 public:
  explicit Client(ServedRound* round) : round_(round) {}

  /// One stream-lane (or inline) request, waited for by yielding the
  /// core the process is pinned to (see main.cc) to the worker, so the
  /// wait adds no wake-up of its own. Returns the response line;
  /// latency in seconds.
  std::string Call(mqd::Server* server, const char* kind, const char* args,
                   double* latency) {
    char line[96];
    std::snprintf(line, sizeof(line), "%llu %s",
                  static_cast<unsigned long long>(next_id_++), args);
    auto& counts = round_->ops[kind];
    counts.first++;
    const double t0 = NowSeconds();
    auto req = mqd::ParseServeRequest(line);
    if (!req.ok()) {
      counts.second++;
      Fail(std::string("unparsable request: ") + line);
      return {};
    }
    std::atomic<bool> done{false};
    std::string response;
    server->Submit(std::move(req).value(),
                   [&](const mqd::ServeResponse& r) {
                     response = r.Format();
                     done.store(true, std::memory_order_release);
                   });
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    *latency = NowSeconds() - t0;
    if (!IsOk(response)) {
      counts.second++;
      Fail(std::string(line) + " -> " + response);
    }
    return response;
  }

  void SubmitSolve(mqd::Server* server, double lambda) {
    char line[96];
    std::snprintf(line, sizeof(line), "%llu solve lambda=%g budget_ms=0",
                  static_cast<unsigned long long>(next_id_++), lambda);
    round_->ops["solve"].first++;
    solve_ = std::make_shared<PendingSolve>();
    solve_->start = NowSeconds();
    auto req = mqd::ParseServeRequest(line);
    if (!req.ok()) {
      Fail(std::string("unparsable request: ") + line);
      solve_->done = true;
      return;
    }
    std::shared_ptr<PendingSolve> pending = solve_;
    server->Submit(std::move(req).value(),
                   [pending](const mqd::ServeResponse& r) {
                     std::string formatted = r.Format();
                     std::lock_guard<std::mutex> lock(pending->mu);
                     pending->line = std::move(formatted);
                     pending->end = NowSeconds();
                     pending->done = true;
                     pending->cv.notify_one();
                   });
  }

  /// Blocks until the in-flight solve answered; fills its record.
  void WaitSolve(OpRecord* rec) {
    std::unique_lock<std::mutex> lock(solve_->mu);
    solve_->cv.wait(lock, [&] { return solve_->done; });
    const std::string& line = solve_->line;
    round_->solve_ms.push_back((solve_->end - solve_->start) * 1e3);
    rec->cover = Field(line, "cover");
    rec->degraded = Field(line, "degraded");
    if (!IsOk(line) || rec->degraded != 0) {
      round_->ops["solve"].second++;
      Fail("solve -> " + line);
    }
  }

  void Fail(const std::string& what) {
    if (round_->error.empty()) round_->error = what;
  }

 private:
  ServedRound* round_;
  uint64_t next_id_ = 1;
  std::shared_ptr<PendingSolve> solve_;
};

}  // namespace

int CurrentThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
    std::getline(status, key);
  }
  return 0;
}

ServedRound RunServedRound(const Inputs& in, const std::string& work_dir) {
  const WorkloadSpec& spec = in.spec;
  ServedRound round;
  Client client(&round);

  // Set-up, first part: the matcher, or the post table from its file.
  mqd::Instance table;
  std::unique_ptr<mqd::TopicMatcher> matcher;
  double t = NowSeconds();
  if (spec.text) {
    auto m = mqd::TopicMatcher::Create(in.topics);
    if (!m.ok()) {
      round.error = "TopicMatcher::Create: " + m.status().ToString();
      return round;
    }
    matcher = std::make_unique<mqd::TopicMatcher>(std::move(m).value());
  } else {
    auto loaded = mqd::ReadInstanceFromFile(in.table_path);
    if (!loaded.ok()) {
      round.error = "ReadInstanceFromFile: " + loaded.status().ToString();
      return round;
    }
    table = std::move(loaded).value();
  }
  round.setup_s += NowSeconds() - t;

  // Text ingest is work after set-up: it is the firehose itself.
  double main_s = 0.0;
  if (spec.text) {
    t = NowSeconds();
    Tracer off(false);
    TextCounts counts;
    if (!IngestText(in, *matcher, &off, 0, nullptr, &counts, &table,
                    &round.error)) {
      return round;
    }
    round.ingest_s = NowSeconds() - t;
    main_s += round.ingest_s;
    round.input_posts = counts.tweets;
  } else {
    round.input_posts = table.num_posts();
  }
  const std::vector<Op> script = BuildScript(in, table);

  // Set-up, second part: the daemon and its epoch-0 subscriptions.
  const std::string checkpoint = work_dir + "/served.ckpt";
  std::error_code ec;
  std::filesystem::remove(checkpoint, ec);
  mqd::ServeConfig config;
  config.stream_kind = spec.kind;
  config.lambda = spec.lambda;
  config.tau = spec.tau;
  config.workers = 2;
  config.service_floor_ms = 0.0;
  config.tenant_mode = spec.tenant_mode;
  if (spec.restart) config.checkpoint_path = checkpoint;
  t = NowSeconds();
  auto created = mqd::Server::Create(table, config);
  if (!created.ok()) {
    round.error = "Server::Create: " + created.status().ToString();
    return round;
  }
  std::unique_ptr<mqd::Server> server = std::move(created).value();
  std::vector<int64_t> slot_tenant;
  char args[64];
  for (LabelMask mask : in.epoch0_masks) {
    std::snprintf(args, sizeof(args), "subscribe mask=%llx",
                  static_cast<unsigned long long>(mask));
    double latency = 0.0;
    const std::string line =
        client.Call(server.get(), "subscribe", args, &latency);
    slot_tenant.push_back(Field(line, "tenant"));
    round.setup_tenants.push_back(slot_tenant.back());
    round.setup_latency.push_back(latency);
  }
  round.setup_s += NowSeconds() - t;
  round.max_threads = CurrentThreads();
  if (!round.error.empty()) return round;

  // The script, closed-loop.
  t = NowSeconds();
  round.records.assign(script.size(), OpRecord{});
  round.op_latency.assign(script.size(), -1.0);
  round.op_wall.assign(script.size(), 0.0);
  size_t solve_op = 0;
  PostId cursor = 0;
  const PostId n = static_cast<PostId>(table.num_posts());
  for (size_t i = 0; i < script.size() && round.error.empty(); ++i) {
    const double op_start = NowSeconds();
    const Op& op = script[i];
    OpRecord& rec = round.records[i];
    double latency = -1.0;
    switch (op.kind) {
      case OpKind::kFeed: {
        std::snprintf(args, sizeof(args), "feed posts=%u", spec.feed_posts);
        const std::string line =
            client.Call(server.get(), "feed", args, &latency);
        cursor = std::min<PostId>(cursor + spec.feed_posts, n);
        if (Field(line, "cursor") != cursor) {
          client.Fail("feed cursor mismatch: " + line);
        }
        rec.emitted = Field(line, "emitted");
        round.feed_us.push_back(latency * 1e6);
        break;
      }
      case OpKind::kRead: {
        if (spec.tenant_mode) {
          std::snprintf(args, sizeof(args), "emissions tenant=%lld",
                        static_cast<long long>(slot_tenant[op.slot]));
        } else {
          std::snprintf(args, sizeof(args), "emissions");
        }
        const std::string line =
            client.Call(server.get(), "emissions", args, &latency);
        rec.emitted = Field(line, "emitted");
        round.read_us.push_back(latency * 1e6);
        break;
      }
      case OpKind::kSubscribe: {
        std::snprintf(args, sizeof(args), "subscribe mask=%llx",
                      static_cast<unsigned long long>(op.mask));
        const std::string line =
            client.Call(server.get(), "subscribe", args, &latency);
        rec.tenant = Field(line, "tenant");
        slot_tenant.push_back(rec.tenant);
        break;
      }
      case OpKind::kUnsubscribe: {
        std::snprintf(args, sizeof(args), "unsubscribe tenant=%lld",
                      static_cast<long long>(slot_tenant[op.slot]));
        client.Call(server.get(), "unsubscribe", args, &latency);
        break;
      }
      case OpKind::kSolve:
        solve_op = i;
        client.SubmitSolve(server.get(), spec.solve_lambda);
        round.requests++;
        break;
      case OpKind::kWaitSolve: {
        const double w = NowSeconds();
        client.WaitSolve(&round.records[solve_op]);
        round.wait_s += NowSeconds() - w;
        round.max_threads = std::max(round.max_threads, CurrentThreads());
        break;
      }
      case OpKind::kRestart: {
        // Quiesced (the script waited for the solve): drain writes the
        // checkpoint, a fresh daemon restores from it.
        double drain_latency = 0.0;
        const std::string line =
            client.Call(server.get(), "drain", "drain", &drain_latency);
        if (Field(line, "checkpoint") != 1) {
          client.Fail("drain wrote no checkpoint: " + line);
        }
        server.reset();
        round.ops["restore"].first++;
        auto again = mqd::Server::Create(table, config);
        if (!again.ok() || !(*again)->restored_from_checkpoint() ||
            (*again)->cursor() != cursor) {
          round.ops["restore"].second++;
          client.Fail("Server::Create did not restore the drained cursor");
          break;
        }
        server = std::move(again).value();
        round.requests += 2;
        break;
      }
      case OpKind::kFinish:
        client.Call(server.get(), "finish", "finish", &latency);
        break;
    }
    if (latency >= 0.0) {
      round.requests++;
      round.op_latency[i] = latency;
    }
    rec.cursor = cursor;
    round.op_wall[i] = NowSeconds() - op_start;
  }
  main_s += NowSeconds() - t;
  server.reset();
  std::filesystem::remove(checkpoint, ec);
  round.main_s = main_s;
  return round;
}

}  // namespace e2e
