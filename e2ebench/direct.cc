// The direct pass: the served script replayed by calling each layer's
// public functions, timed from here when traced.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "core/coverage.h"
#include "core/greedy_sc.h"
#include "core/io.h"
#include "passes.h"
#include "serve/protocol.h"
#include "simhash/dedup.h"
#include "simhash/simhash.h"
#include "stream/checkpoint.h"
#include "stream/multi_tenant.h"
#include "text/tokenizer.h"

namespace e2e {
namespace {

// The detector's defaults, restated for the brute-force window check.
constexpr int kDedupDistance = 3;
constexpr uint64_t kDedupWindow = 100000;

/// True when some fingerprint in [begin, end) is within `distance` of
/// `fp`: the brute-force scan of the detector's window.
#if defined(__x86_64__)
__attribute__((target("popcnt")))
#endif
bool AnyWithin(const uint64_t* begin, const uint64_t* end, uint64_t fp,
               int distance) {
  for (const uint64_t* it = begin; it != end; ++it) {
    if (__builtin_popcountll(*it ^ fp) <= distance) return true;
  }
  return false;
}

/// Labels whose keywords occur among `tokens` (a '#'/'$' tag also
/// counts for its bare word), by a plain scan of every keyword.
LabelMask NaiveKeywordScan(const std::vector<mqd::Topic>& topics,
                           const std::vector<std::string>& tokens) {
  LabelMask mask = 0;
  for (size_t i = 0; i < topics.size(); ++i) {
    for (const std::string& kw : topics[i].keywords) {
      for (const std::string& t : tokens) {
        const bool tagged = !t.empty() && (t[0] == '#' || t[0] == '$');
        if (t == kw || (tagged && t.compare(1, std::string::npos, kw) == 0)) {
          mask |= LabelMask{1} << i;
        }
      }
    }
  }
  return mask;
}

void AppendKv(std::string* body, const char* key, uint64_t value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%s=%llu", body->empty() ? "" : " ", key,
                static_cast<unsigned long long>(value));
  *body += buf;
}

}  // namespace

bool IngestText(const Inputs& in, const mqd::TopicMatcher& matcher,
                Tracer* tr, uint32_t parent, TextSample* sample,
                TextCounts* counts, mqd::Instance* table, std::string* err) {
  constexpr size_t kChunk = 256;
  mqd::Tokenizer tokenizer;
  mqd::NearDuplicateDetector detector(kDedupDistance, kDedupWindow);
  mqd::InstanceBuilder builder(matcher.num_labels());
  std::vector<uint64_t> recorded;  // fingerprints the detector kept
  const std::vector<mqd::Tweet>& tweets = in.tweets;
  for (size_t c0 = 0; c0 < tweets.size(); c0 += kChunk) {
    const size_t c1 = std::min(tweets.size(), c0 + kChunk);
    const double chunk_start = tr->Now();
    double busy[5] = {0, 0, 0, 0, 0};
    uint64_t calls[5] = {0, 0, 0, 0, 0};
    for (size_t i = c0; i < c1; ++i) {
      const mqd::Tweet& tweet = tweets[i];
      const double t0 = tr->Now();
      std::vector<std::string> tokens = tokenizer.Tokenize(tweet.text);
      const double t1 = tr->Now();
      const LabelMask mask = matcher.MatchTokens(tokens);
      const double t2 = tr->Now();
      busy[0] += t1 - t0;
      busy[1] += t2 - t1;
      calls[0]++;
      calls[1]++;
      counts->tweets++;
      counts->tokens += tokens.size();
      const bool sampled = sample != nullptr && i % kTextSampleStride == 0;
      if (sampled) {
        sample->checked++;
        const LabelMask naive = NaiveKeywordScan(in.topics, tokens);
        if (naive != mask) {
          sample->failures.push_back("tweet " + std::to_string(i) +
                                     ": matcher labels differ from a "
                                     "keyword scan");
        }
      }
      if (mask == 0) continue;
      counts->matched++;
      const double t3 = tr->Now();
      const uint64_t fp = mqd::SimHash(tokens);
      const double t4 = tr->Now();
      bool near = false;
      if (sampled) {
        const size_t from =
            recorded.size() > kDedupWindow ? recorded.size() - kDedupWindow : 0;
        near = AnyWithin(recorded.data() + from,
                         recorded.data() + recorded.size(), fp,
                         kDedupDistance);
      }
      const double t5 = tr->Now();
      const bool dup = detector.IsDuplicate(fp);
      const double t6 = tr->Now();
      busy[2] += t4 - t3;
      busy[3] += t6 - t5;
      calls[2]++;
      calls[3]++;
      if (sampled && near != dup) {
        sample->failures.push_back(
            "tweet " + std::to_string(i) +
            (dup ? ": dropped with no fingerprint within distance 3 in the "
                   "window"
                 : ": kept although the window holds a fingerprint within "
                   "distance 3"));
      }
      if (dup) {
        counts->dropped++;
        continue;
      }
      recorded.push_back(fp);
      const double t7 = tr->Now();
      builder.Add(tweet.time, mask, tweet.id);
      busy[4] += tr->Now() - t7;
      calls[4]++;
    }
    const double chunk_end = tr->Now();
    if (tr->enabled()) {
      const uint32_t chunk = tr->Open("text.chunk", parent, chunk_start);
      tr->Close(chunk, chunk_end);
      const Layer layers[5] = {kTokenize, kMatch, kFingerprint, kDedup,
                               kBuild};
      for (int k = 0; k < 5; ++k) {
        tr->Aggregate(LayerName(layers[k]), chunk, chunk_start, chunk_end,
                      busy[k], calls[k]);
        LayerStat& s = tr->mutable_stat(layers[k]);
        s.seconds += busy[k];
        s.calls += calls[k];
        s.items += calls[k];
      }
    }
  }
  const double b0 = tr->Now();
  auto built = builder.Build();
  if (!built.ok()) {
    *err = "InstanceBuilder::Build: " + built.status().ToString();
    return false;
  }
  *table = std::move(built).value();
  tr->Record(kBuild, parent, b0, tr->Now(), 0);
  return true;
}

DirectResult RunDirect(const Inputs& in, bool traced,
                       const std::string& work_dir) {
  const WorkloadSpec& spec = in.spec;
  DirectResult r;
  r.tracer = Tracer(traced);
  Tracer& tr = r.tracer;
  const double wall0 = NowSeconds();
  const uint32_t pass = tr.Open("pass", 0, tr.Now());

  // Set-up and (text) ingest, in the served round's order.
  std::unique_ptr<mqd::TopicMatcher> matcher;
  if (spec.text) {
    const double t0 = tr.Now();
    auto m = mqd::TopicMatcher::Create(in.topics);
    tr.Record(kMatcherBuild, pass, t0, tr.Now());
    if (!m.ok()) {
      r.error = "TopicMatcher::Create: " + m.status().ToString();
      return r;
    }
    matcher = std::make_unique<mqd::TopicMatcher>(std::move(m).value());
    if (!IngestText(in, *matcher, &tr, pass, &r.text_sample, &r.text,
                    &r.table, &r.error)) {
      return r;
    }
  } else {
    const double t0 = tr.Now();
    auto loaded = mqd::ReadInstanceFromFile(in.table_path);
    tr.Record(kLoad, pass, t0, tr.Now());
    if (!loaded.ok()) {
      r.error = "ReadInstanceFromFile: " + loaded.status().ToString();
      return r;
    }
    r.table = std::move(loaded).value();
  }
  const mqd::Instance& table = r.table;
  const std::vector<Op> script = BuildScript(in, table);
  const mqd::UniformLambda model(spec.lambda);
  const mqd::UniformLambda solve_model(spec.solve_lambda);

  std::unique_ptr<mqd::MultiTenantStream> mts;
  std::unique_ptr<mqd::StreamProcessor> proc;
  {
    const double t0 = tr.Now();
    if (spec.tenant_mode) {
      auto created =
          mqd::MultiTenantStream::Create(table, model, spec.kind, spec.tau);
      if (created.ok()) mts = std::move(created).value();
      else r.error = created.status().ToString();
    } else {
      auto created = mqd::CreateStreamProcessorChecked(spec.kind, table,
                                                       model, spec.tau);
      if (created.ok()) proc = std::move(created).value();
      else r.error = created.status().ToString();
    }
    tr.Record(kCreate, pass, t0, tr.Now());
    if (!r.error.empty()) return r;
  }

  // A request's serve-layer work done directly: the request line
  // parsed, the library call, the response body formatted.
  uint64_t next_id = 1;
  double op_parse = 0.0, op_format = 0.0;
  auto parse = [&](const char* verb_and_args, uint32_t span) {
    char line[96];
    std::snprintf(line, sizeof(line), "%llu %s",
                  static_cast<unsigned long long>(next_id++), verb_and_args);
    const double t0 = tr.Now();
    auto req = mqd::ParseServeRequest(line);
    const double t1 = tr.Now();
    tr.Record(kParse, span, t0, t1);
    op_parse = t1 - t0;
    if (!req.ok()) r.error = std::string("ParseServeRequest: ") + line;
  };
  auto format = [&](uint32_t span, const char* k1, uint64_t v1,
                    const char* k2 = nullptr, uint64_t v2 = 0,
                    const char* k3 = nullptr, uint64_t v3 = 0) {
    const double t0 = tr.Now();
    std::string body;
    AppendKv(&body, k1, v1);
    if (k2) AppendKv(&body, k2, v2);
    if (k3) AppendKv(&body, k3, v3);
    const std::string line =
        mqd::ServeResponse::Ok(std::to_string(next_id), std::move(body))
            .Format();
    const double t1 = tr.Now();
    tr.Record(kFormat, span, t0, t1);
    op_format = t1 - t0;
    if (line.empty()) r.error = "ServeResponse::Format gave an empty line";
  };

  std::vector<mqd::TenantId> slot_tenant;
  std::vector<LabelMask> slot_mask;
  std::vector<PostId> slot_join;
  PostId cursor = 0;
  // Subscribes one tenant as a request; returns the call's seconds.
  auto subscribe = [&](LabelMask mask, Layer layer, uint32_t span,
                       int64_t* tenant_out) {
    char args[64];
    std::snprintf(args, sizeof(args), "subscribe mask=%llx",
                  static_cast<unsigned long long>(mask));
    parse(args, span);
    const double t0 = tr.Now();
    auto id = mts->Subscribe(mask);
    const double t1 = tr.Now();
    tr.Record(layer, span, t0, t1);
    if (!id.ok()) {
      r.error = "Subscribe: " + id.status().ToString();
      return 0.0;
    }
    format(span, "tenant", *id);
    slot_tenant.push_back(*id);
    slot_mask.push_back(mask);
    slot_join.push_back(cursor);
    *tenant_out = *id;
    return t1 - t0;
  };
  for (LabelMask mask : in.epoch0_masks) {
    const uint32_t span = tr.Open("setup.subscribe", pass, tr.Now());
    int64_t tenant = -1;
    const double call = subscribe(mask, kSubscribe, span, &tenant);
    tr.Close(span, tr.Now());
    if (!r.error.empty()) return r;
    r.setup_tenants.push_back(tenant);
    r.setup_op_seconds.push_back(traced ? op_parse + call + op_format : -1.0);
  }

  // The last post each slot's stream received: the horizon up to which
  // an unfinished stream must already be covered.
  auto own_horizon = [&](LabelMask mask) {
    for (PostId p = cursor; p > 0; --p) {
      if (table.labels(p - 1) & mask) return table.value(p - 1);
    }
    return table.min_value() - 1.0;
  };

  std::thread solver;
  size_t solve_op = 0;
  std::vector<PostId> solve_cover;
  std::string solve_error;
  double solve_start = 0.0, solve_end = 0.0;
  r.records.assign(script.size(), OpRecord{});
  r.op_seconds.assign(script.size(), -1.0);
  const PostId n = static_cast<PostId>(table.num_posts());
  for (size_t i = 0; i < script.size(); ++i) {
    const Op& op = script[i];
    OpRecord& rec = r.records[i];
    double call = 0.0;
    bool stream_lane = true;
    switch (op.kind) {
      case OpKind::kFeed: {
        const uint32_t span = tr.Open("op.feed", pass, tr.Now());
        char args[32];
        std::snprintf(args, sizeof(args), "feed posts=%u", spec.feed_posts);
        parse(args, span);
        const PostId end = std::min<PostId>(cursor + spec.feed_posts, n);
        const double t0 = tr.Now();
        if (mts) {
          mqd::Status s = mts->RunUntil(end);
          if (!s.ok()) r.error = "RunUntil: " + s.ToString();
        } else {
          for (PostId p = cursor; p < end; ++p) {
            proc->AdvanceTo(table.value(p));
            proc->OnArrival(p);
          }
        }
        const double t1 = tr.Now();
        tr.Record(kFeed, span, t0, t1, end - cursor);
        call = t1 - t0;
        const uint64_t delivered = end - cursor;
        cursor = end;
        if (proc) {
          rec.emitted = static_cast<int64_t>(proc->emissions().size());
          format(span, "delivered", delivered, "cursor", end, "emitted",
                 proc->emissions().size());
        } else {
          format(span, "delivered", delivered, "cursor", end);
        }
        tr.Close(span, tr.Now());
        break;
      }
      case OpKind::kRead: {
        const uint32_t span = tr.Open("op.emissions", pass, tr.Now());
        char args[48];
        if (mts) {
          std::snprintf(args, sizeof(args), "emissions tenant=%u",
                        slot_tenant[op.slot]);
        } else {
          std::snprintf(args, sizeof(args), "emissions");
        }
        parse(args, span);
        const double t0 = tr.Now();
        size_t count = 0;
        if (mts) {
          auto em = mts->TenantEmissions(slot_tenant[op.slot]);
          if (em.ok()) count = em->size();
          else r.error = "TenantEmissions: " + em.status().ToString();
        } else {
          count = proc->emissions().size();
        }
        const double t1 = tr.Now();
        tr.Record(kDerive, span, t0, t1);
        call = t1 - t0;
        rec.emitted = static_cast<int64_t>(count);
        if (mts) {
          format(span, "tenant", slot_tenant[op.slot], "emitted", count);
        } else {
          format(span, "emitted", count);
        }
        tr.Close(span, tr.Now());
        break;
      }
      case OpKind::kSubscribe: {
        const uint32_t span = tr.Open("op.subscribe", pass, tr.Now());
        call = subscribe(op.mask, kJoin, span, &rec.tenant);
        tr.Close(span, tr.Now());
        break;
      }
      case OpKind::kUnsubscribe: {
        // Keep the leaving tenant's output for the checker (untimed).
        const mqd::TenantId id = slot_tenant[op.slot];
        auto em = mts->TenantEmissions(id);
        if (!em.ok()) {
          r.error = "TenantEmissions: " + em.status().ToString();
          break;
        }
        StreamOutput out;
        out.mask = slot_mask[op.slot];
        out.join = slot_join[op.slot];
        out.horizon = own_horizon(out.mask);
        out.emissions = std::move(em).value();
        r.streams.push_back(std::move(out));
        const uint32_t span = tr.Open("op.unsubscribe", pass, tr.Now());
        char args[48];
        std::snprintf(args, sizeof(args), "unsubscribe tenant=%u", id);
        parse(args, span);
        const double t0 = tr.Now();
        mqd::Status s = mts->Unsubscribe(id);
        const double t1 = tr.Now();
        tr.Record(kUnsubscribe, span, t0, t1);
        call = t1 - t0;
        if (!s.ok()) r.error = "Unsubscribe: " + s.ToString();
        format(span, "tenants", mts->active_tenants());
        tr.Close(span, tr.Now());
        break;
      }
      case OpKind::kSolve: {
        stream_lane = false;
        char args[64];
        std::snprintf(args, sizeof(args), "solve lambda=%g budget_ms=0",
                      spec.solve_lambda);
        parse(args, pass);
        solve_op = i;
        solver = std::thread([&] {
          solve_start = NowSeconds();
          try {
            auto cover = mqd::GreedySCSolver().Solve(table, solve_model);
            if (cover.ok()) solve_cover = std::move(cover).value();
          } catch (const std::exception& e) {
            solve_error = e.what();
          }
          solve_end = NowSeconds();
        });
        break;
      }
      case OpKind::kWaitSolve: {
        stream_lane = false;
        const double t0 = tr.Now();
        solver.join();
        const double t1 = tr.Now();
        tr.Record(kSolveWait, pass, t0, t1);
        if (traced) {
          const uint32_t span = tr.Open("core.solve", pass, solve_start);
          tr.Close(span, solve_end);
          tr.Add(kSolve, solve_end - solve_start, solve_cover.size());
        }
        if (!solve_error.empty()) r.error = "GreedySCSolver: " + solve_error;
        r.records[solve_op].cover = static_cast<int64_t>(solve_cover.size());
        r.records[solve_op].degraded = 0;
        r.covers.push_back(std::move(solve_cover));
        solve_cover.clear();
        break;
      }
      case OpKind::kRestart: {
        stream_lane = false;
        const std::string path = work_dir + "/direct.ckpt";
        const double t0 = tr.Now();
        mqd::Status s = mqd::WriteStreamCheckpointToFile(*proc, cursor, path);
        const double t1 = tr.Now();
        tr.Record(kCheckpoint, pass, t0, t1);
        if (!s.ok()) {
          r.error = "checkpoint: " + s.ToString();
          break;
        }
        std::error_code ec;
        r.checkpoint_bytes = std::filesystem::file_size(path, ec);
        const double t2 = tr.Now();
        auto fresh = mqd::CreateStreamProcessorChecked(spec.kind, table,
                                                       model, spec.tau);
        if (!fresh.ok()) {
          r.error = "restore: " + fresh.status().ToString();
          break;
        }
        proc = std::move(fresh).value();
        auto restored = mqd::ReadStreamCheckpointFromFile(proc.get(), table,
                                                          path);
        tr.Record(kRestore, pass, t2, tr.Now());
        std::filesystem::remove(path, ec);
        if (!restored.ok() || *restored != cursor) {
          r.error = "restore did not resume at the drained cursor";
        }
        break;
      }
      case OpKind::kFinish: {
        const uint32_t span = tr.Open("op.finish", pass, tr.Now());
        parse("finish", span);
        const double t0 = tr.Now();
        if (mts) mts->Finish();
        else proc->Finish();
        const double t1 = tr.Now();
        tr.Record(kFinish, span, t0, t1);
        call = t1 - t0;
        format(span, "cursor", cursor);
        tr.Close(span, tr.Now());
        break;
      }
    }
    if (!r.error.empty()) break;
    rec.cursor = cursor;
    if (stream_lane && traced) r.op_seconds[i] = op_parse + call + op_format;
  }
  if (solver.joinable()) solver.join();
  tr.Close(pass, tr.Now());
  r.wall_s = NowSeconds() - wall0;
  if (!r.error.empty()) return r;

  // Final outputs and engine counters (after the timed pass).
  if (mts) {
    for (size_t slot = 0; slot < slot_tenant.size(); ++slot) {
      auto em = mts->TenantEmissions(slot_tenant[slot]);
      if (!em.ok()) continue;  // unsubscribed earlier
      StreamOutput out;
      out.mask = slot_mask[slot];
      out.join = slot_join[slot];
      out.finished = true;
      out.emissions = std::move(em).value();
      r.streams.push_back(std::move(out));
    }
    r.clusters = mts->num_clusters();
    r.fanout_amplification = mts->fanout_amplification();
    r.shared_hit_rate = mts->shared_hit_rate();
    r.residual_corrections = mts->residual_corrections();
    r.arena_block_allocs = mts->arena_stats().block_allocs;
  } else {
    StreamOutput out;
    out.mask = ~LabelMask{0};
    out.finished = true;
    out.emissions = proc->emissions();
    r.streams.push_back(std::move(out));
  }
  return r;
}

}  // namespace e2e
