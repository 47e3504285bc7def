// Workload specs, seeded input generation and the request script.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "core/io.h"
#include "gen/instance_gen.h"
#include "gen/news_gen.h"
#include "gen/profile_gen.h"
#include "util/rng.h"

namespace e2e {

WorkloadSpec SpecFor(const std::string& name, bool* ok) {
  WorkloadSpec s;
  s.name = name;
  *ok = true;
  if (name == "text_firehose") {
    // Text layers dominate: two days of tweets through tokenize, match
    // and SimHash dedup; 64 Scan+ tenants are a light fan-out.
    s.text = true;
    s.tenant_mode = true;
    s.kind = mqd::StreamKind::kStreamScanPlus;
    s.lambda = 600.0;
    s.tau = 60.0;
    s.solve_lambda = 1800.0;
    s.epoch0_profiles = 64;
    s.profile_labels = 3;
    s.solves = 2;
  } else if (name == "tenant_churn") {
    // The fan-out does the work: thousands of shared-tier profiles,
    // reads spread over all of them, and steady mid-stream churn.
    s.tenant_mode = true;
    s.kind = mqd::StreamKind::kStreamScan;
    s.lambda = 60.0;
    s.tau = 10.0;
    s.solve_lambda = 600.0;
    s.feed_posts = 128;
    s.epoch0_profiles = 2000;
    s.profile_labels = 4;
    s.churn_every = 8;
    s.churn_window = 8;
    s.solves = 2;
  } else if (name == "solve_mix") {
    // The Figure 13-15 regime: one StreamGreedySC stream beside an
    // hourly GreedySC re-solve, with a drain/restore at mid-stream.
    s.kind = mqd::StreamKind::kStreamGreedy;
    s.lambda = 300.0;
    s.tau = 300.0;
    s.solve_lambda = 300.0;
    s.solve_period = 3600.0;
    s.restart = true;
  } else {
    *ok = false;
  }
  return s;
}

std::vector<mqd::Topic> CutTopics() {
  // Forty keyword topics: each built-in broad topic's keyword list is
  // dealt round-robin into four topics of the same group.
  std::vector<mqd::Topic> topics;
  const auto& broad = mqd::BuiltinBroadTopics();
  for (size_t b = 0; b < broad.size(); ++b) {
    for (size_t k = 0; k < 4; ++k) {
      mqd::Topic t;
      t.name = broad[b].name + "/" + std::to_string(k);
      t.group = static_cast<int>(b);
      for (size_t i = k; i < broad[b].keywords.size(); i += 4) {
        t.keywords.push_back(broad[b].keywords[i]);
        t.weights.push_back(1.0);
      }
      topics.push_back(std::move(t));
    }
  }
  return topics;
}

bool MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                const std::string& work_dir, Inputs* out, std::string* err) {
  out->spec = spec;
  out->seed = seed;
  mqd::Rng profile_rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  if (spec.text) {
    mqd::TweetGenConfig config;
    config.duration_seconds = 2 * 24 * 3600.0;
    config.seed = seed;
    auto tweets = mqd::GenerateTweetStream(config);
    if (!tweets.ok()) {
      *err = tweets.status().ToString();
      return false;
    }
    out->tweets = std::move(tweets).value();
    out->topics = CutTopics();
    out->num_labels = static_cast<int>(out->topics.size());
  } else {
    mqd::InstanceGenConfig config;
    if (spec.name == "tenant_churn") {
      config.num_labels = 40;
      config.duration = 6 * 3600.0;
      config.posts_per_minute = 1110.0;
      config.overlap_rate = 1.6;
      config.burst_fraction = 0.3;
    } else {
      config.num_labels = 20;
      config.duration = 24 * 3600.0;
      config.posts_per_minute = 118.0;
      config.overlap_rate = 1.4;
    }
    config.seed = seed;
    auto inst = mqd::GenerateInstance(config);
    if (!inst.ok()) {
      *err = inst.status().ToString();
      return false;
    }
    out->table_path = work_dir + "/" + spec.name + ".mqdp";
    mqd::Status written = mqd::WriteInstanceToFile(*inst, out->table_path);
    if (!written.ok()) {
      *err = written.ToString();
      return false;
    }
    out->table_posts = inst->num_posts();
    out->num_labels = inst->num_labels();
  }
  if (spec.epoch0_profiles > 0) {
    auto masks = mqd::GenerateLabelMaskProfiles(
        out->num_labels, spec.profile_labels, spec.epoch0_profiles,
        &profile_rng);
    if (!masks.ok()) {
      *err = masks.status().ToString();
      return false;
    }
    out->epoch0_masks = std::move(masks).value();
  }
  return true;
}

std::vector<Op> BuildScript(const Inputs& in, const mqd::Instance& table) {
  const WorkloadSpec& spec = in.spec;
  const size_t n = table.num_posts();
  const size_t feeds = (n + spec.feed_posts - 1) / spec.feed_posts;
  mqd::Rng rng(in.seed * 0xbf58476d1ce4e5b9ULL + 29);

  std::vector<uint32_t> live;  // subscribed slots
  for (uint32_t s = 0; s < in.epoch0_masks.size(); ++s) live.push_back(s);
  uint32_t next_slot = static_cast<uint32_t>(in.epoch0_masks.size());
  std::vector<uint32_t> joiners;  // FIFO of live mid-stream slots

  std::vector<LabelMask> churn_masks;
  if (spec.churn_every > 0) {
    auto masks = mqd::GenerateLabelMaskProfiles(
        in.num_labels, spec.profile_labels, feeds / spec.churn_every + 1,
        &rng);
    if (masks.ok()) churn_masks = std::move(masks).value();
  }
  size_t churn_used = 0;

  std::vector<Op> ops;
  bool solve_out = false;
  auto solve = [&] {
    if (solve_out) ops.push_back({OpKind::kWaitSolve});
    ops.push_back({OpKind::kSolve});
    solve_out = true;
  };
  double next_boundary = table.min_value() + spec.solve_period;
  uint32_t solves_done = 0;
  for (size_t f = 0; f < feeds; ++f) {
    if (spec.solve_period > 0.0) {
      const double t = table.value(static_cast<PostId>(f * spec.feed_posts));
      if (t >= next_boundary) {
        while (t >= next_boundary) next_boundary += spec.solve_period;
        solve();
      }
    } else if (solves_done < spec.solves &&
               f == feeds * (solves_done + 1) / (spec.solves + 1)) {
      ++solves_done;
      solve();
      ops.push_back({OpKind::kWaitSolve});
      solve_out = false;
    }
    if (spec.restart && f == feeds / 2) {
      if (solve_out) ops.push_back({OpKind::kWaitSolve});
      solve_out = false;
      ops.push_back({OpKind::kRestart});
    }
    ops.push_back({OpKind::kFeed});
    if (spec.churn_every > 0 && f % spec.churn_every == spec.churn_every - 1 &&
        churn_used < churn_masks.size()) {
      Op sub{OpKind::kSubscribe};
      sub.mask = churn_masks[churn_used++];
      ops.push_back(sub);
      const uint32_t slot = next_slot++;
      joiners.push_back(slot);
      live.push_back(slot);
      uint32_t gone;
      if (joiners.size() > spec.churn_window || live.size() == joiners.size()) {
        gone = joiners.front();
        joiners.erase(joiners.begin());
      } else {
        // Until the joiner window fills, churn retires epoch-0 tenants.
        gone = live[rng.Uniform(live.size() - joiners.size())];
      }
      live.erase(std::find(live.begin(), live.end(), gone));
      Op unsub{OpKind::kUnsubscribe};
      unsub.slot = gone;
      ops.push_back(unsub);
    }
    Op read{OpKind::kRead};
    read.slot = live.empty() ? 0 : live[rng.Uniform(live.size())];
    ops.push_back(read);
  }
  ops.push_back({OpKind::kFinish});
  if (solve_out) ops.push_back({OpKind::kWaitSolve});
  if (spec.tenant_mode) {
    for (uint32_t slot : live) {
      Op read{OpKind::kRead};
      read.slot = slot;
      ops.push_back(read);
    }
  } else {
    ops.push_back({OpKind::kRead});
  }
  return ops;
}

}  // namespace e2e
