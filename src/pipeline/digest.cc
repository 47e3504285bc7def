#include "pipeline/digest.h"

#include <algorithm>

#include "obs/stack_metrics.h"
#include "obs/trace.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

namespace {

/// Eight-level unicode-free density glyphs.
char DensityGlyph(double fraction) {
  static constexpr char kLevels[] = {' ', '.', ':', '-', '=',
                                     '+', '*', '#'};
  const int idx = std::min(
      7, static_cast<int>(fraction * 8.0));
  return kLevels[std::max(0, idx)];
}

}  // namespace

DigestRenderer::DigestRenderer(const std::vector<Topic>* topics)
    : DigestRenderer(topics, Options()) {}

DigestRenderer::DigestRenderer(const std::vector<Topic>* topics,
                               Options options)
    : topics_(topics), options_(options) {
  MQD_CHECK(topics != nullptr);
  MQD_CHECK(options.timeline_buckets >= 1);
}

std::string DigestRenderer::RenderTimeline(
    const Instance& inst, const std::vector<PostId>& selection) const {
  if (inst.num_posts() == 0) return "(empty feed)\n";
  const int buckets = options_.timeline_buckets;
  // Same LinearBuckets scheme as core/cover_stats: the timeline rows
  // and BucketDistributionL1 agree on which bucket a post lands in.
  const double lo = inst.min_value();
  const double span = std::max(1e-12, inst.max_value() - lo);
  const LinearBuckets spec(lo, lo + span, static_cast<size_t>(buckets));
  std::vector<double> feed(static_cast<size_t>(buckets), 0.0);
  std::vector<double> digest(static_cast<size_t>(buckets), 0.0);
  for (PostId p = 0; p < inst.num_posts(); ++p) {
    ++feed[spec.BucketOf(inst.value(p))];
  }
  for (PostId p : selection) ++digest[spec.BucketOf(inst.value(p))];
  const double feed_peak =
      std::max(1.0, *std::max_element(feed.begin(), feed.end()));
  const double digest_peak =
      std::max(1.0, *std::max_element(digest.begin(), digest.end()));

  std::string out;
  out += "feed   |";
  for (int b = 0; b < buckets; ++b) {
    out += DensityGlyph(feed[static_cast<size_t>(b)] / feed_peak);
  }
  out += "|\ndigest |";
  for (int b = 0; b < buckets; ++b) {
    out += DensityGlyph(digest[static_cast<size_t>(b)] / digest_peak);
  }
  out += "|\n        " + options_.dimension_name + " " +
         FormatDouble(lo, 2) + " .. " + FormatDouble(lo + span, 2) + "\n";
  return out;
}

std::string DigestRenderer::Render(
    const Instance& inst, const std::vector<PostId>& selection) const {
  obs::ScopedTimer timer(obs::GetPipelineMetrics().render_seconds);
  obs::TraceSpan span("pipeline:render");
  const CoverStats stats = ComputeCoverStats(inst, selection);
  std::string out;
  out += StrFormat("=== Diversified digest: %zu of %zu posts (%.1f%%) ===\n",
                   stats.selected_posts, stats.instance_posts,
                   stats.compression * 100.0);

  // Per-topic sections.
  for (LabelId a = 0; a < static_cast<LabelId>(inst.num_labels()); ++a) {
    const std::string& name =
        a < topics_->size() ? (*topics_)[a].name
                            : StrFormat("label-%u", a);
    out += StrFormat("\n[%s] %zu of %zu posts\n", name.c_str(),
                     stats.per_label_selected[a],
                     stats.per_label_posts[a]);
    size_t listed = 0;
    for (PostId p : selection) {
      if (!MaskHas(inst.labels(p), a)) continue;
      if (options_.max_items_per_topic > 0 &&
          listed >= options_.max_items_per_topic) {
        out += "  ...\n";
        break;
      }
      out += StrFormat("  %s=%s  post #%llu\n",
                       options_.dimension_name.c_str(),
                       FormatDouble(inst.value(p), 2).c_str(),
                       static_cast<unsigned long long>(
                           inst.post(p).external_id));
      ++listed;
    }
  }

  out += '\n';
  out += RenderTimeline(inst, selection);
  out += StrFormat(
      "mean distance to representative: %s; label-mix deviation (L1): "
      "%s\n",
      FormatDouble(stats.mean_distance_to_representative, 2).c_str(),
      FormatDouble(stats.label_distribution_l1, 3).c_str());
  return out;
}

}  // namespace mqd
