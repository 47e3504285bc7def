#include "core/instance.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace mqd {

double Instance::overlap_rate() const {
  if (posts_.empty()) return 0.0;
  return static_cast<double>(num_pairs()) /
         static_cast<double>(posts_.size());
}

PostId Instance::LowerBound(DimValue v) const {
  auto it = std::lower_bound(
      posts_.begin(), posts_.end(), v,
      [](const Post& p, DimValue x) { return p.value < x; });
  return static_cast<PostId>(it - posts_.begin());
}

PostId Instance::UpperBound(DimValue v) const {
  auto it = std::upper_bound(
      posts_.begin(), posts_.end(), v,
      [](DimValue x, const Post& p) { return x < p.value; });
  return static_cast<PostId>(it - posts_.begin());
}

Instance::IndexRange Instance::LabelRangeBounds(LabelId a, DimValue lo,
                                                DimValue hi) const {
  const std::span<const DimValue> values = label_values(a);
  auto first = std::lower_bound(values.begin(), values.end(), lo);
  auto last = std::upper_bound(first, values.end(), hi);
  return {static_cast<size_t>(first - values.begin()),
          static_cast<size_t>(last - values.begin())};
}

InstanceBuilder::InstanceBuilder(int num_labels) : num_labels_(num_labels) {
  MQD_CHECK(num_labels >= 1 && num_labels <= kMaxLabels)
      << "num_labels must be in [1, " << kMaxLabels << "], got "
      << num_labels;
}

InstanceBuilder& InstanceBuilder::Add(DimValue value, LabelMask labels,
                                      uint64_t external_id) {
  posts_.push_back(Post{value, labels, external_id});
  return *this;
}

Result<Instance> InstanceBuilder::Build() {
  // Validate the "dense labels, non-empty mask" invariants up front
  // with proper Statuses (not just debug checks): every mask non-empty
  // and inside the dense [0, num_labels) universe.
  if (num_labels_ < 1 || num_labels_ > kMaxLabels) {
    return Status::InvalidArgument(
        StrFormat("num_labels must be in [1, %d], got %d", kMaxLabels,
                  num_labels_));
  }
  const LabelMask universe =
      num_labels_ == kMaxLabels ? ~LabelMask{0}
                                : (LabelMask{1} << num_labels_) - 1;
  for (size_t i = 0; i < posts_.size(); ++i) {
    if (!std::isfinite(posts_[i].value)) {
      // NaN values would poison the sorted-by-value CSR layout (NaN
      // breaks strict weak ordering) and every +-reach window query.
      return Status::InvalidArgument(
          StrFormat("post %zu has a non-finite value", i));
    }
    if (posts_[i].labels == 0) {
      return Status::InvalidArgument(
          StrFormat("post %zu has an empty label set", i));
    }
    if ((posts_[i].labels & ~universe) != 0) {
      return Status::InvalidArgument(
          StrFormat("post %zu has labels outside the %d-label universe", i,
                    num_labels_));
    }
  }

  // Stable sort keeps insertion order among equal values, giving a
  // deterministic total order that refines the dimension order (OPT's
  // "distinct timestamps" assumption is handled by this total order).
  std::stable_sort(
      posts_.begin(), posts_.end(),
      [](const Post& a, const Post& b) { return a.value < b.value; });

  Instance inst;
  inst.posts_ = std::move(posts_);
  posts_.clear();
  inst.posts_.shrink_to_fit();
  inst.num_labels_ = num_labels_;

  // CSR build as a counting sort: one pass to size every LP(a)
  // exactly, prefix-sum into offsets, one pass to fill. No posting
  // list ever reallocates.
  const size_t num_labels = static_cast<size_t>(num_labels_);
  inst.label_offsets_.assign(num_labels + 1, 0);
  for (const Post& p : inst.posts_) {
    ForEachLabel(p.labels,
                 [&](LabelId a) { ++inst.label_offsets_[a + 1]; });
    inst.max_labels_per_post_ =
        std::max(inst.max_labels_per_post_, MaskCount(p.labels));
  }
  for (size_t a = 0; a < num_labels; ++a) {
    inst.label_offsets_[a + 1] += inst.label_offsets_[a];
  }
  const size_t num_pairs = inst.label_offsets_[num_labels];
  inst.label_ids_.resize(num_pairs);
  inst.label_values_.resize(num_pairs);
  std::vector<size_t> cursor(inst.label_offsets_.begin(),
                             inst.label_offsets_.end() - 1);
  for (PostId i = 0; i < inst.posts_.size(); ++i) {
    const Post& p = inst.posts_[i];
    ForEachLabel(p.labels, [&](LabelId a) {
      const size_t at = cursor[a]++;
      inst.label_ids_[at] = i;
      inst.label_values_[at] = p.value;
    });
  }
  return inst;
}

AppendOnlyPostTable::AppendOnlyPostTable(const Instance& source,
                                         LabelMask filter) {
  num_labels_ = source.num_labels();
  label_filter_ = filter;
  // An empty source selects nothing: the table stays empty either way.
  source_ = source.posts().data();
}

void AppendOnlyPostTable::Append(PostId id) {
  MQD_DCHECK(rows_.empty() || rows_.back() < id)
      << "appends must follow the source's post order";
  rows_.push_back(id);
  MQD_DCHECK(labels(static_cast<PostId>(rows_.size() - 1)) != 0)
      << "appended post carries no label of the filter";
}

}  // namespace mqd
