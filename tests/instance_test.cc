#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/label_universe.h"
#include "gen/instance_gen.h"
#include "test_helpers.h"

namespace mqd {
namespace {

using ::mqd::testing::MakeInstance;

TEST(TypesTest, MaskHelpers) {
  LabelMask m = MaskOf(0) | MaskOf(3) | MaskOf(63);
  EXPECT_TRUE(MaskHas(m, 0));
  EXPECT_TRUE(MaskHas(m, 3));
  EXPECT_TRUE(MaskHas(m, 63));
  EXPECT_FALSE(MaskHas(m, 1));
  EXPECT_EQ(MaskCount(m), 3);
  EXPECT_EQ(MaskToLabels(m), (std::vector<LabelId>{0, 3, 63}));
  int visited = 0;
  ForEachLabel(m, [&](LabelId) { ++visited; });
  EXPECT_EQ(visited, 3);
}

TEST(LabelUniverseTest, InternAndLookup) {
  LabelUniverse u;
  auto a = u.Intern("obama");
  auto b = u.Intern("economy");
  auto a2 = u.Intern("obama");
  ASSERT_TRUE(a.ok() && b.ok() && a2.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(*a2, 0u);
  EXPECT_EQ(u.Name(0), "obama");
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(*u.Find("economy"), 1u);
  EXPECT_FALSE(u.Find("nasdaq").ok());
}

TEST(LabelUniverseTest, InternAllBuildsMask) {
  LabelUniverse u;
  auto mask = u.InternAll({"a", "b", "a", "c"});
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(*mask, MaskOf(0) | MaskOf(1) | MaskOf(2));
}

TEST(LabelUniverseTest, ExhaustsAtMaxLabels) {
  LabelUniverse u;
  for (int i = 0; i < kMaxLabels; ++i) {
    ASSERT_TRUE(u.Intern("label" + std::to_string(i)).ok());
  }
  EXPECT_EQ(u.Intern("one-too-many").status().code(),
            StatusCode::kResourceExhausted);
  // Existing names still resolve.
  EXPECT_TRUE(u.Intern("label0").ok());
}

TEST(InstanceBuilderTest, RejectsEmptyLabelSet) {
  InstanceBuilder b(2);
  b.Add(1.0, 0);
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceBuilderTest, RejectsLabelsOutsideUniverse) {
  InstanceBuilder b(2);
  b.Add(1.0, MaskOf(2));
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceBuilderTest, SortsByValueKeepingInsertionOrderOnTies) {
  InstanceBuilder b(1);
  b.Add(5.0, MaskOf(0), 100);
  b.Add(1.0, MaskOf(0), 101);
  b.Add(5.0, MaskOf(0), 102);
  auto inst = b.Build();
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->num_posts(), 3u);
  EXPECT_EQ(inst->post(0).external_id, 101u);
  EXPECT_EQ(inst->post(1).external_id, 100u);
  EXPECT_EQ(inst->post(2).external_id, 102u);
}

TEST(InstanceTest, LabelListsAndPairs) {
  Instance inst = MakeInstance(3, {{1.0, MaskOf(0) | MaskOf(1)},
                                   {2.0, MaskOf(1)},
                                   {3.0, MaskOf(2)}});
  EXPECT_EQ(inst.num_labels(), 3);
  ASSERT_EQ(inst.label_posts(0).size(), 1u);
  EXPECT_EQ(inst.label_posts(0)[0], 0u);
  ASSERT_EQ(inst.label_posts(1).size(), 2u);
  EXPECT_EQ(inst.label_posts(1)[1], 1u);
  EXPECT_EQ(inst.num_pairs(), 4u);
  EXPECT_EQ(inst.max_labels_per_post(), 2);
  EXPECT_NEAR(inst.overlap_rate(), 4.0 / 3.0, 1e-12);
}

TEST(InstanceTest, ValueBoundsAndSearch) {
  Instance inst = MakeInstance(
      1, {{1.0, MaskOf(0)}, {2.0, MaskOf(0)}, {4.0, MaskOf(0)}});
  EXPECT_EQ(inst.min_value(), 1.0);
  EXPECT_EQ(inst.max_value(), 4.0);
  EXPECT_EQ(inst.LowerBound(2.0), 1u);
  EXPECT_EQ(inst.UpperBound(2.0), 2u);
  EXPECT_EQ(inst.LowerBound(5.0), 3u);
}

TEST(InstanceTest, LabelPostsInRange) {
  Instance inst = MakeInstance(2, {{1.0, MaskOf(0)},
                                   {2.0, MaskOf(0) | MaskOf(1)},
                                   {3.0, MaskOf(0)},
                                   {10.0, MaskOf(0)}});
  auto range = inst.LabelPostsInRange(0, 1.5, 3.5);
  ASSERT_EQ(range.size(), 2u);
  EXPECT_EQ(range[0], 1u);
  EXPECT_EQ(range[1], 2u);
  EXPECT_EQ(inst.LabelPostsInRange(1, 5.0, 9.0).size(), 0u);
  // Inclusive bounds.
  EXPECT_EQ(inst.LabelPostsInRange(0, 1.0, 10.0).size(), 4u);
}

TEST(AppendOnlyPostTableTest, SelectsSourcePostsUnderALabelFilter) {
  Instance inst = MakeInstance(3, {{1.0, MaskOf(0) | MaskOf(1)},
                                   {2.0, MaskOf(2)},
                                   {3.0, MaskOf(1) | MaskOf(2)},
                                   {4.0, MaskOf(1)}});
  AppendOnlyPostTable view(inst, MaskOf(1) | MaskOf(2));
  EXPECT_EQ(view.num_posts(), 0u);
  EXPECT_EQ(view.num_labels(), 3);
  view.Append(0);
  view.Append(2);
  ASSERT_EQ(view.num_posts(), 2u);
  EXPECT_EQ(view.source_id(0), 0u);
  EXPECT_EQ(view.source_id(1), 2u);
  EXPECT_EQ(view.value(1), 3.0);
  // Labels outside the filter are dropped; label ids stay the source's.
  EXPECT_EQ(view.labels(0), MaskOf(1));
  EXPECT_EQ(view.labels(1), MaskOf(1) | MaskOf(2));
  view.Append(3);
  EXPECT_EQ(view.num_posts(), 3u);
  EXPECT_EQ(view.value(2), 4.0);
  // A table holding its own posts is its own source, read through the
  // base class or directly.
  const PostTable& base = inst;
  EXPECT_EQ(base.source_id(3), 3u);
  EXPECT_EQ(base.labels(0), MaskOf(0) | MaskOf(1));
  EXPECT_EQ(base.value(3), inst.value(3));
}

TEST(InstanceTest, EmptyInstance) {
  InstanceBuilder b(2);
  auto inst = b.Build();
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->num_posts(), 0u);
  EXPECT_EQ(inst->overlap_rate(), 0.0);
  EXPECT_EQ(inst->min_value(), 0.0);
}

TEST(InstanceGenTest, RespectsConfiguredRateAndOverlap) {
  InstanceGenConfig cfg;
  cfg.num_labels = 4;
  cfg.duration = 3600.0;
  cfg.posts_per_minute = 60.0;
  cfg.overlap_rate = 1.5;
  cfg.seed = 7;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  const double per_min = inst->num_posts() / 60.0;
  EXPECT_NEAR(per_min, 60.0, 6.0);
  EXPECT_NEAR(inst->overlap_rate(), 1.5, 0.1);
  for (PostId p = 0; p < inst->num_posts(); ++p) {
    EXPECT_GE(inst->value(p), 0.0);
    EXPECT_LE(inst->value(p), cfg.duration);
  }
}

TEST(InstanceGenTest, PopularitySkewOrdersLabelSizes) {
  InstanceGenConfig cfg;
  cfg.num_labels = 5;
  cfg.duration = 3600.0;
  cfg.posts_per_minute = 50.0;
  cfg.overlap_rate = 1.0;
  cfg.popularity_skew = 1.2;
  cfg.seed = 11;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  // Label 0 is the most popular under Zipf.
  EXPECT_GT(inst->label_posts(0).size(), inst->label_posts(4).size());
}

TEST(InstanceGenTest, BurstFractionKeepsPostsInRange) {
  InstanceGenConfig cfg;
  cfg.num_labels = 3;
  cfg.duration = 600.0;
  cfg.posts_per_minute = 100.0;
  cfg.burst_fraction = 0.5;
  cfg.seed = 13;
  auto inst = GenerateInstance(cfg);
  ASSERT_TRUE(inst.ok());
  EXPECT_GT(inst->num_posts(), 100u);
  for (PostId p = 0; p < inst->num_posts(); ++p) {
    EXPECT_GE(inst->value(p), 0.0);
    EXPECT_LE(inst->value(p), cfg.duration);
  }
}

TEST(InstanceGenTest, RejectsBadConfig) {
  InstanceGenConfig cfg;
  cfg.overlap_rate = 0.5;
  EXPECT_FALSE(GenerateInstance(cfg).ok());
  cfg = {};
  cfg.num_labels = 0;
  EXPECT_FALSE(GenerateInstance(cfg).ok());
  cfg = {};
  cfg.duration = -1.0;
  EXPECT_FALSE(GenerateInstance(cfg).ok());
}

TEST(InstanceGenTest, TinyInstanceShapes) {
  Rng rng(3);
  auto inst = GenerateTinyInstance(12, 3, 2, 20, &rng);
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->num_posts(), 12u);
  for (PostId p = 0; p < inst->num_posts(); ++p) {
    EXPECT_GE(MaskCount(inst->labels(p)), 1);
    EXPECT_LE(MaskCount(inst->labels(p)), 2);
  }
}

}  // namespace
}  // namespace mqd
