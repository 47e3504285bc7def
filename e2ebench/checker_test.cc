// The output checker rejects each of four deliberate breaks of a valid
// output, and accepts real outputs of the library's stream engine.
#include <limits>

#include <gtest/gtest.h>

#include "checker.h"
#include "core/coverage.h"
#include "core/greedy_sc.h"
#include "gen/instance_gen.h"
#include "stream/factory.h"

namespace e2e {
namespace {

TEST(Checker, RejectsEachBreakOfAValidOutput) {
  EXPECT_TRUE(CheckerSelfTest().empty());
}

class RealOutput : public ::testing::Test {
 protected:
  void SetUp() override {
    mqd::InstanceGenConfig config;
    config.num_labels = 5;
    config.duration = 3600.0;
    config.posts_per_minute = 40.0;
    config.overlap_rate = 1.5;
    config.seed = 11;
    table_ = std::move(mqd::GenerateInstance(config)).value();
    shape_.lambda = 60.0;
    shape_.tau = 10.0;
    shape_.horizon = std::numeric_limits<double>::infinity();
    const mqd::UniformLambda model(shape_.lambda);
    auto proc = mqd::CreateStreamProcessor(mqd::StreamKind::kStreamScan,
                                           table_, model, shape_.tau);
    for (mqd::PostId p = 0; p < table_.num_posts(); ++p) {
      proc->AdvanceTo(table_.value(p));
      proc->OnArrival(p);
    }
    proc->Finish();
    emissions_ = proc->emissions();
  }

  mqd::Instance table_;
  StreamShape shape_;
  std::vector<mqd::Emission> emissions_;
};

TEST_F(RealOutput, AcceptsTheStreamAndFindsItsHoles) {
  ASSERT_EQ(CheckEmissions(table_, shape_, emissions_), "");
  EXPECT_GE(emissions_.size(),
            StreamLowerBound(table_, shape_.mask, 0, shape_.lambda));
  // Dropping every emission leaves the stream uncovered.
  EXPECT_NE(CheckEmissions(table_, shape_, {}), "");
  // A delay past tau on a real emission is caught.
  auto late = emissions_;
  late.front().emit_time =
      table_.value(late.front().post) + shape_.tau + 1.0;
  EXPECT_NE(CheckEmissions(table_, shape_, late), "");
  // An emission before its post arrives is caught.
  auto early = emissions_;
  early.back().emit_time = table_.value(early.back().post) - 1.0;
  EXPECT_NE(CheckEmissions(table_, shape_, early), "");
}

TEST_F(RealOutput, GreedyCoverPassesAndACutOneFails) {
  const mqd::UniformLambda model(shape_.lambda);
  auto cover = mqd::GreedySCSolver().Solve(table_, model);
  ASSERT_TRUE(cover.ok());
  ASSERT_EQ(CheckCover(table_, shape_.lambda, *cover), "");
  EXPECT_GE(cover->size(),
            StreamLowerBound(table_, ~mqd::LabelMask{0}, 0, shape_.lambda));
  // Some post of a greedy cover is the only one covering a neighbour.
  bool some_cut_fails = false;
  for (size_t i = 0; i < cover->size() && !some_cut_fails; ++i) {
    auto cut = *cover;
    cut.erase(cut.begin() + static_cast<long>(i));
    some_cut_fails = !CheckCover(table_, shape_.lambda, cut).empty();
  }
  EXPECT_TRUE(some_cut_fails);
}

}  // namespace
}  // namespace e2e
