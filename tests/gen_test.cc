#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "gen/news_gen.h"
#include "gen/profile_gen.h"
#include "gen/tweet_gen.h"
#include "sentiment/scorer.h"
#include "simhash/dedup.h"
#include "simhash/simhash.h"
#include "text/tokenizer.h"

namespace mqd {
namespace {

TEST(NewsGenTest, BuiltinTopicsShape) {
  const auto& topics = BuiltinBroadTopics();
  EXPECT_EQ(topics.size(), 10u);
  for (const BroadTopicSpec& spec : topics) {
    EXPECT_FALSE(spec.name.empty());
    EXPECT_EQ(spec.keywords.size(), 40u) << spec.name;
  }
  EXPECT_GE(BackgroundWords().size(), 40u);
}

TEST(NewsGenTest, GeneratesTaggedArticles) {
  NewsGenConfig config;
  config.num_articles = 50;
  config.seed = 3;
  auto articles = GenerateNewsCorpus(config);
  ASSERT_TRUE(articles.ok());
  ASSERT_EQ(articles->size(), 50u);
  for (const NewsArticle& article : *articles) {
    EXPECT_GE(article.broad_topic, 0);
    EXPECT_LT(article.broad_topic, 10);
    EXPECT_FALSE(article.text.empty());
  }
}

TEST(NewsGenTest, ArticlesLeanOnTheirTopicVocabulary) {
  NewsGenConfig config;
  config.num_articles = 30;
  config.background_fraction = 0.2;
  config.mixture_prob = 0.0;
  config.seed = 5;
  auto articles = GenerateNewsCorpus(config);
  ASSERT_TRUE(articles.ok());
  Tokenizer tokenizer;
  for (const NewsArticle& article : *articles) {
    const auto& keywords =
        BuiltinBroadTopics()[static_cast<size_t>(article.broad_topic)]
            .keywords;
    size_t topic_hits = 0;
    const auto tokens = tokenizer.Tokenize(article.text);
    for (const std::string& token : tokens) {
      topic_hits += std::find(keywords.begin(), keywords.end(), token) !=
                    keywords.end();
    }
    EXPECT_GT(topic_hits, tokens.size() / 3);
  }
}

TEST(NewsGenTest, RejectsBadConfig) {
  NewsGenConfig config;
  config.num_articles = 0;
  EXPECT_FALSE(GenerateNewsCorpus(config).ok());
  config = {};
  config.background_fraction = 1.5;
  EXPECT_FALSE(GenerateNewsCorpus(config).ok());
}

TEST(TweetGenTest, StreamIsTimeSortedWithinDuration) {
  TweetGenConfig config;
  config.duration_seconds = 3600.0;
  config.base_rate_per_minute = 30.0;
  config.seed = 7;
  auto stream = GenerateTweetStream(config);
  ASSERT_TRUE(stream.ok());
  EXPECT_GT(stream->size(), 1000u);
  for (size_t i = 1; i < stream->size(); ++i) {
    EXPECT_LE((*stream)[i - 1].time, (*stream)[i].time);
  }
  EXPECT_GE(stream->front().time, 0.0);
  EXPECT_LT(stream->back().time, config.duration_seconds);
}

TEST(TweetGenTest, RateMatchesConfiguration) {
  TweetGenConfig config;
  config.duration_seconds = 2 * 3600.0;
  config.base_rate_per_minute = 60.0;
  config.num_bursts = 0;
  config.diurnal_amplitude = 0.0;  // flat rate for a 2h sample
  config.seed = 11;
  auto stream = GenerateTweetStream(config);
  ASSERT_TRUE(stream.ok());
  const double per_minute =
      static_cast<double>(stream->size()) / (config.duration_seconds / 60.0);
  EXPECT_NEAR(per_minute, 60.0, 6.0);
}

TEST(TweetGenTest, DuplicatesAreNearDuplicates) {
  TweetGenConfig config;
  config.duration_seconds = 1800.0;
  config.base_rate_per_minute = 60.0;
  config.duplicate_prob = 0.3;
  config.seed = 13;
  auto stream = GenerateTweetStream(config);
  ASSERT_TRUE(stream.ok());
  size_t retweets = 0;
  for (const Tweet& tweet : *stream) retweets += tweet.is_retweet;
  EXPECT_GT(retweets, stream->size() / 6);

  // SimHash dedup catches a large share of planted retweets.
  Tokenizer tokenizer;
  NearDuplicateDetector detector;
  size_t caught = 0;
  size_t retweet_total = 0;
  for (const Tweet& tweet : *stream) {
    const bool dup = detector.IsDuplicate(SimHash(tokenizer.Tokenize(tweet.text)));
    if (tweet.is_retweet) {
      ++retweet_total;
      caught += dup;
    }
  }
  EXPECT_GT(static_cast<double>(caught) / retweet_total, 0.7);
}

TEST(TweetGenTest, SentimentWordsTrackTrueSentiment) {
  TweetGenConfig config;
  config.duration_seconds = 3600.0;
  config.base_rate_per_minute = 60.0;
  config.sentiment_bias = 0.8;
  config.seed = 17;
  auto stream = GenerateTweetStream(config);
  ASSERT_TRUE(stream.ok());
  SentimentScorer scorer;
  double agree = 0.0, strong = 0.0;
  for (const Tweet& tweet : *stream) {
    if (std::abs(tweet.true_sentiment) < 0.5) continue;
    const double scored = scorer.Score(tweet.text);
    if (scored == 0.0) continue;
    ++strong;
    agree += (scored > 0) == (tweet.true_sentiment > 0);
  }
  ASSERT_GT(strong, 100.0);
  EXPECT_GT(agree / strong, 0.75);
}

TEST(TweetGenTest, BurstsConcentrateTopicTraffic) {
  TweetGenConfig base;
  base.duration_seconds = 6 * 3600.0;
  base.base_rate_per_minute = 20.0;
  base.num_bursts = 6;
  base.burst_size = 800.0;
  base.seed = 19;
  auto with_bursts = GenerateTweetStream(base);
  base.num_bursts = 0;
  auto without = GenerateTweetStream(base);
  ASSERT_TRUE(with_bursts.ok() && without.ok());
  EXPECT_GT(with_bursts->size(), without->size() + 2000u);
}

TEST(TweetGenTest, RejectsBadConfig) {
  TweetGenConfig config;
  config.duration_seconds = -1;
  EXPECT_FALSE(GenerateTweetStream(config).ok());
  config = {};
  config.diurnal_amplitude = 1.5;
  EXPECT_FALSE(GenerateTweetStream(config).ok());
  config = {};
  config.duplicate_prob = 1.0;
  EXPECT_FALSE(GenerateTweetStream(config).ok());
}

std::vector<Topic> MakeGroupedTopics() {
  std::vector<Topic> topics;
  for (int i = 0; i < 12; ++i) {
    Topic t;
    t.name = "t";
    t.name += std::to_string(i);
    t.keywords = {"kw" + std::to_string(i)};
    t.group = i / 4;  // 3 groups of 4
    topics.push_back(t);
  }
  return topics;
}

TEST(ProfileGenTest, ProfilesComeFromOneBroadTopic) {
  auto topics = MakeGroupedTopics();
  Rng rng(3);
  auto profiles = GenerateProfiles(topics, 3, 50, &rng);
  ASSERT_TRUE(profiles.ok());
  ASSERT_EQ(profiles->size(), 50u);
  for (const Profile& profile : *profiles) {
    ASSERT_EQ(profile.size(), 3u);
    // Distinct topics.
    auto sorted = profile;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
    // All from one group (each group has 4 >= 3 topics).
    const int group = topics[profile[0]].group;
    for (size_t idx : profile) {
      EXPECT_EQ(topics[idx].group, group);
    }
  }
}

TEST(ProfileGenTest, TopsUpWhenGroupTooSmall) {
  auto topics = MakeGroupedTopics();
  Rng rng(4);
  auto profiles = GenerateProfiles(topics, 6, 20, &rng);
  ASSERT_TRUE(profiles.ok());
  for (const Profile& profile : *profiles) {
    EXPECT_EQ(profile.size(), 6u);
  }
}

TEST(ProfileGenTest, ErrorsOnDegenerateInput) {
  Rng rng(5);
  EXPECT_FALSE(GenerateProfiles({}, 2, 1, &rng).ok());
  auto topics = MakeGroupedTopics();
  EXPECT_FALSE(GenerateProfiles(topics, 0, 1, &rng).ok());
  EXPECT_FALSE(GenerateProfiles(topics, 13, 1, &rng).ok());
  // All ungrouped.
  for (Topic& t : topics) t.group = -1;
  EXPECT_FALSE(GenerateProfiles(topics, 2, 1, &rng).ok());
}

}  // namespace
}  // namespace mqd
