#include "checker.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

namespace e2e {
namespace {

using mqd::Emission;
using mqd::Instance;
using mqd::LabelMask;
using mqd::PostId;

constexpr double kSlack = 1e-9;

std::string Describe(const char* what, PostId post, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (post %u: %.9g vs %.9g)", what, post, a,
                b);
  return buf;
}

/// Checks that each post of the stream due by `horizon` has, on every
/// stream label it carries, a selected post of that label within
/// lambda. `selected` holds post ids.
std::string CheckCoverage(const Instance& table, LabelMask mask, PostId join,
                          double lambda, double tau, double horizon,
                          const std::vector<PostId>& selected) {
  std::vector<std::vector<double>> by_label(64);
  for (PostId p : selected) {
    LabelMask m = table.labels(p) & mask;
    while (m != 0) {
      by_label[std::countr_zero(m)].push_back(table.value(p));
      m &= m - 1;
    }
  }
  for (auto& v : by_label) std::sort(v.begin(), v.end());
  const double reach = lambda + kSlack;
  for (PostId p = join; p < table.num_posts(); ++p) {
    const double v = table.value(p);
    if (v + lambda + tau >= horizon) break;
    LabelMask m = table.labels(p) & mask;
    while (m != 0) {
      const int a = std::countr_zero(m);
      m &= m - 1;
      const std::vector<double>& vals = by_label[a];
      auto it = std::lower_bound(vals.begin(), vals.end(), v - reach);
      if (it == vals.end() || *it > v + reach) {
        return Describe("post not covered on one of its labels", p, v,
                        it == vals.end() ? -1.0 : *it);
      }
    }
  }
  return {};
}

}  // namespace

std::string CheckEmissions(const Instance& table, const StreamShape& s,
                           const std::vector<Emission>& emissions) {
  std::vector<bool> seen(table.num_posts(), false);
  std::vector<PostId> selected;
  selected.reserve(emissions.size());
  for (const Emission& e : emissions) {
    if (e.post >= table.num_posts()) return "emitted post out of range";
    const double v = table.value(e.post);
    if (e.post < s.join || (table.labels(e.post) & s.mask) == 0) {
      return Describe("emitted post is not in the stream", e.post, v, 0.0);
    }
    if (seen[e.post]) return Describe("post emitted twice", e.post, v, v);
    seen[e.post] = true;
    if (e.emit_time < v - kSlack) {
      return Describe("emitted before its post arrived", e.post, e.emit_time,
                      v);
    }
    if (e.emit_time > v + s.tau + kSlack) {
      return Describe("emitted later than post time + tau", e.post,
                      e.emit_time, v + s.tau);
    }
    selected.push_back(e.post);
  }
  return CheckCoverage(table, s.mask, s.join, s.lambda, s.tau, s.horizon,
                       selected);
}

std::string CheckCover(const Instance& table, double lambda,
                       const std::vector<PostId>& cover) {
  for (PostId p : cover) {
    if (p >= table.num_posts()) return "cover post out of range";
  }
  return CheckCoverage(table, ~LabelMask{0}, 0, lambda, 0.0,
                       std::numeric_limits<double>::infinity(), cover);
}

size_t StreamLowerBound(const Instance& table, LabelMask mask, PostId join,
                        double lambda) {
  // Per label: the leftmost uncovered post must be covered by a label
  // post within lambda to its right at best; choosing the rightmost
  // such post is optimal for the label alone.
  std::vector<std::vector<double>> by_label(64);
  std::vector<size_t> posts_with(65, 0);  // posts by stream-label count
  for (PostId p = join; p < table.num_posts(); ++p) {
    LabelMask m = table.labels(p) & mask;
    posts_with[std::popcount(m)]++;
    while (m != 0) {
      by_label[std::countr_zero(m)].push_back(table.value(p));
      m &= m - 1;
    }
  }
  size_t sum = 0, most = 0;
  for (const std::vector<double>& v : by_label) {
    size_t stab = 0;
    size_t i = 0;
    while (i < v.size()) {
      size_t j = i;
      while (j + 1 < v.size() && v[j + 1] <= v[i] + lambda) ++j;
      ++stab;
      i = j + 1;
      while (i < v.size() && v[i] <= v[j] + lambda) ++i;
    }
    sum += stab;
    most = std::max(most, stab);
  }
  // A cover meets sum_a stab(a) label requirements, each selected post
  // at most one per stream label it carries, so it needs at least as
  // many posts as the fewest posts whose label counts reach the sum.
  size_t needed = 0;
  size_t reached = 0;
  for (size_t k = 64; k > 0 && reached < sum; --k) {
    const size_t take =
        std::min(posts_with[k], (sum - reached + k - 1) / k);
    needed += take;
    reached += take * k;
  }
  return std::max(most, needed);
}

std::vector<std::string> CheckerSelfTest() {
  // Four posts of one label, far apart: each must be emitted itself.
  mqd::InstanceBuilder builder(1);
  for (double v : {0.0, 100.0, 200.0, 300.0}) builder.Add(v, 1);
  auto built = builder.Build();
  if (!built.ok()) return {"self-test table: " + built.status().ToString()};
  const Instance& table = *built;
  StreamShape s;
  s.lambda = 10.0;
  s.tau = 5.0;
  s.horizon = std::numeric_limits<double>::infinity();
  std::vector<Emission> good;
  for (PostId p = 0; p < 4; ++p) good.push_back({p, table.value(p) + 1.0});
  const std::vector<PostId> cover = {0, 1, 2, 3};

  std::vector<std::string> missed;
  if (!CheckEmissions(table, s, good).empty()) missed.push_back("valid output");
  if (!CheckCover(table, s.lambda, cover).empty()) missed.push_back("cover");
  std::vector<Emission> dropped = good;
  dropped.erase(dropped.begin() + 1);
  if (CheckEmissions(table, s, dropped).empty()) {
    missed.push_back("dropped emission accepted");
  }
  std::vector<Emission> late = good;
  late[2].emit_time = table.value(2) + s.tau + 0.5;
  if (CheckEmissions(table, s, late).empty()) {
    missed.push_back("emission past tau accepted");
  }
  std::vector<Emission> early = good;
  early[3].emit_time = table.value(3) - 0.5;
  if (CheckEmissions(table, s, early).empty()) {
    missed.push_back("emission before its post accepted");
  }
  std::vector<PostId> cut = cover;
  cut.pop_back();
  if (CheckCover(table, s.lambda, cut).empty()) {
    missed.push_back("cover with a post cut accepted");
  }
  return missed;
}

}  // namespace e2e
