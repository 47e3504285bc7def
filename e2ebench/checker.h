// Output checks computed apart from the program: lambda-cover and
// report-window checks of emission lists, and the exact per-label lower
// bound by interval stabbing. Uses only the post table's accessors, not
// the library's verifier or bounds.
#ifndef MQD_E2EBENCH_CHECKER_H_
#define MQD_E2EBENCH_CHECKER_H_

#include <string>
#include <vector>

#include "core/instance.h"
#include "stream/stream_solver.h"

namespace e2e {

/// The stream a tenant sees: posts carrying a label of `mask`, from
/// global post `join` on. Posts whose value + lambda + tau is below
/// `horizon` must be covered (pass +inf for a finished stream).
struct StreamShape {
  mqd::LabelMask mask = ~mqd::LabelMask{0};
  mqd::PostId join = 0;
  double lambda = 0.0;
  double tau = 0.0;
  double horizon = 0.0;
};

/// Empty when `emissions` is a valid output of the stream: every
/// emitted post belongs to it, is emitted once, within [post time,
/// post time + tau], and every post due by the horizon shares each of
/// its stream labels with an emitted post within lambda. Otherwise the
/// first violation found.
std::string CheckEmissions(const mqd::Instance& table, const StreamShape& s,
                           const std::vector<mqd::Emission>& emissions);

/// Empty when `cover` lambda-covers every post of the whole table.
std::string CheckCover(const mqd::Instance& table, double lambda,
                       const std::vector<mqd::PostId>& cover);

/// Lower bound on any lambda-cover of the stream. stab(a) is the exact
/// minimum number of label-a posts covering label a alone (greedy
/// interval stabbing). A cover meets sum_a stab(a) label requirements
/// and a post meets at most one per stream label it carries, so the
/// bound is the fewest stream posts whose label counts reach that sum,
/// and at least max_a stab(a).
size_t StreamLowerBound(const mqd::Instance& table, mqd::LabelMask mask,
                        mqd::PostId join, double lambda);

/// Breaks a known-good output four ways (drop an emission, delay one
/// past tau, emit one before its post, cut a post from a cover) and
/// returns a message for each break the checker did not reject.
std::vector<std::string> CheckerSelfTest();

}  // namespace e2e

#endif  // MQD_E2EBENCH_CHECKER_H_
