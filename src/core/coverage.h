#ifndef MQD_CORE_COVERAGE_H_
#define MQD_CORE_COVERAGE_H_

#include <cmath>
#include <memory>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace mqd {

/// Coverage semantics between posts (paper Definitions 1-2 and the
/// Section 6 variable-lambda extension).
///
/// Post `coverer` lambda-covers label `a` of post `coveree` iff both
/// are relevant to `a` and |F(coverer) - F(coveree)| <= Reach(coverer,
/// a). With a uniform lambda the relation is symmetric; with the
/// post-specific lambda of Section 6 it becomes directional (the reach
/// of the *covering* post decides).
class CoverageModel {
 public:
  virtual ~CoverageModel() = default;

  /// The coverage radius of (coverer, a). Requires a in
  /// labels(coverer).
  virtual DimValue Reach(const PostTable& inst, PostId coverer,
                         LabelId a) const = 0;

  /// Upper bound on Reach over all (post, label) pairs; algorithms use
  /// it to bound window scans.
  virtual DimValue MaxReach() const = 0;

  /// True when Reach is the same constant for all pairs (enables the
  /// paper's symmetric-coverage fast paths, e.g. OPT).
  virtual bool IsUniform() const { return false; }

  /// Convenience: does `coverer` cover a in `coveree`? Requires a in
  /// labels of both posts.
  bool Covers(const PostTable& inst, PostId coverer, LabelId a,
              PostId coveree) const {
    return std::fabs(inst.value(coverer) - inst.value(coveree)) <=
           Reach(inst, coverer, a);
  }
};

/// The fixed, symmetric lambda of Sections 2-5.
class UniformLambda final : public CoverageModel {
 public:
  explicit UniformLambda(DimValue lambda);

  DimValue Reach(const PostTable&, PostId, LabelId) const override {
    return lambda_;
  }
  DimValue MaxReach() const override { return lambda_; }
  bool IsUniform() const override { return true; }

  DimValue lambda() const { return lambda_; }

 private:
  DimValue lambda_;
};

/// Post- and label-specific lambda (Section 6, Equation 2). The table
/// is indexed by (post, position of label within the post's mask);
/// build it with ComputeProportionalLambdas (core/proportional.h) or
/// supply arbitrary values for testing.
class VariableLambda final : public CoverageModel {
 public:
  /// `reaches[i]` holds one radius per set bit of labels(post i), in
  /// ascending label order. `max_reach` must dominate every entry.
  VariableLambda(std::vector<std::vector<DimValue>> reaches,
                 DimValue max_reach);

  DimValue Reach(const PostTable& inst, PostId coverer,
                 LabelId a) const override;
  DimValue MaxReach() const override { return max_reach_; }

 private:
  std::vector<std::vector<DimValue>> reaches_;
  DimValue max_reach_;
};

}  // namespace mqd

#endif  // MQD_CORE_COVERAGE_H_
