#include "core/coverage.h"

#include "util/logging.h"

namespace mqd {

UniformLambda::UniformLambda(DimValue lambda) : lambda_(lambda) {
  MQD_CHECK(lambda >= 0.0) << "lambda must be non-negative";
}

VariableLambda::VariableLambda(std::vector<std::vector<DimValue>> reaches,
                               DimValue max_reach)
    : reaches_(std::move(reaches)), max_reach_(max_reach) {
  MQD_CHECK(max_reach >= 0.0);
}

DimValue VariableLambda::Reach(const PostTable& inst, PostId coverer,
                               LabelId a) const {
  MQD_DCHECK(coverer < reaches_.size());
  const LabelMask mask = inst.labels(coverer);
  MQD_DCHECK(MaskHas(mask, a));
  // Position of `a` among the set bits of `mask`.
  const LabelMask below = mask & (MaskOf(a) - 1);
  const int pos = MaskCount(below);
  MQD_DCHECK(static_cast<size_t>(pos) < reaches_[coverer].size());
  return reaches_[coverer][static_cast<size_t>(pos)];
}

}  // namespace mqd
