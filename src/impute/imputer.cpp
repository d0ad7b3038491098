#include "impute/imputer.h"

#include "nn/serialize.h"

namespace fmnet::impute {

void CheckpointableImputer::load(std::istream& in) {
  nn::load_parameters(model(), in);
}

}  // namespace fmnet::impute
