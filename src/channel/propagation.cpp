#include "channel/propagation.h"

#include <algorithm>

#include "util/assert.h"
#include "util/vmath.h"

namespace vanet::channel {
namespace {

constexpr double kMinDistance = 1.0;  // metres

}  // namespace

LogDistancePathLoss::LogDistancePathLoss(double exponent, double referenceLossDb,
                                         double referenceDistance)
    : exponent_(exponent), slopeDb_(10.0 * exponent),
      referenceLossDb_(referenceLossDb), referenceDistance_(referenceDistance) {
  VANET_ASSERT(exponent_ > 0.0, "path-loss exponent must be positive");
  VANET_ASSERT(referenceDistance_ > 0.0, "reference distance must be positive");
}

double LogDistancePathLoss::lossDb(double distanceMetres) const {
  const double d = std::max(distanceMetres, kMinDistance);
  return referenceLossDb_ + slopeDb_ * vmath::vlog10(d / referenceDistance_);
}

// Batched variant: one clamp pass, one batched vlog10, one elementwise
// finish -- the same per-element op sequence as the scalar lossDb (which
// runs the identical vmath kernel), so outputs match bit for bit.

void LogDistancePathLoss::lossDbBatch(const double* distanceMetres, double* out,
                                      std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::max(distanceMetres[i], kMinDistance) / referenceDistance_;
  }
  vmath::vlog10(out, out, n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = referenceLossDb_ + slopeDb_ * out[i];
  }
}

}  // namespace vanet::channel
