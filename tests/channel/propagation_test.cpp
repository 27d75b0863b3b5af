#include "channel/propagation.h"

#include <gtest/gtest.h>

namespace vanet::channel {
namespace {

TEST(LogDistanceTest, ReferenceAndSlope) {
  const LogDistancePathLoss model(3.0, 46.0, 1.0);
  EXPECT_DOUBLE_EQ(model.lossDb(1.0), 46.0);
  EXPECT_NEAR(model.lossDb(10.0), 46.0 + 30.0, 1e-9);
  EXPECT_NEAR(model.lossDb(100.0), 46.0 + 60.0, 1e-9);
  EXPECT_DOUBLE_EQ(model.exponent(), 3.0);
}

TEST(LogDistanceTest, CustomReferenceDistance) {
  const LogDistancePathLoss model(2.0, 60.0, 10.0);
  EXPECT_DOUBLE_EQ(model.lossDb(10.0), 60.0);
  EXPECT_NEAR(model.lossDb(100.0), 80.0, 1e-9);
}

// Monotonicity property over a distance sweep.
TEST(PathLossMonotoneTest, LossNeverDecreasesWithDistance) {
  const LogDistancePathLoss model(2.7, 46.0);
  double prev = model.lossDb(1.0);
  for (double d = 2.0; d < 5000.0; d *= 1.3) {
    const double loss = model.lossDb(d);
    EXPECT_GE(loss, prev - 1e-9) << "distance " << d;
    prev = loss;
  }
}

}  // namespace
}  // namespace vanet::channel
