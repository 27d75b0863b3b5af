#include "runner/sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace vanet::runner {
namespace {

TEST(SweepGridTest, EmptyGridIsOnePoint) {
  const SweepGrid grid;
  EXPECT_EQ(grid.axisCount(), 0u);
  EXPECT_EQ(grid.pointCount(), 1u);
  const std::vector<ParamSet> points = grid.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].size(), 0u);
}

TEST(SweepGridTest, PointCountIsProductOfAxisSizes) {
  SweepGrid grid;
  grid.add("speed_kmh", {20, 40, 60}).add("coop", {0, 1}).add("cars", {2, 3});
  EXPECT_EQ(grid.axisCount(), 3u);
  EXPECT_EQ(grid.pointCount(), 12u);
  EXPECT_EQ(grid.expand().size(), 12u);
}

TEST(SweepGridTest, FirstAxisVariesSlowest) {
  SweepGrid grid;
  grid.add("a", {1, 2}).add("b", {10, 20, 30});
  const std::vector<ParamSet> points = grid.expand();
  ASSERT_EQ(points.size(), 6u);
  // Nested-loop order: a=1 with every b, then a=2 with every b.
  EXPECT_EQ(points[0].get("a", 0), 1);
  EXPECT_EQ(points[0].get("b", 0), 10);
  EXPECT_EQ(points[1].get("b", 0), 20);
  EXPECT_EQ(points[2].get("b", 0), 30);
  EXPECT_EQ(points[3].get("a", 0), 2);
  EXPECT_EQ(points[3].get("b", 0), 10);
  EXPECT_EQ(points[5].get("a", 0), 2);
  EXPECT_EQ(points[5].get("b", 0), 30);
}

TEST(SweepGridTest, PointMatchesExpand) {
  SweepGrid grid;
  grid.add("x", {5, 6, 7}).add("y", {0.5, 1.5});
  const std::vector<ParamSet> points = grid.expand();
  for (std::size_t i = 0; i < grid.pointCount(); ++i) {
    EXPECT_EQ(grid.point(i).values(), points[i].values()) << "point " << i;
  }
}

TEST(SweepGridTest, BaseParamsCarryThroughAndAxesOverride) {
  ParamSet base;
  base.set("rounds", 7);
  base.set("speed_kmh", 999);  // overridden by the axis
  SweepGrid grid;
  grid.add("speed_kmh", {20, 40});
  const std::vector<ParamSet> points = grid.expand(base);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].get("rounds", 0), 7);
  EXPECT_EQ(points[0].get("speed_kmh", 0), 20);
  EXPECT_EQ(points[1].get("speed_kmh", 0), 40);
}

TEST(SweepGridTest, SingleValueAxesCollapseToOnePoint) {
  SweepGrid grid;
  grid.add("a", {1}).add("b", {2}).add("c", {3});
  EXPECT_EQ(grid.pointCount(), 1u);
  const ParamSet point = grid.point(0);
  EXPECT_EQ(point.get("a", 0), 1);
  EXPECT_EQ(point.get("b", 0), 2);
  EXPECT_EQ(point.get("c", 0), 3);
}

TEST(ParamSetTest, GettersAndOverrides) {
  ParamSet params{{"a", 1.5}, {"b", 0.0}};
  EXPECT_TRUE(params.has("a"));
  EXPECT_FALSE(params.has("c"));
  EXPECT_DOUBLE_EQ(params.get("a", 0), 1.5);
  EXPECT_DOUBLE_EQ(params.get("c", 9), 9);
  // A fractional value is not truncated into an int: it fails by name.
  EXPECT_THROW(params.getInt("a", 0), std::invalid_argument);
  EXPECT_EQ(params.getInt("b", 5), 0);
  EXPECT_FALSE(params.getBool("b", true));
  EXPECT_TRUE(params.getBool("c", true));
  ParamSet overrides{{"b", 2.0}, {"c", 3.0}};
  params.apply(overrides);
  EXPECT_DOUBLE_EQ(params.get("b", 0), 2.0);
  EXPECT_DOUBLE_EQ(params.get("c", 0), 3.0);
  EXPECT_DOUBLE_EQ(params.get("a", 0), 1.5);
}

TEST(ParamSetTest, GetIntRejectsValuesOutsideInt) {
  const ParamSet params{{"max", 2147483647.0},    {"min", -2147483648.0},
                        {"over", 2147483648.0},   {"under", -2147483649.0},
                        {"huge", 1e10},           {"nan", std::nan("")},
                        {"half", -0.5}};
  EXPECT_EQ(params.getInt("max", 0), 2147483647);
  EXPECT_EQ(params.getInt("min", 0), -2147483647 - 1);
  for (const char* name : {"over", "under", "huge", "nan", "half"}) {
    try {
      params.getInt(name, 0);
      ADD_FAILURE() << name << " converted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind(name, 0), 0u) << error.what();
    }
  }
}

}  // namespace
}  // namespace vanet::runner
