/// \file text_test.cpp
/// Levenshtein distance and nearest-name lookup — the machinery behind
/// the did-you-mean hints of Flags::allowOnly and the spec parser.

#include "util/text.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace vanet::util {
namespace {

TEST(TextTest, EditDistanceBasics) {
  EXPECT_EQ(editDistance("", ""), 0u);
  EXPECT_EQ(editDistance("abc", "abc"), 0u);
  EXPECT_EQ(editDistance("", "abc"), 3u);
  EXPECT_EQ(editDistance("abc", ""), 3u);
  EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(editDistance("threads", "thread"), 1u);   // deletion
  EXPECT_EQ(editDistance("sede", "seed"), 2u);        // transposition = 2
  EXPECT_EQ(editDistance("scenario", "scenarios"), 1u);
}

TEST(TextTest, EditDistanceIsSymmetric) {
  const std::vector<std::string> words = {"seed", "threads", "grid", ""};
  for (const std::string& a : words) {
    for (const std::string& b : words) {
      EXPECT_EQ(editDistance(a, b), editDistance(b, a)) << a << " vs " << b;
    }
  }
}

TEST(TextTest, NearestNamePicksTheClosestCandidate) {
  const std::vector<std::string> names = {"threads", "seed", "scenario"};
  EXPECT_EQ(nearestName("thread", names), "threads");
  EXPECT_EQ(nearestName("sed", names), "seed");
  EXPECT_EQ(nearestName("scenarios", names), "scenario");
  // An exact match is distance 0.
  EXPECT_EQ(nearestName("seed", names), "seed");
}

TEST(TextTest, NearestNameReturnsEmptyBeyondTheCap) {
  const std::vector<std::string> names = {"threads", "seed"};
  EXPECT_EQ(nearestName("completely-unrelated", names), "");
  EXPECT_EQ(nearestName("x", {}), "");
  // The cap grows with the typed name: a third of its length, 1 to 3.
  EXPECT_EQ(nearestName("thrxxds", names), "threads");  // 7 chars: 2 edits
  EXPECT_EQ(nearestName("seed", {"shard"}), "");  // 4 chars: 1 edit, not 3
  EXPECT_EQ(nearestName("thrxxxs", names), "");   // 3 edits, over the cap
}

TEST(TextTest, NearestNameTiesGoToTheFirstCandidate) {
  // "ab" is distance 1 from both; the first listed wins so hints are
  // deterministic across builds.
  EXPECT_EQ(nearestName("ab", {"abc", "abd"}), "abc");
  EXPECT_EQ(nearestName("ab", {"abd", "abc"}), "abd");
}

}  // namespace
}  // namespace vanet::util
