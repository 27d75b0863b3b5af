/// \file flags_edge_test.cpp
/// Edge cases of the flag parser that the happy-path suite in
/// flags_test.cpp does not cover: explicitly empty values (`--rounds=`),
/// string flags given bare (`--partial-out`), flags whose space-syntax
/// value is a negative number, malformed `--shard` specs, engine counts
/// out of range, and run-state flags given without a checkpoint.
/// Every typed parser rejects a bad value by printing a diagnostic and
/// exiting with status 2 (badValue), which death tests observe from the
/// parent process.

#include "util/flags.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

namespace vanet {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags{static_cast<int>(argv.size()), argv.data()};
}

using FlagsEdgeDeathTest = ::testing::Test;

TEST(FlagsEdgeDeathTest, EmptyValuesAreRejectedByEveryTypedParser) {
  // `--flag=` stores an empty string; each typed getter must take the
  // badValue exit path instead of silently falling back.
  EXPECT_EXIT(parse({"--rounds="}).getInt("rounds", 1),
              ::testing::ExitedWithCode(2), "cannot parse '' as int");
  EXPECT_EXIT(parse({"--speed="}).getDouble("speed", 1.0),
              ::testing::ExitedWithCode(2), "cannot parse '' as double");
  EXPECT_EXIT(parse({"--coop="}).getBool("coop", true),
              ::testing::ExitedWithCode(2), "cannot parse '' as bool");
  EXPECT_EXIT(parse({"--shard="}).getShard("shard"),
              ::testing::ExitedWithCode(2), "cannot parse '' as shard");
  // `--csv=` used to read as "no artefacts" and exit 0.
  EXPECT_EXIT(parse({"--csv="}).getString("csv", ""),
              ::testing::ExitedWithCode(2), "flag --csv: needs a value");
}

TEST(FlagsEdgeDeathTest, BareStringFlagsAreRejected) {
  // A bare `--partial-out` is stored as "true" for getBool; as a string
  // it used to name a file `./true`.
  EXPECT_EXIT(parse({"--partial-out"}).getString("partial-out", ""),
              ::testing::ExitedWithCode(2),
              "flag --partial-out: needs a value");
  // Bare before another flag is bare too; the last occurrence decides.
  EXPECT_EXIT(parse({"--csv=out", "--csv", "--progress"}).getString("csv", ""),
              ::testing::ExitedWithCode(2), "flag --csv: needs a value");
  EXPECT_EQ(parse({"--csv", "--csv=out"}).getString("csv", ""), "out");
  EXPECT_EQ(parse({"--csv", "out"}).getString("csv", ""), "out");
  // Through the engine flags: every string flag of campaignRunFlags.
  for (const char* flag : {"--partial-out", "--checkpoint", "--log-level"}) {
    EXPECT_EXIT(campaignRunFlags(parse({flag, "--progress"})),
                ::testing::ExitedWithCode(2),
                std::string("flag ") + flag + ": needs a value")
        << flag;
  }
  EXPECT_EXIT(campaignRunFlags(parse({"--checkpoint="})),
              ::testing::ExitedWithCode(2), "flag --checkpoint: needs a value");
}

TEST(FlagsTest, EmptyValueStaysDistinctFromAbsentFlag) {
  // The empty value is present (and rejected loudly by every getter); it
  // must NOT read as "flag absent, use the fallback".
  const Flags f = parse({"--partial-out="});
  EXPECT_TRUE(f.has("partial-out"));
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.getString("missing", "dflt"), "dflt");
}

TEST(FlagsEdgeDeathTest, EngineCountsOutOfRangeAreRejected) {
  // --threads=-3 used to run on every core like --threads=0.
  for (const char* threads : {"--threads=-3", "--threads=-1"}) {
    EXPECT_EXIT(campaignRunFlags(parse({threads})),
                ::testing::ExitedWithCode(2), "flag --threads: ")
        << threads;
  }
  // --halt-after-waves=0 used to halt after one wave, a negative count to
  // run to completion.
  for (const char* halt : {"--halt-after-waves=0", "--halt-after-waves=-2"}) {
    EXPECT_EXIT(campaignRunFlags(parse({halt, "--checkpoint=ck.bin"})),
                ::testing::ExitedWithCode(2), "flag --halt-after-waves: ")
        << halt;
  }
  // --threads=0 keeps its meaning: all cores (resolved by the executor).
  EXPECT_EQ(campaignRunFlags(parse({"--threads=0"})).threads, 0);
  EXPECT_EQ(campaignRunFlags(parse({})).haltAfterWaves, -1);
}

TEST(FlagsTest, SpaceSyntaxConsumesNegativeNumbers) {
  // `--offset -3`: the next token starts with '-' but not "--", so it is
  // a value, not a flag.
  const Flags f = parse({"--offset", "-3", "--power", "-12.5"});
  EXPECT_EQ(f.getInt("offset", 0), -3);
  EXPECT_DOUBLE_EQ(f.getDouble("power", 0.0), -12.5);
}

TEST(FlagsEdgeDeathTest, MalformedShardSpecsAreRejected) {
  // A bare `--shard` parses as "true": not a shard spec, so it must not
  // run the whole campaign as if no shard had been asked for.
  for (const char* spec :
       {"--shard", "--shard=1", "--shard=1/", "--shard=/2", "--shard=a/2",
        "--shard=1/b", "--shard=1/2x", "--shard=2/2", "--shard=-1/3",
        "--shard=0/0", "--shard=1 / 2"}) {
    EXPECT_EXIT(parse({spec}).getShard("shard"),
                ::testing::ExitedWithCode(2), "shard spec")
        << "spec not rejected: " << spec;
  }
}

TEST(FlagsEdgeDeathTest, TrailingGarbageRejectedByNumericParsers) {
  EXPECT_EXIT(parse({"--rounds=3x"}).getInt("rounds", 0),
              ::testing::ExitedWithCode(2), "cannot parse '3x' as int");
  EXPECT_EXIT(parse({"--speed=1.5mps"}).getDouble("speed", 0.0),
              ::testing::ExitedWithCode(2), "as double");
}

TEST(FlagsEdgeDeathTest, RunStateFlagsNeedACheckpoint) {
  // --resume has nothing to read and --halt-after-waves nothing to keep
  // without a checkpoint file: both exit 2 before any job runs.
  EXPECT_EXIT(campaignRunFlags(parse({"--resume"})),
              ::testing::ExitedWithCode(2),
              "flag --resume needs --checkpoint=<path>");
  EXPECT_EXIT(campaignRunFlags(parse({"--halt-after-waves=1"})),
              ::testing::ExitedWithCode(2),
              "flag --halt-after-waves needs --checkpoint=<path>");
  const CampaignRunFlags run = campaignRunFlags(
      parse({"--halt-after-waves=1", "--checkpoint=ck.bin"}));
  EXPECT_EQ(run.haltAfterWaves, 1);
  EXPECT_EQ(run.checkpoint, "ck.bin");
}

TEST(FlagsEdgeDeathTest, AllowOnlyRejectsUnknownFlagsWithDidYouMean) {
  // A typo within editing distance of a legal flag names it in the hint.
  EXPECT_EXIT(parse({"--thread=4"}).allowOnly({"threads", "seed"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --thread \\(did you mean --threads\\?\\)");
  // Nothing close: the bare rejection, no misleading hint.
  EXPECT_EXIT(parse({"--zzzzzzzz=1"}).allowOnly({"threads", "seed"}),
              ::testing::ExitedWithCode(2), "unknown flag --zzzzzzzz");
}

TEST(FlagsTest, AllowOnlyAcceptsTheFullVocabulary) {
  // Every name in the shared campaign vocabulary passes its own check,
  // and positional arguments are never flagged.
  const Flags flags = parse({"--threads=2", "--progress",
                             "--checkpoint=ck.bin", "pos0", "pos1"});
  flags.allowOnly(campaignFlagNames());
  EXPECT_EQ(flags.positional().size(), 2u);
  // The engine vocabulary only: the seed and the adaptive policy are the
  // spec's.
  EXPECT_EQ(campaignFlagNames().size(), 8u);
}

}  // namespace
}  // namespace vanet
