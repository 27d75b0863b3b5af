// vanet_campaign fails fast on unusable output paths, spec params and keys,
// flags outside the engine vocabulary, and engine flags without a usable
// value: the error names the flag, path, param or key, the exit status is
// nonzero, and no job runs (no `--progress` line, which the first
// finished job always prints, and no `--checkpoint` file, which every
// wave barrier writes). Commands run inside the test's own directory, so
// a stray relative output file shows up there.
// Artefact writes that fail after the run fail the exit status too. The
// table1 spec prints the Table 1 block.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

namespace {

namespace fs = std::filesystem;

struct CliRun {
  int status = 0;
  std::string output;  ///< stdout + stderr
};

class CampaignCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vanet_campaign_cli_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The committed spec specs/<name>.json.
  static std::string committed(const std::string& name) {
    return std::string(VANET_SPEC_DIR) + "/" + name + ".json";
  }

  /// The CI fixture tests/specs/<name>.json.
  static std::string fixture(const std::string& name) {
    return std::string(VANET_SPEC_DIR) + "/../tests/specs/" + name + ".json";
  }

  /// Writes a one-point urban spec with `base` (a JSON object) as its
  /// base params, plus the `extra` members (", \"key\": value" text), and
  /// returns its path.
  std::string writeSpec(const std::string& base,
                        const std::string& extra = "") const {
    const fs::path path = dir_ / "spec.json";
    std::ofstream(path) << "{\"format\": \"vanet-campaign-spec\", "
                           "\"version\": 1, \"name\": \"probe\", "
                           "\"scenario\": \"urban\", \"base\": "
                        << base << extra << "}\n";
    return path.string();
  }

  /// Runs `vanet_campaign run <specPath> <flags> --progress
  /// --checkpoint=<dir>/ck.bin` (without the --checkpoint flag when
  /// `withCheckpoint` is false).
  CliRun run(const std::string& flags,
             const std::string& specPath = committed("ablation_speed"),
             bool withCheckpoint = true) const {
    return shell(
        std::string(VANET_CAMPAIGN_BIN) + " run " + specPath + " " + flags +
        " --progress" +
        (withCheckpoint ? " --checkpoint=" + checkpoint().string() : ""));
  }

  /// Runs `command` inside dir_, capturing stdout + stderr in cli.log.
  CliRun shell(const std::string& command) const {
    const fs::path log = dir_ / "cli.log";
    const std::string line = "cd " + dir_.string() + " && " + command +
                             " > " + log.string() + " 2>&1";
    CliRun result;
    result.status = std::system(line.c_str());
    std::ifstream in(log);
    result.output.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    return result;
  }

  /// The names of the files in dir_.
  std::set<std::string> files() const {
    std::set<std::string> names;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
      names.insert(entry.path().filename().string());
    }
    return names;
  }

  /// Exit status 2 whose output names `text`, with no job run and no
  /// file written.
  void expectUsageError(const CliRun& result, const std::string& text) const {
    ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
    EXPECT_EQ(WEXITSTATUS(result.status), 2) << result.output;
    EXPECT_NE(result.output.find(text), std::string::npos) << result.output;
    EXPECT_FALSE(anyJobRan(result)) << result.output;
    EXPECT_EQ(files(), std::set<std::string>{"cli.log"}) << result.output;
  }

  fs::path checkpoint() const { return dir_ / "ck.bin"; }
  bool anyJobRan(const CliRun& result) const {
    return result.output.find("progress: jobs") != std::string::npos ||
           fs::exists(checkpoint());
  }

  fs::path dir_;
};

TEST_F(CampaignCliTest, MissingCsvDirFailsBeforeAnyJob) {
  const std::string missing = (dir_ / "missing" / "dir").string();
  const CliRun result = run("--csv=" + missing);
  EXPECT_NE(result.status, 0);
  EXPECT_NE(result.output.find("error: --csv: output directory '" + missing +
                               "' does not exist"),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
}

TEST_F(CampaignCliTest, CsvPathThatIsAFileFailsBeforeAnyJob) {
  const fs::path file = dir_ / "plain_file";
  std::ofstream(file) << "x";
  const CliRun result = run("--csv=" + file.string());
  EXPECT_NE(result.status, 0);
  EXPECT_NE(result.output.find("is not a directory"), std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
}

TEST_F(CampaignCliTest, MissingPartialOutParentFailsBeforeAnyJob) {
  const fs::path missing = dir_ / "missing";
  const CliRun result =
      run("--partial-out=" + (missing / "partial.bin").string());
  EXPECT_NE(result.status, 0);
  EXPECT_NE(result.output.find("error: --partial-out: output directory '" +
                               missing.string() + "' does not exist"),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
}

TEST_F(CampaignCliTest, PartialOutThatIsADirectoryFailsBeforeAnyJob) {
  // Not every job run and then the results lost to "cannot write DIR".
  const CliRun result = run("--partial-out=" + dir_.string());
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("error: --partial-out: output path '" +
                               dir_.string() + "' is a directory, not a file"),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
}

TEST_F(CampaignCliTest, CheckpointThatIsADirectoryFailsBeforeAnyJob) {
  // Not a failure after wave 0 ("cannot move the campaign checkpoint").
  const fs::path checkpointDir = dir_ / "checkpoints";
  fs::create_directories(checkpointDir);
  const CliRun result = run("--checkpoint=" + checkpointDir.string(),
                            committed("ablation_speed"),
                            /*withCheckpoint=*/false);
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("error: --checkpoint: output path '" +
                               checkpointDir.string() +
                               "' is a directory, not a file"),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
  EXPECT_TRUE(fs::is_empty(checkpointDir));
}

TEST_F(CampaignCliTest, ArtefactOnAFullDiskFailsTheRun) {
  // table1.csv is a few hundred bytes: the failed write surfaces only
  // when the file is closed, and must still fail the exit status.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  fs::create_symlink("/dev/full", dir_ / "table1.csv");
  const CliRun result = run("--csv=" + dir_.string(), committed("table1"));
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 1) << result.output;
  EXPECT_EQ(result.output.find("wrote " + (dir_ / "table1.csv").string()),
            std::string::npos)
      << result.output;
}

TEST_F(CampaignCliTest, UsableOutputPathsRunTheCampaign) {
  // The control: the same command with existing directories runs jobs,
  // so the probes above would have seen them.
  const CliRun result = run("--csv=" + dir_.string() + " --partial-out=" +
                            (dir_ / "partial.bin").string());
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_TRUE(anyJobRan(result)) << result.output;
  EXPECT_TRUE(fs::exists(dir_ / "partial.bin"));
  // No table1_csv emit, so no Table 1 block.
  EXPECT_EQ(result.output.find("Table 1."), std::string::npos)
      << result.output;
}

TEST_F(CampaignCliTest, Table1SpecPrintsTheTable1Block) {
  const CliRun result = run("", committed("table1"));
  EXPECT_EQ(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("Table 1. Average values on the number of "
                               "packets received and lost (over 30 rounds)"),
            std::string::npos)
      << result.output;
  for (const char* car : {"car 1: losses ", "car 2: losses ",
                          "car 3: losses "}) {
    EXPECT_NE(result.output.find(car), std::string::npos) << result.output;
  }
}

TEST_F(CampaignCliTest, BadParamValueFailsNamingTheParam) {
  // A named error and exit 1, not a model assert (exit 134).
  const CliRun result = run("", writeSpec(R"({"cars": 0, "rounds": 1})"));
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("cars must be >= 1, got 0"), std::string::npos)
      << result.output;
}

TEST_F(CampaignCliTest, UndeclaredParamFailsBeforeAnyJob) {
  // Not the default 30 rounds run silently under a `roundz` column.
  const CliRun result =
      run("--csv=" + dir_.string(), writeSpec(R"({"cars": 3, "roundz": 2})"));
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("declares no param \"roundz\" (base); did "
                               "you mean \"rounds\"?"),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
  EXPECT_FALSE(fs::exists(dir_ / "probe_campaign.csv"));
}

TEST_F(CampaignCliTest, ReplicationsPastIntMaxFailNamingTheKey) {
  // Not narrowed to int: 2^32 + 1 used to run as one replication, exit 0.
  const CliRun result = run("--csv=" + dir_.string(),
                            writeSpec(R"({"rounds": 1})",
                                      R"(, "replications": 4294967297)"));
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("key \"replications\": expected an integer "
                               "in [1, 2147483647], got 4294967297"),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
  EXPECT_FALSE(fs::exists(dir_ / "probe_campaign.csv"));
}

TEST_F(CampaignCliTest, SeedFlagIsRejectedBecauseTheSeedIsTheSpecs) {
  const CliRun result = run("--seed=1");
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 2) << result.output;
  EXPECT_NE(result.output.find("unknown flag --seed"), std::string::npos)
      << result.output;
  // "seed" is 3 edits from "shard": no hint, rather than a wrong one.
  EXPECT_EQ(result.output.find("did you mean"), std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
}

TEST_F(CampaignCliTest, StaleRoundThreadsFlagIsUnknown) {
  // Jobs are the only parallel axis; the old round-worker flag is not
  // quietly ignored.
  const CliRun result = run("--round-threads=4", committed("table1"));
  expectUsageError(result, "unknown flag --round-threads");
  EXPECT_EQ(result.output.find("did you mean"), std::string::npos)
      << result.output;
}

TEST_F(CampaignCliTest, StringFlagsWithoutAValueFailBeforeAnyJob) {
  // A bare --partial-out used to write the shard partial to ./true, a
  // bare --checkpoint its checkpoint there; an empty --partial-out= or
  // --csv= ran the jobs, wrote nothing and exited 0.
  const std::string smoke = fixture("sanitize_smoke");
  expectUsageError(run("--shard=0/2 --partial-out", smoke),
                   "flag --partial-out: needs a value");
  expectUsageError(run("--shard=0/2 --partial-out=", smoke),
                   "flag --partial-out: needs a value");
  expectUsageError(run("--csv=", smoke), "flag --csv: needs a value");
  expectUsageError(run("--checkpoint", smoke, /*withCheckpoint=*/false),
                   "flag --checkpoint: needs a value");
}

TEST_F(CampaignCliTest, EngineCountsOutOfRangeFailBeforeAnyJob) {
  // --threads=-3 used to run on every core; --halt-after-waves=0 halted
  // after one wave and a negative count ran to completion.
  expectUsageError(run("--threads=-3"), "flag --threads: ");
  expectUsageError(run("--halt-after-waves=0"), "flag --halt-after-waves: ");
  expectUsageError(run("--halt-after-waves=-1"), "flag --halt-after-waves: ");
}

TEST_F(CampaignCliTest, MergeWithAnEmptyOutputFlagWritesNothing) {
  const std::string smoke = fixture("sanitize_smoke");
  for (const char* shard : {"0", "1"}) {
    const CliRun made = shell(std::string(VANET_CAMPAIGN_BIN) + " run " +
                              smoke + " --shard=" + shard +
                              "/2 --partial-out=s" + shard + ".bin");
    ASSERT_EQ(made.status, 0) << made.output;
  }
  const std::string merge =
      std::string(VANET_CAMPAIGN_MERGE_BIN) + " s0.bin s1.bin";
  const std::set<std::string> before = files();
  const CliRun result = shell(merge + " --csv=");
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 2) << result.output;
  EXPECT_NE(result.output.find("flag --csv: needs a value"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("merged "), std::string::npos)
      << result.output;
  EXPECT_EQ(files(), before) << result.output;

  // The control: the same partials merge with a usable path.
  const CliRun control = shell(merge + " --csv=merged.csv");
  EXPECT_EQ(control.status, 0) << control.output;
  EXPECT_TRUE(fs::exists(dir_ / "merged.csv"));
}

TEST_F(CampaignCliTest, LogLevelIsCheckedByListPrintAndMerge) {
  // These verbs accepted any --log-level and never applied it; only `run`
  // read the flag.
  const std::string cli = std::string(VANET_CAMPAIGN_BIN);
  const std::string merge = std::string(VANET_CAMPAIGN_MERGE_BIN);
  const std::string table1 = committed("table1");
  const std::string bad = " --log-level=bogus";
  expectUsageError(shell(cli + " list" + bad), "flag --log-level: ");
  expectUsageError(shell(cli + " print " + table1 + bad), "flag --log-level: ");
  // Checked before the partials are read: these do not exist.
  expectUsageError(shell(merge + " s0.bin s1.bin --csv=merged.csv" + bad),
                   "flag --log-level: ");

  // A valid level is accepted.
  EXPECT_EQ(shell(cli + " list --log-level=debug").status, 0);
  const CliRun printed = shell(cli + " print " + table1 + " --log-level=error");
  EXPECT_EQ(printed.status, 0) << printed.output;
  EXPECT_NE(printed.output.find("\"vanet-campaign-spec\""), std::string::npos)
      << printed.output;
}

TEST_F(CampaignCliTest, SpecThatIsADirectoryFailsNamingThePath) {
  const std::string specDir = (dir_ / "specs").string();
  fs::create_directories(specDir);
  const CliRun result = run("", specDir);
  ASSERT_TRUE(WIFEXITED(result.status)) << result.output;
  EXPECT_EQ(WEXITSTATUS(result.status), 1) << result.output;
  EXPECT_NE(result.output.find("error: cannot read " + specDir),
            std::string::npos)
      << result.output;
  EXPECT_FALSE(anyJobRan(result)) << result.output;
}

}  // namespace
