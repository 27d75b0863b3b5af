#include "util/file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

namespace vanet::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vanet_file_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(FileTest, RewriteCreatesAFreshFileInsteadOfTruncating) {
  const fs::path path = dir_ / "artefact.csv";
  const fs::path alias = dir_ / "alias.csv";
  std::ofstream(path) << "previous contents, longer than the new ones\n";
  // A hard link shares the inode: it keeps the old bytes only when the
  // rewrite unlinked the path instead of truncating the inode in place.
  fs::create_hard_link(path, alias);
  {
    std::ofstream out = openForRewrite(path);
    ASSERT_TRUE(out);
    out << "new\n";
  }
  EXPECT_EQ(slurp(path), "new\n");
  EXPECT_EQ(slurp(alias), "previous contents, longer than the new ones\n");
}

TEST_F(FileTest, RewriteCreatesMissingFilesAndKeepsBinaryMode) {
  const fs::path path = dir_ / "partial.bin";
  {
    std::ofstream out = openForRewrite(path.string(), std::ios::binary);
    ASSERT_TRUE(out);
    out << std::string("a\0b\n", 4);
  }
  EXPECT_EQ(slurp(path), std::string("a\0b\n", 4));
}

TEST_F(FileTest, RewriteWritesThroughSymlinks) {
  const fs::path target = dir_ / "target.csv";
  const fs::path link = dir_ / "link.csv";
  std::ofstream(target) << "old contents\n";
  fs::create_symlink(target, link);
  {
    std::ofstream out = openForRewrite(link.string());
    ASSERT_TRUE(out);
    out << "new\n";
  }
  EXPECT_TRUE(fs::is_symlink(link));
  EXPECT_EQ(slurp(target), "new\n");
}

TEST_F(FileTest, RewriteIntoAMissingDirectoryFailsToOpen) {
  EXPECT_FALSE(openForRewrite((dir_ / "missing" / "out.csv").string()));
}

TEST_F(FileTest, WriteFileReportsAFullDisk) {
  // A few bytes stay in the stream buffer until the close, so the
  // failure only shows there.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const fs::path link = dir_ / "full.csv";
  fs::create_symlink("/dev/full", link);
  EXPECT_FALSE(writeFile(link.string(), "small\n"));
}

TEST_F(FileTest, RequireOutputDirNamesFlagAndPath) {
  EXPECT_NO_THROW(requireOutputDir("--csv", dir_.string()));
  EXPECT_NO_THROW(requireOutputDir("--partial-out", ""));  // working dir
  const std::string missing = (dir_ / "missing").string();
  try {
    requireOutputDir("--csv", missing);
    FAIL() << "missing directory accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "--csv: output directory '" + missing + "' does not exist");
  }
  const fs::path file = dir_ / "file";
  std::ofstream(file) << "x";
  EXPECT_THROW(requireOutputDir("--csv", file.string()), std::runtime_error);
}

}  // namespace
}  // namespace vanet::util
