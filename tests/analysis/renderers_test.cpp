#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/csv.h"
#include "analysis/table1.h"

namespace vanet::analysis {
namespace {

trace::Table1Data sampleTable() {
  trace::Table1Data data;
  data.rounds = 30;
  for (NodeId car = 1; car <= 3; ++car) {
    trace::Table1Row row;
    row.car = car;
    for (int round = 0; round < 30; ++round) {
      row.txByAp.add(130.0 + car);
      row.lostBefore.add(30.0 + round % 5);
      row.lostAfter.add(13.0 + round % 3);
      row.lostJoint.add(10.0);
      row.pctLostBefore.add(23.4);
      row.pctLostAfter.add(10.5);
      row.pctLostJoint.add(8.0);
    }
    data.rows.push_back(row);
  }
  return data;
}

TEST(Table1RendererTest, ContainsAllRowsAndStats) {
  const std::string text = renderTable1(sampleTable());
  EXPECT_NE(text.find("Table 1"), std::string::npos);
  EXPECT_NE(text.find("30 rounds"), std::string::npos);
  EXPECT_NE(text.find("Mean"), std::string::npos);
  EXPECT_NE(text.find("Std. Dev."), std::string::npos);
  EXPECT_NE(text.find("23.4"), std::string::npos);
  EXPECT_NE(text.find("10.5"), std::string::npos);
}

TEST(Table1RendererTest, SummaryComputesReduction) {
  const std::string text = renderLossSummary(sampleTable());
  EXPECT_NE(text.find("car 1"), std::string::npos);
  EXPECT_NE(text.find("23.4% -> 10.5%"), std::string::npos);
  // (23.4 - 10.5) / 23.4 = 55.1% reduction.
  EXPECT_NE(text.find("55.1% reduction"), std::string::npos);
}

TEST(CsvTest, Table1Export) {
  const std::string path = ::testing::TempDir() + "/table1_test.csv";
  ASSERT_TRUE(writeTable1Csv(path, sampleTable()));
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("pct_before"), std::string::npos);
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3);
  std::remove(path.c_str());
}

TEST(CsvTest, UnwritablePathFails) {
  EXPECT_FALSE(writeTable1Csv("/nonexistent-dir/x.csv", sampleTable()));
  EXPECT_FALSE(writeRowsCsv("/nonexistent-dir/x.csv", {"a"}, {{"1"}}));
}

TEST(CsvTest, FullDiskFailsEveryWriter) {
  // Each file is far below the stream buffer size, so the write fails
  // only when the file is closed; that failure must still reach the
  // caller.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string link = ::testing::TempDir() + "/full_disk.csv";
  std::filesystem::remove(link);
  std::filesystem::create_symlink("/dev/full", link);
  EXPECT_FALSE(writeTable1Csv(link, sampleTable()));
  EXPECT_FALSE(writeRowsCsv(link, {"a"}, {{"1"}}));
  std::filesystem::remove(link);
}

}  // namespace
}  // namespace vanet::analysis
