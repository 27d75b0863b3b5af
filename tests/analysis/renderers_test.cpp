#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/csv.h"
#include "analysis/figures.h"
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

trace::FlowFigure sampleFigure() {
  trace::FlowFigure figure;
  figure.flow = 1;
  for (std::size_t i = 0; i < 50; ++i) {
    const double p = i < 25 ? 0.9 : 0.4;
    for (const NodeId car : {1, 2, 3}) {
      figure.rxByCar[car].add(i, p);
    }
    figure.afterCoop.add(i, 0.95);
    figure.joint.add(i, 0.97);
  }
  figure.regionBoundary12.add(12.0);
  figure.regionBoundary23.add(35.0);
  return figure;
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

TEST(FigureRendererTest, ReceptionFigureStructure) {
  const std::string text = renderReceptionFigure(sampleFigure());
  EXPECT_NE(text.find("addressed to car 1"), std::string::npos);
  EXPECT_NE(text.find("Region I/II boundary"), std::string::npos);
  EXPECT_NE(text.find("Rx in car 1"), std::string::npos);
  EXPECT_NE(text.find("Rx in car 3"), std::string::npos);
  EXPECT_NE(text.find("packet number"), std::string::npos);
}

TEST(FigureRendererTest, CoopFigureReportsCoincidence) {
  const std::string text = renderCoopFigure(sampleFigure());
  EXPECT_NE(text.find("C-ARQ in car 1"), std::string::npos);
  EXPECT_NE(text.find("after coop"), std::string::npos);
  EXPECT_NE(text.find("Joint Rx"), std::string::npos);
  EXPECT_NE(text.find("mean |after-coop - joint|"), std::string::npos);
}

TEST(FigureRendererTest, LeadingEmptyCellsAreTrimmedWithOffsetNote) {
  trace::FlowFigure figure;
  figure.flow = 2;
  // Cells 0..9 never populated (window opened late); 10..29 active.
  for (std::size_t i = 10; i < 30; ++i) {
    for (const NodeId car : {1, 2, 3}) figure.rxByCar[car].add(i, 0.8);
    figure.afterCoop.add(i, 0.9);
    figure.joint.add(i, 0.95);
  }
  figure.regionBoundary12.add(15.0);
  figure.regionBoundary23.add(25.0);
  const std::string text = renderReceptionFigure(figure);
  EXPECT_NE(text.find("absolute offset +10"), std::string::npos);
  // Region boundaries are reported relative to the window start.
  EXPECT_NE(text.find("Region I/II boundary ~ packet 5.0"), std::string::npos);
}

TEST(FigureRendererTest, SparseTailCellsAreDropped) {
  trace::FlowFigure figure;
  figure.flow = 1;
  // 20 well-covered cells (10 samples each), then a one-sample straggler.
  for (std::size_t i = 0; i < 20; ++i) {
    for (int round = 0; round < 10; ++round) {
      figure.joint.add(i, 1.0);
      figure.afterCoop.add(i, 1.0);
      figure.rxByCar[1].add(i, 1.0);
    }
  }
  figure.joint.add(25, 1.0);  // lone tail cell: below the coverage cutoff
  figure.afterCoop.add(25, 0.0);
  figure.rxByCar[1].add(25, 0.0);
  figure.regionBoundary12.add(5.0);
  figure.regionBoundary23.add(15.0);
  const std::string text = renderCoopFigure(figure);
  // The straggler would have produced a max gap of 1.0; trimmed it is 0.
  EXPECT_NE(text.find("max = 0.0000"), std::string::npos);
}

TEST(AsciiPlotTest, MarksSeriesAtCorrectHeights) {
  const std::vector<double> high(20, 0.95);
  const std::vector<double> low(20, 0.05);
  const std::string text = asciiPlot({high, low}, {"high", "low"}, 20, 10);
  std::istringstream lines(text);
  std::string first;
  std::getline(lines, first);
  EXPECT_NE(first.find('*'), std::string::npos);  // high series on top row
  EXPECT_NE(text.find("+ = low"), std::string::npos);
}

TEST(CsvTest, SeriesRoundTrip) {
  const std::string path = ::testing::TempDir() + "/series_test.csv";
  ASSERT_TRUE(writeSeriesCsv(path, "packet", {"a", "b"},
                             {{1.0, 2.0, 3.0}, {0.5, 0.25}}));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "packet,a,b");
  std::string row1;
  std::getline(in, row1);
  EXPECT_EQ(row1, "1,1,0.5");
  std::string row3;
  std::getline(in, row3);  // row 2
  std::getline(in, row3);  // row 3: b column exhausted
  EXPECT_EQ(row3, "3,3,");
  std::remove(path.c_str());
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
  EXPECT_FALSE(writeSeriesCsv("/nonexistent-dir/x.csv", "i", {"a"}, {{1.0}}));
}

TEST(CsvTest, FullDiskFailsEveryWriter) {
  // Each file is far below the stream buffer size, so the write fails
  // only when the file is closed; that failure must still reach the
  // caller.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string link = ::testing::TempDir() + "/full_disk.csv";
  std::filesystem::remove(link);
  std::filesystem::create_symlink("/dev/full", link);
  EXPECT_FALSE(writeSeriesCsv(link, "i", {"a"}, {{1.0}}));
  EXPECT_FALSE(writeTable1Csv(link, sampleTable()));
  EXPECT_FALSE(writeRowsCsv(link, {"a"}, {{"1"}}));
  std::filesystem::remove(link);
}

}  // namespace
}  // namespace vanet::analysis
