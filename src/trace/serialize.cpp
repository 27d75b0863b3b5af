#include "trace/serialize.h"

#include <utility>
#include <vector>

#include "util/json.h"

namespace vanet::trace {

std::string runningStatsToJson(const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  if (s.count == 0) return "[0]";
  std::string out = "[";
  out += std::to_string(s.count);
  for (const double field : {s.mean, s.m2, s.sum, s.min, s.max}) {
    out += ',';
    out += json::num(field);
  }
  out += ']';
  return out;
}

std::string seriesToJson(const SeriesAccumulator& series) {
  std::string out = "[";
  bool first = true;
  for (const RunningStats& cell : series.cells()) {
    if (!first) out += ",";
    first = false;
    out += runningStatsToJson(cell);
  }
  out += "]";
  return out;
}

namespace {

/// Encoded size of an empty RunningStats: its u64 sample count alone.
constexpr std::size_t kMinStatsSize = 8;

/// The Table1Row stat columns in serialization order. Kept in one place
/// so writer and reader cannot drift.
std::vector<RunningStats Table1Row::*> table1Columns() {
  return {&Table1Row::txByAp,        &Table1Row::lostBefore,
          &Table1Row::lostAfter,     &Table1Row::lostJoint,
          &Table1Row::pctLostBefore, &Table1Row::pctLostAfter,
          &Table1Row::pctLostJoint};
}

}  // namespace

std::string table1ToJson(const Table1Data& data) {
  std::string out = "{\"rounds\":" + std::to_string(data.rounds);
  out += ",\"rows\":[";
  bool firstRow = true;
  for (const Table1Row& row : data.rows) {
    if (!firstRow) out += ",";
    firstRow = false;
    out += "{\"car\":" + std::to_string(row.car);
    out += ",\"stats\":[";
    bool firstCol = true;
    for (const auto column : table1Columns()) {
      if (!firstCol) out += ",";
      firstCol = false;
      out += runningStatsToJson(row.*column);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string flowFigureToJson(const FlowFigure& figure) {
  std::string out = "{\"flow\":" + std::to_string(figure.flow);
  out += ",\"rx_by_car\":[";
  bool first = true;
  for (const auto& [car, series] : figure.rxByCar) {
    if (!first) out += ",";
    first = false;
    out += "{\"car\":" + std::to_string(car);
    out += ",\"cells\":" + seriesToJson(series) + "}";
  }
  out += "],\"after_coop\":" + seriesToJson(figure.afterCoop);
  out += ",\"joint\":" + seriesToJson(figure.joint);
  out += ",\"rb12\":" + runningStatsToJson(figure.regionBoundary12);
  out += ",\"rb23\":" + runningStatsToJson(figure.regionBoundary23);
  out += "}";
  return out;
}

void runningStatsToBin(util::BinWriter& out, const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  out.u64(s.count);
  if (s.count == 0) return;  // empty state carries no moments, like "[0]"
  for (const double field : {s.mean, s.m2, s.sum, s.min, s.max}) {
    out.f64(field);
  }
}

RunningStats runningStatsFromBin(util::BinReader& in) {
  RunningStats::State s;
  s.count = in.u64("stats count");
  if (s.count == 0) return RunningStats();
  s.mean = in.f64("stats mean");
  s.m2 = in.f64("stats m2");
  s.sum = in.f64("stats sum");
  s.min = in.f64("stats min");
  s.max = in.f64("stats max");
  return RunningStats::fromState(s);
}

void seriesToBin(util::BinWriter& out, const SeriesAccumulator& series) {
  out.u32(static_cast<std::uint32_t>(series.cells().size()));
  for (const RunningStats& cell : series.cells()) {
    runningStatsToBin(out, cell);
  }
}

SeriesAccumulator seriesFromBin(util::BinReader& in) {
  const std::uint32_t count = in.u32("series cell count");
  in.needCount(count, kMinStatsSize, "series cell count");
  std::vector<RunningStats> cells;
  cells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    cells.push_back(runningStatsFromBin(in));
  }
  return SeriesAccumulator::fromCells(std::move(cells));
}

void table1ToBin(util::BinWriter& out, const Table1Data& data) {
  out.i64(data.rounds);
  const auto columns = table1Columns();
  out.u32(static_cast<std::uint32_t>(data.rows.size()));
  for (const Table1Row& row : data.rows) {
    out.i32(row.car);
    for (const auto column : columns) {
      runningStatsToBin(out, row.*column);
    }
  }
}

Table1Data table1FromBin(util::BinReader& in) {
  Table1Data data;
  data.rounds = in.i64("table1 rounds");
  const auto columns = table1Columns();
  const std::uint32_t rowCount = in.u32("table1 row count");
  // A row is its car id plus one RunningStats per column.
  in.needCount(rowCount, 4 + columns.size() * kMinStatsSize,
               "table1 row count");
  data.rows.reserve(rowCount);
  for (std::uint32_t r = 0; r < rowCount; ++r) {
    Table1Row row;
    row.car = in.i32("table1 car id");
    for (const auto column : columns) {
      row.*column = runningStatsFromBin(in);
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

void flowFigureToBin(util::BinWriter& out, const FlowFigure& figure) {
  out.i32(figure.flow);
  out.u32(static_cast<std::uint32_t>(figure.rxByCar.size()));
  for (const auto& [car, series] : figure.rxByCar) {
    out.i32(car);
    seriesToBin(out, series);
  }
  seriesToBin(out, figure.afterCoop);
  seriesToBin(out, figure.joint);
  runningStatsToBin(out, figure.regionBoundary12);
  runningStatsToBin(out, figure.regionBoundary23);
}

FlowFigure flowFigureFromBin(util::BinReader& in) {
  FlowFigure figure;
  figure.flow = in.i32("figure flow id");
  const std::uint32_t carCount = in.u32("figure rx_by_car count");
  for (std::uint32_t c = 0; c < carCount; ++c) {
    const NodeId car = in.i32("figure car id");
    figure.rxByCar[car] = seriesFromBin(in);
  }
  figure.afterCoop = seriesFromBin(in);
  figure.joint = seriesFromBin(in);
  figure.regionBoundary12 = runningStatsFromBin(in);
  figure.regionBoundary23 = runningStatsFromBin(in);
  return figure;
}

}  // namespace vanet::trace
