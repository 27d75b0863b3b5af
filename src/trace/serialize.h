#pragma once

/// \file serialize.h
/// Serialization of the trace-layer merge states. The binary pairs carry
/// the campaign partial format v3 (runner/partial_binary.h): every
/// RunningStats travels as its full Welford state in raw IEEE-754
/// payloads, so a round trip is bit-exact by construction and folding
/// deserialized partials produces the same bytes as folding the
/// in-process results they were serialized from. The JSON renderings
/// are write-only: full-precision text of the same merge states, which
/// is how results are compared byte for byte.

#include <string>

#include "trace/aggregate.h"
#include "util/binio.h"

namespace vanet::trace {

/// Table1Data as a JSON object: {"rounds":N,"rows":[{"car":..,"stats":[..]}]}.
std::string table1ToJson(const Table1Data& data);

/// FlowFigure as a JSON object (flow id, per-car cell series, after-coop
/// and joint series, region-boundary stats).
std::string flowFigureToJson(const FlowFigure& figure);

/// One RunningStats merge-state as a compact JSON array
/// `[count,mean,m2,sum,min,max]` (`[0]` when empty).
std::string runningStatsToJson(const RunningStats& stats);

/// A SeriesAccumulator as an array of cell states.
std::string seriesToJson(const SeriesAccumulator& series);

/// Binary writer/reader pairs of the campaign partial format. Writer
/// and reader share one column list per type, so they cannot drift
/// apart.
void runningStatsToBin(util::BinWriter& out, const RunningStats& stats);
RunningStats runningStatsFromBin(util::BinReader& in);

void seriesToBin(util::BinWriter& out, const SeriesAccumulator& series);
SeriesAccumulator seriesFromBin(util::BinReader& in);

void table1ToBin(util::BinWriter& out, const Table1Data& data);
Table1Data table1FromBin(util::BinReader& in);

void flowFigureToBin(util::BinWriter& out, const FlowFigure& figure);
FlowFigure flowFigureFromBin(util::BinReader& in);

}  // namespace vanet::trace
