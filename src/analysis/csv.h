#pragma once

/// \file csv.h
/// CSV export of Table 1 rows and generic row tables (the campaign
/// emitters' CSVs), readable by any plotting tool. Figure series are
/// written by runner::figureSeriesCsv.

#include <string>
#include <vector>

#include "trace/aggregate.h"

namespace vanet::analysis {

/// Writes the Table 1 aggregate (one row per car). Returns false (and
/// logs) on I/O failure.
bool writeTable1Csv(const std::string& path, const trace::Table1Data& data);

/// Renders a generic table (header row plus pre-formatted cells) as CSV
/// text. Cells containing commas, quotes or newlines are quoted per RFC
/// 4180. Used by the campaign engine's emitters.
std::string renderCsv(const std::vector<std::string>& headers,
                      const std::vector<std::vector<std::string>>& rows);

/// Writes renderCsv() output to `path`; false (and logs) on I/O failure.
bool writeRowsCsv(const std::string& path,
                  const std::vector<std::string>& headers,
                  const std::vector<std::vector<std::string>>& rows);

}  // namespace vanet::analysis
