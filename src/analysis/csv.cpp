#include "analysis/csv.h"

#include <sstream>

#include "util/file.h"
#include "util/log.h"

namespace vanet::analysis {
namespace {

bool writeCsv(const std::string& path, const std::string& text) {
  if (util::writeFile(path, text)) return true;
  LOG_ERROR("cannot write " << path);
  return false;
}

void appendCell(std::string& out, const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

bool writeTable1Csv(const std::string& path, const trace::Table1Data& data) {
  std::ostringstream out;
  out << "car,tx_by_ap_mean,tx_by_ap_sd,lost_before_mean,lost_before_sd,"
         "pct_before,lost_after_mean,lost_after_sd,pct_after,"
         "lost_joint_mean,pct_joint\n";
  for (const auto& row : data.rows) {
    out << row.car << "," << row.txByAp.mean() << "," << row.txByAp.stddev()
        << "," << row.lostBefore.mean() << "," << row.lostBefore.stddev()
        << "," << row.pctLostBefore.mean() << "," << row.lostAfter.mean()
        << "," << row.lostAfter.stddev() << "," << row.pctLostAfter.mean()
        << "," << row.lostJoint.mean() << "," << row.pctLostJoint.mean()
        << "\n";
  }
  return writeCsv(path, out.str());
}

std::string renderCsv(const std::vector<std::string>& headers,
                      const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i > 0) out += ',';
    appendCell(out, headers[i]);
  }
  out += '\n';
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      appendCell(out, row[i]);
    }
    out += '\n';
  }
  return out;
}

bool writeRowsCsv(const std::string& path,
                  const std::vector<std::string>& headers,
                  const std::vector<std::vector<std::string>>& rows) {
  return writeCsv(path, renderCsv(headers, rows));
}

}  // namespace vanet::analysis
