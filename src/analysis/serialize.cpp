#include "analysis/serialize.h"

#include <utility>
#include <vector>

#include "trace/serialize.h"
#include "util/json.h"

namespace vanet::analysis {
namespace {

/// The per-round stat fields in serialization order; writer and reader
/// share the list so they cannot drift.
std::vector<std::pair<const char*, RunningStats ProtocolTotals::*>>
totalsColumns() {
  return {{"requests", &ProtocolTotals::requestsPerRound},
          {"request_seqs", &ProtocolTotals::requestSeqsPerRound},
          {"coop_data", &ProtocolTotals::coopDataPerRound},
          {"suppressed", &ProtocolTotals::suppressedPerRound},
          {"hellos", &ProtocolTotals::hellosPerRound},
          {"buffered", &ProtocolTotals::bufferedPerRound}};
}

std::vector<std::pair<const char*, std::uint64_t mac::MediumStats::*>>
mediumColumns() {
  return {{"tx", &mac::MediumStats::framesTransmitted},
          {"delivered", &mac::MediumStats::framesDelivered},
          {"below_sensitivity", &mac::MediumStats::framesBelowSensitivity},
          {"collided", &mac::MediumStats::framesCollided},
          {"channel_error", &mac::MediumStats::framesChannelError},
          {"burst_lost", &mac::MediumStats::framesBurstLost},
          {"half_duplex_missed", &mac::MediumStats::framesHalfDuplexMissed},
          {"corrupt_delivered", &mac::MediumStats::framesCorruptDelivered}};
}

}  // namespace

std::string protocolTotalsToJson(const ProtocolTotals& totals) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, field] : totalsColumns()) {
    if (!first) out += ",";
    first = false;
    out += json::quote(name) + ":" + trace::runningStatsToJson(totals.*field);
  }
  out += ",\"medium\":{";
  first = true;
  for (const auto& [name, field] : mediumColumns()) {
    if (!first) out += ",";
    first = false;
    out += json::quote(name) + ":" + std::to_string(totals.medium.*field);
  }
  out += "}}";
  return out;
}

void protocolTotalsToBin(util::BinWriter& out, const ProtocolTotals& totals) {
  for (const auto& [name, field] : totalsColumns()) {
    (void)name;  // binary records carry positions, not names
    trace::runningStatsToBin(out, totals.*field);
  }
  for (const auto& [name, field] : mediumColumns()) {
    (void)name;
    out.u64(totals.medium.*field);
  }
}

ProtocolTotals protocolTotalsFromBin(util::BinReader& in) {
  ProtocolTotals totals;
  for (const auto& [name, field] : totalsColumns()) {
    (void)name;
    totals.*field = trace::runningStatsFromBin(in);
  }
  for (const auto& [name, field] : mediumColumns()) {
    (void)name;
    totals.medium.*field = in.u64("medium counter");
  }
  return totals;
}

}  // namespace vanet::analysis
