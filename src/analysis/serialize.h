#pragma once

/// \file serialize.h
/// Serialization of the analysis-layer merge states (ProtocolTotals with
/// its embedded mac::MediumStats counters). Like the trace serializers,
/// the binary pair round-trips the full merge state bit-identically for
/// the campaign partial format, and the JSON rendering is write-only.

#include <string>

#include "analysis/experiment.h"
#include "util/binio.h"

namespace vanet::analysis {

/// ProtocolTotals as a JSON object.
std::string protocolTotalsToJson(const ProtocolTotals& totals);

/// Binary writer/reader pair for the campaign partial format v3; same
/// column lists as the JSON rendering (writer and reader cannot drift),
/// raw IEEE-754 doubles (bit-exact by construction).
void protocolTotalsToBin(util::BinWriter& out, const ProtocolTotals& totals);
ProtocolTotals protocolTotalsFromBin(util::BinReader& in);

}  // namespace vanet::analysis
