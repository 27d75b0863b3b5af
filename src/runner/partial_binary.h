#pragma once

/// \file partial_binary.h
/// Campaign-partial format v3, the one encoding shard partials and
/// checkpoints use (versions 1 and 2 were JSON and are rejected).
///
/// Wire layout (everything little-endian fixed-width; util/binio.h):
///
///   magic    8 bytes  "VNETPART"
///   version  u32      3
///   sections u32      section count N
///   table    N x { id u32, flags u32 (0), offset u64, length u64 }
///   payload  the sections, in table order: HEADER, [CHECKPOINT], POINTS
///   checksum u64      FNV-1a 64 over every preceding byte
///
/// HEADER carries the campaign identity (scenario, master seed, shard,
/// replication cap, adaptive stop rule, grid/job totals, point count).
/// CHECKPOINT (optional) carries the wave-barrier resume state. POINTS
/// holds one length-framed record per grid point, so a damaged record
/// is reported with its index and byte offset. Doubles travel as raw
/// IEEE-754 payloads, so a round trip is bit-exact by construction and
/// merged results reassembled from shards match the single-process run
/// byte for byte.

#include <string>
#include <string_view>

#include "runner/accumulate.h"

namespace vanet::runner {

/// The 8 magic bytes binary partials start with.
inline constexpr char kPartialBinaryMagic[8] = {'V', 'N', 'E', 'T',
                                                'P', 'A', 'R', 'T'};

/// Serializes `partial` to the complete v3 byte stream (checksum
/// included). Deterministic: bit-identical summaries produce identical
/// bytes.
std::string campaignPartialBinary(const CampaignPartial& partial);

/// Parses campaignPartialBinary() output -- the one partial parser;
/// readCampaignPartial() runs it over a whole file. Throws
/// std::runtime_error, and nothing else, on bad magic/version, a
/// malformed section table, a checksum mismatch, a count the bytes left
/// cannot hold, or a truncated/corrupt record -- naming the byte offset
/// of the failure where there is one.
CampaignPartial parseCampaignPartialBinary(std::string_view data);

}  // namespace vanet::runner
