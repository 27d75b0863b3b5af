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
/// holds one length-framed record per grid point -- the framing is what
/// lets readers stream records through a bounded buffer and report the
/// byte offset of a damaged record. Doubles travel as raw IEEE-754
/// payloads, so a round trip is bit-exact by construction and merged
/// results reassembled from shards match the single-process run byte
/// for byte.

#include <cstddef>
#include <cstdio>
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

/// Parses campaignPartialBinary() output. Throws std::runtime_error on
/// bad magic/version, a malformed section table, a checksum mismatch, or
/// a truncated/corrupt record -- always naming the byte offset of the
/// failure.
CampaignPartial parseCampaignPartialBinary(std::string_view data);

/// Streams one binary partial file: the header (and checkpoint trailer)
/// parse up front, then points decode one at a time through a bounded
/// read buffer whose peak size is the largest single point record --
/// never the whole points section. The running checksum is verified
/// after the last record; a mismatch throws from nextPoint().
class PartialBinaryFileReader {
 public:
  /// Opens `path` and reads everything up to the first point record.
  /// Throws std::runtime_error (message prefixed with the path) on I/O
  /// or format errors.
  explicit PartialBinaryFileReader(const std::string& path);
  ~PartialBinaryFileReader();

  PartialBinaryFileReader(const PartialBinaryFileReader&) = delete;
  PartialBinaryFileReader& operator=(const PartialBinaryFileReader&) = delete;

  /// Campaign identity + checkpoint trailer; `points` is always empty
  /// (they stream through nextPoint). sourcePath is set to the file.
  const CampaignPartial& header() const noexcept { return header_; }

  /// Points still to be streamed.
  std::size_t remainingPoints() const noexcept { return remaining_; }

  /// Decodes the next point record into `out`. Returns false once every
  /// record was consumed (the trailing checksum is verified exactly
  /// then). Throws on truncation, corruption, or checksum mismatch.
  bool nextPoint(GridPointSummary& out);

 private:
  void fail(const std::string& message) const;
  void readExact(void* into, std::size_t size, const char* what);

  std::string path_;
  std::FILE* file_ = nullptr;
  CampaignPartial header_;
  std::size_t remaining_ = 0;   ///< point records left to stream
  std::size_t streamed_ = 0;    ///< point records already decoded
  std::size_t fileOffset_ = 0;  ///< bytes consumed so far
  std::uint64_t runningHash_;   ///< FNV-1a over every byte before checksum
  std::string recordBuf_;       ///< reusable per-record buffer
};

}  // namespace vanet::runner
