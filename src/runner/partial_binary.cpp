#include "runner/partial_binary.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/serialize.h"
#include "trace/serialize.h"
#include "util/binio.h"

namespace vanet::runner {
namespace {

using util::BinReader;
using util::BinWriter;

constexpr std::uint32_t kSectionHeader = 1;
constexpr std::uint32_t kSectionPoints = 2;
constexpr std::uint32_t kSectionCheckpoint = 3;

/// magic + version + section count.
constexpr std::size_t kProloguePrefix = 8 + 4 + 4;
constexpr std::size_t kTableEntrySize = 4 + 4 + 8 + 8;
constexpr std::size_t kChecksumSize = 8;
/// The u64 length every point record is framed by: the smallest encoded
/// size of a point.
constexpr std::size_t kRecordFramingSize = 8;

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// The bounds buildPlan enforces: a corrupt or hand-edited adaptive
/// header must fail loudly, never feed degenerate wave arithmetic
/// downstream.
void validateAdaptiveHeader(const CampaignPartial& partial) {
  if (partial.targetRelativeCi95 > 0.0 &&
      (partial.minReplications < 1 ||
       partial.maxReplications < partial.minReplications)) {
    throw std::runtime_error(
        "malformed adaptive header: needs 1 <= min_replications <= "
        "max_replications (got " + std::to_string(partial.minReplications) +
        ".." + std::to_string(partial.maxReplications) + ")");
  }
}

void writeHeaderSection(BinWriter& out, const CampaignPartial& partial) {
  out.str(partial.scenario);
  out.u64(partial.masterSeed);
  out.i32(partial.shard.index);
  out.i32(partial.shard.count);
  out.i32(partial.replications);
  out.f64(partial.targetRelativeCi95);
  out.i32(partial.minReplications);
  out.i32(partial.maxReplications);
  out.str(partial.targetMetric);
  out.u64(partial.totalPoints);
  out.u64(partial.totalJobs);
  out.u64(partial.points.size());
}

/// Parses the header section; returns the point-record count.
std::uint64_t parseHeaderSection(BinReader& in, CampaignPartial& partial) {
  partial.scenario = in.str("header scenario");
  partial.masterSeed = in.u64("header master_seed");
  partial.shard.index = in.i32("header shard_index");
  partial.shard.count = in.i32("header shard_count");
  partial.replications = in.i32("header replications");
  partial.targetRelativeCi95 = in.f64("header target_ci");
  partial.minReplications = in.i32("header min_replications");
  partial.maxReplications = in.i32("header max_replications");
  partial.targetMetric = in.str("header target_metric");
  partial.totalPoints = in.u64("header grid_points");
  partial.totalJobs = in.u64("header job_count");
  const std::uint64_t pointCount = in.u64("header point count");
  validateAdaptiveHeader(partial);
  return pointCount;
}

void writeCheckpointSection(BinWriter& out, const CampaignPartial& partial) {
  out.i32(partial.checkpointCoveredReps);
  out.u8(partial.checkpointComplete ? 1 : 0);
}

void parseCheckpointSection(BinReader& in, CampaignPartial& partial) {
  partial.hasCheckpoint = true;
  partial.checkpointCoveredReps = in.i32("checkpoint covered_replications");
  partial.checkpointComplete = in.u8("checkpoint complete flag") != 0;
}

void writePointRecord(BinWriter& out, const GridPointSummary& point) {
  out.u64(point.gridIndex);
  out.str(point.caseName);
  out.i32(point.replications);
  out.i64(point.rounds);
  out.f64(point.achievedCi95);
  out.u32(static_cast<std::uint32_t>(point.params.values().size()));
  for (const auto& [name, value] : point.params.values()) {
    out.str(name);
    out.f64(value);
  }
  trace::table1ToBin(out, point.table1);
  out.u32(static_cast<std::uint32_t>(point.figures.size()));
  for (const auto& [flow, figure] : point.figures) {
    (void)flow;  // the figure serializes its own flow id
    trace::flowFigureToBin(out, figure);
  }
  analysis::protocolTotalsToBin(out, point.totals);
  out.u32(static_cast<std::uint32_t>(point.metrics.size()));
  for (const auto& [name, stats] : point.metrics) {
    out.str(name);
    trace::runningStatsToBin(out, stats);
  }
}

GridPointSummary parsePointRecord(BinReader& in) {
  GridPointSummary point;
  point.gridIndex = static_cast<std::size_t>(in.u64("point grid_index"));
  point.caseName = in.str("point case name");
  point.replications = in.i32("point replications");
  point.rounds = in.i64("point rounds");
  point.achievedCi95 = in.f64("point achieved_ci95");
  const std::uint32_t paramCount = in.u32("point param count");
  for (std::uint32_t p = 0; p < paramCount; ++p) {
    const std::string name = in.str("param name");
    point.params.set(name, in.f64("param value"));
  }
  point.table1 = trace::table1FromBin(in);
  const std::uint32_t figureCount = in.u32("point figure count");
  for (std::uint32_t f = 0; f < figureCount; ++f) {
    trace::FlowFigure figure = trace::flowFigureFromBin(in);
    const FlowId flow = figure.flow;
    point.figures[flow] = std::move(figure);
  }
  point.totals = analysis::protocolTotalsFromBin(in);
  const std::uint32_t metricCount = in.u32("point metric count");
  for (std::uint32_t m = 0; m < metricCount; ++m) {
    const std::string name = in.str("metric name");
    point.metrics[name] = trace::runningStatsFromBin(in);
  }
  if (!in.atEnd()) {
    throw std::runtime_error("trailing bytes at byte offset " +
                             std::to_string(in.offset()) +
                             " after point record");
  }
  return point;
}

/// Parses the fixed prologue (magic, version, section count -- the first
/// kProloguePrefix bytes) and returns the section count.
std::uint32_t parsePrologue(BinReader& in) {
  char magic[8];
  in.need(sizeof magic, "magic");
  for (char& byte : magic) {
    byte = static_cast<char>(in.u8("magic"));
  }
  if (std::memcmp(magic, kPartialBinaryMagic, sizeof magic) != 0) {
    throw std::runtime_error("not a binary campaign partial (bad magic)");
  }
  const std::uint32_t version = in.u32("format version");
  if (version != static_cast<std::uint32_t>(CampaignPartial::kBinaryVersion)) {
    throw std::runtime_error(
        "unsupported binary campaign partial version " +
        std::to_string(version) + " (supported: " +
        std::to_string(CampaignPartial::kBinaryVersion) + ")");
  }
  const std::uint32_t sectionCount = in.u32("section count");
  if (sectionCount == 0 || sectionCount > 16) {
    throw std::runtime_error("implausible section count " +
                             std::to_string(sectionCount) +
                             " at byte offset 12");
  }
  return sectionCount;
}

/// Parses the `sectionCount` table entries that follow the prologue.
std::vector<SectionEntry> parseSectionTable(BinReader& in,
                                            std::uint32_t sectionCount) {
  std::vector<SectionEntry> table(sectionCount);
  for (SectionEntry& entry : table) {
    entry.id = in.u32("section id");
    (void)in.u32("section flags");  // reserved, must round-trip as written
    entry.offset = in.u64("section offset");
    entry.length = in.u64("section length");
  }
  return table;
}

/// Section-table sanity: offsets must tile the payload region
/// [payloadStart, payloadEnd) in order, gap-free.
void validateSectionTable(const std::vector<SectionEntry>& table,
                          std::size_t payloadStart, std::size_t payloadEnd) {
  std::size_t cursor = payloadStart;
  for (std::size_t s = 0; s < table.size(); ++s) {
    const SectionEntry& entry = table[s];
    if (entry.id != kSectionHeader && entry.id != kSectionPoints &&
        entry.id != kSectionCheckpoint) {
      throw std::runtime_error("unknown section id " +
                               std::to_string(entry.id) + " in section table");
    }
    if (entry.offset != cursor) {
      throw std::runtime_error(
          "section table entry " + std::to_string(s) + " claims byte offset " +
          std::to_string(entry.offset) + ", expected " +
          std::to_string(cursor));
    }
    if (entry.length > payloadEnd - cursor) {
      throw std::runtime_error(
          "truncated: section " + std::to_string(entry.id) +
          " at byte offset " + std::to_string(entry.offset) +
          " overruns the file (length " + std::to_string(entry.length) +
          ", " + std::to_string(payloadEnd - cursor) +
          " bytes before checksum)");
    }
    cursor += entry.length;
  }
  if (table.front().id != kSectionHeader) {
    throw std::runtime_error("first section must be the header");
  }
  if (table.back().id != kSectionPoints) {
    throw std::runtime_error("last section must be the points");
  }
  if (cursor != payloadEnd) {
    throw std::runtime_error(
        "trailing bytes: the section table covers " +
        std::to_string(cursor - payloadStart) + " payload bytes, file has " +
        std::to_string(payloadEnd - payloadStart));
  }
}

}  // namespace

std::string campaignPartialBinary(const CampaignPartial& partial) {
  BinWriter header;
  writeHeaderSection(header, partial);
  BinWriter checkpoint;
  if (partial.hasCheckpoint) {
    writeCheckpointSection(checkpoint, partial);
  }
  BinWriter points;
  for (const GridPointSummary& point : partial.points) {
    BinWriter record;
    writePointRecord(record, point);
    points.u64(record.size());  // length framing per record
    points.raw(record.buffer().data(), record.size());
  }

  const std::uint32_t sectionCount = partial.hasCheckpoint ? 3 : 2;
  const std::size_t tableSize = sectionCount * kTableEntrySize;
  std::uint64_t offset = kProloguePrefix + tableSize;

  BinWriter out;
  out.raw(kPartialBinaryMagic, sizeof kPartialBinaryMagic);
  out.u32(static_cast<std::uint32_t>(CampaignPartial::kBinaryVersion));
  out.u32(sectionCount);
  const auto tableEntry = [&out, &offset](std::uint32_t id,
                                          const BinWriter& payload) {
    out.u32(id);
    out.u32(0);  // flags, reserved
    out.u64(offset);
    out.u64(payload.size());
    offset += payload.size();
  };
  tableEntry(kSectionHeader, header);
  if (partial.hasCheckpoint) tableEntry(kSectionCheckpoint, checkpoint);
  tableEntry(kSectionPoints, points);

  out.raw(header.buffer().data(), header.size());
  if (partial.hasCheckpoint) {
    out.raw(checkpoint.buffer().data(), checkpoint.size());
  }
  out.raw(points.buffer().data(), points.size());
  out.u64(util::fnv1a64(out.buffer().data(), out.size()));
  return out.take();
}

CampaignPartial parseCampaignPartialBinary(std::string_view data) {
  BinReader prologue(data);
  const std::vector<SectionEntry> table =
      parseSectionTable(prologue, parsePrologue(prologue));
  if (data.size() < prologue.offset() + kChecksumSize) {
    throw std::runtime_error("truncated at byte offset " +
                             std::to_string(data.size()) +
                             ": no room for the trailing checksum");
  }
  validateSectionTable(table, prologue.offset(), data.size() - kChecksumSize);
  const std::uint64_t expected = util::fnv1a64(
      data.data(), data.size() - kChecksumSize);
  BinReader trailer(data.substr(data.size() - kChecksumSize),
                    data.size() - kChecksumSize);
  const std::uint64_t stored = trailer.u64("file checksum");
  if (stored != expected) {
    throw std::runtime_error("checksum mismatch: file is corrupt (stored " +
                             std::to_string(stored) + ", computed " +
                             std::to_string(expected) + ")");
  }

  CampaignPartial partial;
  std::uint64_t pointCount = 0;
  for (const SectionEntry& entry : table) {
    BinReader in(data.substr(entry.offset, entry.length), entry.offset);
    switch (entry.id) {
      case kSectionHeader:
        pointCount = parseHeaderSection(in, partial);
        break;
      case kSectionCheckpoint:
        parseCheckpointSection(in, partial);
        break;
      case kSectionPoints: {
        in.needCount(pointCount, kRecordFramingSize, "header point count");
        partial.points.reserve(static_cast<std::size_t>(pointCount));
        for (std::uint64_t k = 0; k < pointCount; ++k) {
          try {
            const std::uint64_t recordLen = in.u64("point record length");
            const std::size_t recordOffset = in.offset();
            BinReader record(in.view(recordLen, "point record"), recordOffset);
            partial.points.push_back(parsePointRecord(record));
          } catch (const std::runtime_error& error) {
            throw std::runtime_error("point record " + std::to_string(k + 1) +
                                     " of " + std::to_string(pointCount) +
                                     ": " + error.what());
          }
        }
        if (!in.atEnd()) {
          throw std::runtime_error(
              "trailing bytes at byte offset " + std::to_string(in.offset()) +
              " after the last point record");
        }
        break;
      }
      default:
        break;  // unreachable: validateSectionTable rejected unknown ids
    }
  }
  return partial;
}

}  // namespace vanet::runner
