#include "runner/partial_binary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/emit.h"
#include "testing/partial_text.h"
#include "util/binio.h"
#include "util/rng.h"

namespace vanet::runner {
namespace {

CampaignConfig urbanCampaign() {
  CampaignConfig config;
  config.scenario = "urban";
  config.masterSeed = 2008;
  config.replications = 2;
  config.threads = 2;
  config.base.set("rounds", 2);
  config.base.set("cars", 2);
  config.grid.add("speed_kmh", {20.0, 30.0}).add("coop", {0.0, 1.0});
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Recomputes the trailing FNV-1a checksum after the test mutated the
/// payload, so corruption tests hit the *parser* error they target
/// instead of tripping the checksum first.
std::string withFixedChecksum(std::string bytes) {
  const std::uint64_t sum = util::fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

/// Reads the section table of a v3 stream and returns the payload offset
/// of the section with `wantId` (0 when absent).
std::size_t sectionOffset(const std::string& bytes, std::uint32_t wantId) {
  util::BinReader in(bytes);
  for (int i = 0; i < 8; ++i) in.u8("magic");
  in.u32("version");
  const std::uint32_t sections = in.u32("section count");
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = in.u32("id");
    in.u32("flags");
    const std::uint64_t offset = in.u64("offset");
    in.u64("length");
    if (id == wantId) return static_cast<std::size_t>(offset);
  }
  return 0;
}

/// A minimal hand-built partial whose point-record byte layout is fully
/// known to the test (empty case name, no params/figures/metrics).
CampaignPartial syntheticPartial() {
  GridPointSummary point;
  point.gridIndex = 0;
  point.replications = 1;
  point.rounds = 5;
  CampaignPartial partial;
  partial.scenario = "s";
  partial.shard = Shard{0, 1};
  partial.replications = 1;
  partial.totalPoints = 1;
  partial.totalJobs = 1;
  partial.points.push_back(std::move(point));
  return partial;
}

/// The `width`-byte little-endian field at `at`.
std::uint64_t fieldAt(const std::string& bytes, std::size_t at,
                      std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes.at(at + i)))
             << (8 * i);
  }
  return value;
}

/// `bytes` with the `width`-byte little-endian field at `at` set to
/// `value`, checksum recomputed, so the parser judges the field instead
/// of the checksum.
std::string withField(std::string bytes, std::size_t at, std::uint64_t value,
                      std::size_t width) {
  for (std::size_t i = 0; i < width && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  return withFixedChecksum(std::move(bytes));
}

/// One fixed-width integer field of a v3 stream.
struct IntField {
  std::size_t at = 0;
  std::size_t width = 0;  ///< 4 or 8 bytes
};

/// Lists the integer fields of a v3 stream -- the lengths, counts, ids
/// and sample counts an extreme value can turn into an allocation size
/// or a loop bound. Doubles are skipped: every bit pattern is one. Point
/// records are walked through their figures; the protocol totals and
/// metrics after them are skipped.
class IntFieldWalker {
 public:
  explicit IntFieldWalker(const std::string& bytes) : bytes_(bytes) {}

  std::vector<IntField> walk() {
    util::BinReader in(bytes_);
    for (int i = 0; i < 8; ++i) in.u8("magic");
    u32(in);  // version
    const std::uint32_t sections = u32(in);
    std::size_t pointsAt = 0;
    std::size_t pointsLength = 0;
    for (std::uint32_t s = 0; s < sections; ++s) {
      const std::uint32_t id = u32(in);
      u32(in);  // flags
      const std::uint64_t offset = u64(in);
      const std::uint64_t length = u64(in);
      if (id == 2) {
        pointsAt = static_cast<std::size_t>(offset);
        pointsLength = static_cast<std::size_t>(length);
      }
    }
    // Header and checkpoint: every field before the points that is not
    // the target CI double is an integer or a string length.
    str(in);                                // scenario
    u64(in);                                // master seed
    for (int i = 0; i < 3; ++i) u32(in);    // shard index, count, reps
    in.f64("target ci");
    for (int i = 0; i < 2; ++i) u32(in);    // min, max replications
    str(in);                                // target metric
    for (int i = 0; i < 3; ++i) u64(in);    // grid points, jobs, points
    if (in.offset() < pointsAt) u32(in);    // checkpoint covered reps
    util::BinReader points(std::string_view(bytes_).substr(pointsAt,
                                                           pointsLength),
                           pointsAt);
    while (!points.atEnd()) {
      const std::uint64_t length = u64(points);
      util::BinReader record(points.view(length, "record"),
                             points.offset() - length);
      walkRecord(record);
    }
    return std::move(fields_);
  }

 private:
  void walkRecord(util::BinReader& in) {
    u64(in);  // grid index
    str(in);  // case name
    u32(in);  // replications
    u64(in);  // rounds
    in.f64("ci95");
    for (std::uint32_t p = u32(in); p > 0; --p) {
      str(in);
      in.f64("param value");
    }
    u64(in);  // Table 1 rounds
    for (std::uint32_t r = u32(in); r > 0; --r) {
      u32(in);                               // car id
      for (int c = 0; c < 7; ++c) stats(in);  // the seven Table 1 columns
    }
    for (std::uint32_t f = u32(in); f > 0; --f) {
      u32(in);  // flow
      for (std::uint32_t c = u32(in); c > 0; --c) {
        u32(in);  // car id
        series(in);
      }
      series(in);  // after coop
      series(in);  // joint
      stats(in);   // region boundaries
      stats(in);
    }
  }

  std::uint32_t u32(util::BinReader& in) {
    fields_.push_back({in.offset(), 4});
    return in.u32("u32");
  }
  std::uint64_t u64(util::BinReader& in) {
    fields_.push_back({in.offset(), 8});
    return in.u64("u64");
  }
  void str(util::BinReader& in) { in.view(u32(in), "string"); }
  void stats(util::BinReader& in) {
    if (u64(in) > 0) in.view(5 * 8, "moments");
  }
  void series(util::BinReader& in) {
    for (std::uint32_t c = u32(in); c > 0; --c) stats(in);
  }

  const std::string& bytes_;
  std::vector<IntField> fields_;
};

/// One seeded mutation of `bytes`: a bit flip, an extreme value written
/// over one of its integer `fields`, a truncation, or appended bytes.
/// Half of them recompute the checksum so that they reach the section
/// and record parsers.
std::string mutate(const std::string& bytes,
                   const std::vector<IntField>& fields, Rng& rng) {
  static constexpr std::uint64_t kExtremes[2][6] = {
      {0, 1, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff},
      {0, 1ULL << 32, 1ULL << 40, 1ULL << 63, ~0ULL - 7, ~0ULL}};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  std::string out = bytes;
  switch (rng.uniformInt(0, 3)) {
    case 0:
      out[pick(out.size())] ^= static_cast<char>(1 << pick(8));
      break;
    case 1: {
      const IntField field = fields[pick(fields.size())];
      out = withField(out, field.at, kExtremes[field.width / 8][pick(6)],
                      field.width);
      break;
    }
    case 2:
      out.resize(pick(out.size()));
      break;
    default:
      for (std::size_t n = 1 + pick(16); n > 0; --n) {
        out.push_back(static_cast<char>(rng.next()));
      }
      break;
  }
  if (out.size() >= 8 && rng.bernoulli(0.5)) {
    out = withFixedChecksum(std::move(out));
  }
  return out;
}

TEST(PartialBinaryTest, RoundTripIsByteStableAndLossless) {
  const CampaignResult result = runCampaign(urbanCampaign());
  const CampaignPartial partial = campaignPartial(result);
  const std::string bytes = campaignPartialBinary(partial);
  const CampaignPartial parsed = parseCampaignPartialBinary(bytes);
  // serialize -> parse -> serialize reproduces the bytes exactly, and
  // the text rendering of both partials agrees field for field, so the
  // format loses nothing.
  EXPECT_EQ(campaignPartialBinary(parsed), bytes);
  EXPECT_EQ(testing::partialText(parsed), testing::partialText(partial));
  EXPECT_EQ(parsed.totalPoints, 4u);
  EXPECT_EQ(parsed.totalJobs, 8u);
  // The reassembled result emits the same artefacts.
  CampaignResult back = resultFromPartials({parsed});
  EXPECT_EQ(campaignPointsJson(back), campaignPointsJson(result));
  EXPECT_EQ(campaignCsv(back), campaignCsv(result));
}

TEST(PartialBinaryTest, FileRoundTrip) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const CampaignResult result = runCampaign(config);
  const std::string path = ::testing::TempDir() + "/shard0.bin";
  ASSERT_TRUE(writeCampaignPartial(path, campaignPartial(result)));
  EXPECT_EQ(slurp(path).rfind("VNETPART", 0), 0u);
  // sourcePath points back at the file.
  CampaignPartial back = readCampaignPartial(path);
  EXPECT_EQ(back.sourcePath, path);
  back.sourcePath.clear();
  EXPECT_EQ(testing::partialText(back),
            testing::partialText(campaignPartial(result)));
}

TEST(PartialBinaryTest, ZeroPointShardReadsCleanly) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{5, 6};  // more shards than grid points
  const CampaignPartial partial = campaignPartial(runCampaign(config));
  ASSERT_TRUE(partial.points.empty());
  const std::string bytes = campaignPartialBinary(partial);
  EXPECT_EQ(campaignPartialBinary(parseCampaignPartialBinary(bytes)), bytes);
  const std::string path = ::testing::TempDir() + "/empty.bin";
  dump(path, bytes);
  const CampaignPartial back = readCampaignPartial(path);
  EXPECT_TRUE(back.points.empty());
  EXPECT_EQ(back.shard.index, 5);
}

TEST(PartialBinaryTest, ShardFilesMergeByteIdentical) {
  CampaignConfig config = urbanCampaign();
  config.threads = 1;
  const CampaignResult reference = runCampaign(config);

  // 2 shards split the 4 points evenly; 3 shards give shard 0 two points
  // and the others one.
  config.threads = 2;
  for (const int count : {2, 3}) {
    std::vector<std::string> paths;
    for (int shard = 0; shard < count; ++shard) {
      paths.push_back(::testing::TempDir() + "/merge" +
                      std::to_string(shard) + ".bin");
      config.shard = Shard{shard, count};
      ASSERT_TRUE(writeCampaignPartial(paths.back(),
                                       campaignPartial(runCampaign(config))));
    }
    // Shard files given in reverse order: the merge must still be
    // byte-identical to the single-process artefacts.
    std::reverse(paths.begin(), paths.end());
    const CampaignResult merged = resultFromPartialFiles(paths);
    EXPECT_EQ(campaignPointsJson(merged), campaignPointsJson(reference))
        << count;
    EXPECT_EQ(campaignCsv(merged), campaignCsv(reference)) << count;
  }
}

TEST(PartialBinaryTest, RejectsBadMagicAndVersion) {
  try {
    parseCampaignPartialBinary("VNETPARX________");
    FAIL() << "bad magic must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "not a binary campaign partial (bad magic)");
  }
  std::string bytes = campaignPartialBinary(syntheticPartial());
  bytes[8] = 9;  // version u32 lives right after the magic
  try {
    parseCampaignPartialBinary(withFixedChecksum(bytes));
    FAIL() << "future version must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "unsupported binary campaign partial version 9 "
                 "(supported: 3)");
  }
}

TEST(PartialBinaryTest, RejectsMalformedAdaptiveHeader) {
  // An adaptive header with impossible bounds must throw at parse time:
  // downstream wave arithmetic assumes 1 <= min <= max replications.
  CampaignPartial partial = syntheticPartial();
  partial.targetRelativeCi95 = 0.1;
  partial.minReplications = 2;
  partial.maxReplications = 8;
  partial.targetMetric = "m";
  const std::string good = campaignPartialBinary(partial);
  // Header layout: scenario (u32 length + bytes), master seed u64, shard
  // index/count and replications i32, target CI f64, then min and max.
  const std::size_t minAt =
      sectionOffset(good, 1) + 4 + partial.scenario.size() + 8 + 3 * 4 + 8;
  const auto withInt = [&good](std::size_t at, std::int32_t value) {
    std::string bytes = good;
    for (int i = 0; i < 4; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<char>((static_cast<std::uint32_t>(value) >> (8 * i)) &
                            0xff);
    }
    return withFixedChecksum(bytes);
  };
  EXPECT_THROW(parseCampaignPartialBinary(withInt(minAt, 0)),
               std::runtime_error);
  EXPECT_THROW(parseCampaignPartialBinary(withInt(minAt + 4, 1)),
               std::runtime_error);
  // The untouched stream still parses, and rewriting the same values is
  // a no-op (the offsets above point at the real fields).
  EXPECT_NO_THROW(parseCampaignPartialBinary(good));
  EXPECT_EQ(withInt(minAt, 2), good);
  EXPECT_EQ(withInt(minAt + 4, 8), good);
}

TEST(PartialBinaryTest, ChecksumMismatchNamesStoredAndComputed) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::size_t points = sectionOffset(bytes, 2);
  ASSERT_GT(points, 0u);
  // Flip one bit inside the rounds i64 of the first record (framing u64
  // + gridIndex u64 + empty case name u32 + replications i32 deep), so
  // the stream still *decodes* and only the checksum notices.
  bytes[points + 8 + 16 + 4] ^= 0x01;
  try {
    parseCampaignPartialBinary(bytes);
    FAIL() << "bit rot must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("checksum mismatch"),
              std::string::npos)
        << error.what();
  }
  // The same bytes on disk fail by file name.
  const std::string path = ::testing::TempDir() + "/corrupt.bin";
  dump(path, bytes);
  try {
    readCampaignPartial(path);
    FAIL() << "bit rot must not read";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, TruncationNamesByteOffset) {
  const std::string bytes = campaignPartialBinary(syntheticPartial());
  // In memory: the prologue itself is cut short.
  try {
    parseCampaignPartialBinary(bytes.substr(0, 10));
    FAIL() << "truncated prologue must not parse";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("byte offset"),
              std::string::npos)
        << error.what();
  }
  // On disk: the file ends inside the points section; the reader
  // reports the path and the byte offset of the section that ran out.
  const std::string path = ::testing::TempDir() + "/truncated.bin";
  const std::size_t cut = sectionOffset(bytes, 2) + 4;
  dump(path, bytes.substr(0, cut));
  try {
    readCampaignPartial(path);
    FAIL() << "truncated file must not read";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(path + ": truncated: section ", 0), 0u) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST(PartialBinaryTest, CorruptRecordReportsRecordIndexAndOffset) {
  std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::size_t points = sectionOffset(bytes, 2);
  ASSERT_GT(points, 0u);
  // Record layout with an empty case name: gridIndex u64 (8) + case-name
  // length u32 (4) + replications i32 (4) + rounds i64 (8) + ci95 f64 (8)
  // puts the param-count u32 32 bytes into the record; the record itself
  // starts after the u64 length framing.
  const std::size_t paramCount = points + 8 + 32;
  ASSERT_LT(paramCount + 4, bytes.size());
  bytes[paramCount] = static_cast<char>(0xff);  // claim 255 params
  bytes = withFixedChecksum(bytes);
  try {
    parseCampaignPartialBinary(bytes);
    FAIL() << "overlong param table must not parse";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("point record 1 of 1"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated at byte offset"), std::string::npos)
        << what;
  }
  const std::string path = ::testing::TempDir() + "/badrecord.bin";
  dump(path, bytes);
  try {
    readCampaignPartial(path);
    FAIL() << "overlong param table must not read";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(path + ": point record 1 of 1: ", 0), 0u) << what;
  }
}

TEST(PartialBinaryTest, TrailingGarbageAfterChecksumFails) {
  const std::string bytes = campaignPartialBinary(syntheticPartial());
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  dump(path, bytes + "extra");
  try {
    readCampaignPartial(path);
    FAIL() << "appended garbage must not read";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind(path + ": trailing bytes: ", 0), 0u) << what;
  }
}

TEST(PartialBinaryTest, OverstatedCountsFailByNameBeforeAllocating) {
  // One point with one empty figure, so every count the parser reserves
  // from sits at a known offset. Record layout: framing u64, gridIndex
  // u64, empty case name u32, replications i32, rounds i64, ci95 f64,
  // param count u32 (+32), Table 1 rounds i64 and row count u32 (+44),
  // figure count u32, flow i32, rx_by_car count u32, then the after-coop
  // series cell count u32 (+60).
  CampaignPartial partial = syntheticPartial();
  partial.points[0].figures[1].flow = 1;
  const std::string bytes = campaignPartialBinary(partial);
  const std::size_t points = sectionOffset(bytes, 2);
  const std::size_t record = points + 8;
  const std::size_t pointCount = points - 8;  // the header's last field
  // The offsets point at the real fields.
  ASSERT_EQ(fieldAt(bytes, pointCount, 8), 1u);
  ASSERT_EQ(fieldAt(bytes, record + 44, 4), 0u);  // Table 1 rows
  ASSERT_EQ(fieldAt(bytes, record + 48, 4), 1u);  // figures
  ASSERT_EQ(fieldAt(bytes, record + 60, 4), 0u);  // after-coop cells

  struct Case {
    const char* name;
    std::string bytes;
    std::string message;  ///< expected after "<path>: "
  };
  const Case cases[] = {
      {"one_more_point", withField(bytes, pointCount, 2, 8),
       "point record 2 of 2: truncated at byte offset"},
      {"2^40_points", withField(bytes, pointCount, 1ULL << 40, 8),
       "header point count 1099511627776 is implausible at byte offset"},
      {"u32_max_rows", withField(bytes, record + 44, 0xffffffff, 4),
       "point record 1 of 1: table1 row count 4294967295 is implausible "
       "at byte offset"},
      {"u32_max_cells", withField(bytes, record + 60, 0xffffffff, 4),
       "point record 1 of 1: series cell count 4294967295 is implausible "
       "at byte offset"},
  };
  for (const Case& c : cases) {
    const std::string path = ::testing::TempDir() + "/" + c.name + ".bin";
    dump(path, c.bytes);
    try {
      readCampaignPartial(path);
      ADD_FAILURE() << c.name << " must not read";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind(path + ": " + c.message, 0), 0u) << what;
    }
  }
}

TEST(PartialBinaryTest, SeededMutationsReturnOrFailNamingTheFile) {
  // Seeds: a multi-point urban partial with figure series, and a halted
  // (unfinished) wave checkpoint.
  CampaignConfig config = urbanCampaign();
  config.grid = SweepGrid();
  config.grid.add("coop", {0.0, 1.0});
  config.replications = 1;
  config.base.set("rounds", 1);
  config.base.set("pkts_per_s", 1);  // short figure series: small seeds
  std::vector<std::string> seeds = {
      campaignPartialBinary(campaignPartial(runCampaign(config)))};
  config.targetRelativeCi95 = 1e-9;
  config.minReplications = 1;
  config.maxReplications = 2;
  config.checkpointPath = ::testing::TempDir() + "/mutation_seed.ckpt";
  config.haltAfterWaves = 1;
  ASSERT_TRUE(runCampaign(config).halted);
  seeds.push_back(slurp(config.checkpointPath));
  ASSERT_FALSE(parseCampaignPartialBinary(seeds[0]).points[1].figures.empty());
  ASSERT_TRUE(parseCampaignPartialBinary(seeds[1]).hasCheckpoint);

  // The contract for every input: return, or throw a std::runtime_error
  // that names the file. Any other exception fails here; a crash or a
  // sanitizer report fails the test binary.
  Rng rng(2008);
  const std::string path = ::testing::TempDir() + "/mutant.bin";
  int returned = 0;
  int rejected = 0;
  for (const std::string& seed : seeds) {
    const std::vector<IntField> fields = IntFieldWalker(seed).walk();
    for (int i = 0; i < 600; ++i) {
      dump(path, mutate(seed, fields, rng));
      try {
        readCampaignPartial(path);
        ++returned;
      } catch (const std::runtime_error& error) {
        ++rejected;
        const std::string what = error.what();
        EXPECT_EQ(what.rfind(path + ": ", 0), 0u) << "mutant " << i << ": "
                                                  << what;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "mutant " << i << " threw a non-runtime_error: "
                      << error.what();
      }
    }
  }
  // Both outcomes occur: a flipped double under a fixed checksum still
  // parses, most other damage is refused.
  EXPECT_GT(returned, 0);
  EXPECT_GT(rejected, returned);
}

TEST(PartialBinaryTest, MergeErrorsKeepShardContextForBinaryFiles) {
  CampaignConfig config = urbanCampaign();
  config.shard = Shard{0, 2};
  const std::string path = ::testing::TempDir() + "/ctx_shard0.bin";
  ASSERT_TRUE(
      writeCampaignPartial(path, campaignPartial(runCampaign(config))));
  // Shard files keep the "shard i/N from 'file'" merge context of
  // in-memory merges.
  try {
    resultFromPartialFiles({path, path});
    FAIL() << "duplicate shard set must not merge";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 0/2"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vanet::runner
