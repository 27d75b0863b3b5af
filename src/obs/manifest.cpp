#include "obs/manifest.h"

#include <fstream>
#include <iterator>

#include "util/file.h"
#include "util/json.h"
#include "util/log.h"

#if __has_include("vanet_build_info.h")
#include "vanet_build_info.h"
#endif
#ifndef VANET_GIT_REV
#define VANET_GIT_REV "unknown"
#endif
#ifndef VANET_BUILD_FLAGS
#define VANET_BUILD_FLAGS "unknown"
#endif

namespace vanet::obs {
namespace {

struct RunIdentity {
  std::string tool;
  std::vector<std::string> args;
};

/// Fallback capture for binaries that never call setRunIdentity(): on
/// Linux the kernel keeps the original argv in /proc/self/cmdline
/// (NUL-separated). Elsewhere the identity simply stays empty.
RunIdentity captureFromProc() {
  RunIdentity id;
#if defined(__linux__)
  std::ifstream in("/proc/self/cmdline", std::ios::binary);
  if (!in) return id;
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  std::size_t begin = 0;
  bool first = true;
  while (begin < raw.size()) {
    std::size_t end = raw.find('\0', begin);
    if (end == std::string::npos) end = raw.size();
    std::string token = raw.substr(begin, end - begin);
    if (first) {
      const auto slash = token.find_last_of('/');
      id.tool = slash == std::string::npos ? token : token.substr(slash + 1);
      first = false;
    } else {
      id.args.push_back(std::move(token));
    }
    begin = end + 1;
  }
#endif
  return id;
}

RunIdentity& identity() {
  static RunIdentity id = captureFromProc();
  return id;
}

struct RunSpecIdentity {
  std::string path;
  std::uint64_t digest = 0;
};

RunSpecIdentity& specIdentity() {
  static RunSpecIdentity spec;
  return spec;
}

/// `digest` as exactly 16 lowercase hex digits -- the sidecar encoding
/// of the spec digest (a JSON number would round through a double).
std::string hexDigest(std::uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xf];
    digest >>= 4;
  }
  return out;
}

}  // namespace

void setRunIdentity(int argc, const char* const* argv) {
  RunIdentity& id = identity();
  id.tool.clear();
  id.args.clear();
  if (argc > 0) {
    std::string tool = argv[0];
    const auto slash = tool.find_last_of('/');
    id.tool = slash == std::string::npos ? tool : tool.substr(slash + 1);
  }
  for (int i = 1; i < argc; ++i) {
    id.args.emplace_back(argv[i]);
  }
}

const std::string& runTool() { return identity().tool; }

const std::vector<std::string>& runArgs() { return identity().args; }

void setRunSpec(const std::string& specPath, std::uint64_t specDigest) {
  specIdentity().path = specPath;
  specIdentity().digest = specDigest;
}

const std::string& runSpecPath() { return specIdentity().path; }

std::uint64_t runSpecDigest() { return specIdentity().digest; }

std::string buildGitRevision() { return VANET_GIT_REV; }

std::string buildFlagsString() { return VANET_BUILD_FLAGS; }

RunManifest manifestForArtifact(const std::string& artifactPath) {
  RunManifest manifest;
  manifest.artifact = artifactPath;
  manifest.tool = runTool();
  manifest.args = runArgs();
  manifest.gitRev = buildGitRevision();
  manifest.buildFlags = buildFlagsString();
  manifest.specPath = runSpecPath();
  manifest.specDigest = runSpecDigest();
  return manifest;
}

std::string manifestJson(const RunManifest& manifest) {
  using json::num;
  using json::quote;
  std::string out = "{\n";
  out += "\"format\":\"vanet-run-manifest\",\n";
  out += "\"version\":1,\n";
  out += "\"artifact\":" + quote(manifest.artifact) + ",\n";
  out += "\"tool\":" + quote(manifest.tool) + ",\n";
  out += "\"args\":[";
  bool first = true;
  for (const std::string& arg : manifest.args) {
    if (!first) out += ",";
    first = false;
    out += quote(arg);
  }
  out += "],\n";
  out += "\"git_rev\":" + quote(manifest.gitRev) + ",\n";
  out += "\"build_flags\":" + quote(manifest.buildFlags) + ",\n";
  out += "\"scenario\":" + quote(manifest.scenario) + ",\n";
  out += "\"master_seed\":" + std::to_string(manifest.masterSeed) + ",\n";
  out += "\"threads\":" + std::to_string(manifest.threads) + ",\n";
  out += "\"shard_index\":" + std::to_string(manifest.shardIndex) + ",\n";
  out += "\"shard_count\":" + std::to_string(manifest.shardCount) + ",\n";
  out += "\"target_ci\":" + num(manifest.targetCi) + ",\n";
  out += "\"target_metric\":" + quote(manifest.targetMetric) + ",\n";
  out += "\"wall_seconds\":" + num(manifest.wallSeconds) + ",\n";
  out += "\"jobs_per_second\":" + num(manifest.jobsPerSecond) + ",\n";
  out += "\"spec_path\":" + quote(manifest.specPath) + ",\n";
  out += "\"spec_digest\":" + quote(hexDigest(manifest.specDigest)) + ",\n";
  out += "\"points\":[";
  first = true;
  for (const ManifestPoint& point : manifest.points) {
    if (!first) out += ",";
    first = false;
    out += "\n {\"grid_index\":" + std::to_string(point.gridIndex) +
           ",\"replications\":" + std::to_string(point.replications) +
           ",\"achieved_ci95\":" + num(point.achievedCi95) + "}";
  }
  out += manifest.points.empty() ? "]\n" : "\n]\n";
  out += "}\n";
  return out;
}

std::string manifestPathFor(const std::string& artifactPath) {
  return artifactPath + ".manifest.json";
}

bool writeManifestSidecar(const RunManifest& manifest) {
  const std::string path = manifestPathFor(manifest.artifact);
  if (util::writeFile(path, manifestJson(manifest))) return true;
  LOG_WARN("cannot write manifest sidecar " << path);
  return false;
}

}  // namespace vanet::obs
