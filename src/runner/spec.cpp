#include "runner/spec.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "analysis/csv.h"
#include "runner/emit.h"
#include "runner/registry.h"
#include "util/binio.h"
#include "util/file.h"
#include "util/json.h"
#include "util/text.h"

namespace vanet::runner {
namespace {

using json::quote;

[[noreturn]] void specError(const std::string& message) {
  throw std::runtime_error("campaign spec: " + message);
}

const char* describe(const json::Value& value) {
  switch (value.type()) {
    case json::Value::Type::Null:
      return "null";
    case json::Value::Type::Bool:
      return "a bool";
    case json::Value::Type::Number:
      return "a number";
    case json::Value::Type::String:
      return "a string";
    case json::Value::Type::Array:
      return "an array";
    case json::Value::Type::Object:
      return "an object";
  }
  return "an unknown value";
}

[[noreturn]] void typeError(const std::string& key, const std::string& expected,
                            const json::Value& got) {
  specError("key \"" + key + "\": expected " + expected + ", got " +
            describe(got));
}

/// Rejects `key` naming the closest legal key when one is within editing
/// distance — the spec-file analogue of the flag parser's did-you-mean.
[[noreturn]] void unknownKey(const std::string& context, const std::string& key,
                             const std::vector<std::string>& known) {
  std::string message = "unknown key \"" + key + "\"" + context;
  const std::string hint = util::nearestName(key, known);
  if (!hint.empty()) message += " (did you mean \"" + hint + "\"?)";
  specError(message);
}

std::string stringField(const json::Value& value, const std::string& key) {
  if (value.type() != json::Value::Type::String) {
    typeError(key, "a string", value);
  }
  return value.asString();
}

std::string nonEmptyStringField(const json::Value& value,
                                const std::string& key) {
  if (value.type() != json::Value::Type::String || value.asString().empty()) {
    typeError(key, "a non-empty string", value);
  }
  return value.asString();
}

double numberField(const json::Value& value, const std::string& key) {
  if (value.type() != json::Value::Type::Number) {
    typeError(key, "a number", value);
  }
  return value.asDouble();
}

std::int64_t intField(const json::Value& value, const std::string& key) {
  if (value.type() != json::Value::Type::Number) {
    typeError(key, "an integer", value);
  }
  try {
    return value.asInt64();
  } catch (const std::exception&) {
    typeError(key, "an integer", value);
  }
}

std::uint64_t uintField(const json::Value& value, const std::string& key) {
  if (value.type() != json::Value::Type::Number) {
    typeError(key, "an unsigned integer", value);
  }
  try {
    return value.asUInt64();
  } catch (const std::exception&) {
    typeError(key, "an unsigned integer", value);
  }
}

/// A replication count: an integer in [1, INT_MAX], range-checked before
/// the narrowing to int so that 4294967297 cannot run as 1.
int replicationsField(const json::Value& value, const std::string& key) {
  const std::int64_t count = intField(value, key);
  if (count < 1 || count > std::numeric_limits<int>::max()) {
    specError("key \"" + key + "\": expected an integer in [1, " +
              std::to_string(std::numeric_limits<int>::max()) + "], got " +
              std::to_string(count));
  }
  return static_cast<int>(count);
}

/// `{param: number, ...}` with duplicate names rejected.
ParamSet paramsField(const json::Value& value, const std::string& key) {
  if (value.type() != json::Value::Type::Object) {
    typeError(key, "an object of {param: number}", value);
  }
  ParamSet params;
  for (const auto& [name, entry] : value.asObject()) {
    if (name.empty()) specError("key \"" + key + "\": empty parameter name");
    if (params.has(name)) {
      specError("key \"" + key + "\": duplicate parameter \"" + name + "\"");
    }
    params.set(name, numberField(entry, key + "." + name));
  }
  return params;
}

/// Every object member must be one of `known` (sorted); returns the
/// member map with duplicates rejected.
std::vector<std::pair<std::string, const json::Value*>> checkedMembers(
    const json::Value& object, const std::string& context,
    const std::vector<std::string>& known) {
  std::vector<std::pair<std::string, const json::Value*>> members;
  for (const auto& [key, value] : object.asObject()) {
    if (!std::binary_search(known.begin(), known.end(), key)) {
      unknownKey(context, key, known);
    }
    for (const auto& [seen, unused] : members) {
      if (seen == key) {
        specError("duplicate key \"" + key + "\"" + context);
      }
    }
    members.emplace_back(key, &value);
  }
  return members;
}

const json::Value* memberOrNull(
    const std::vector<std::pair<std::string, const json::Value*>>& members,
    const std::string& key) {
  for (const auto& [name, value] : members) {
    if (name == key) return value;
  }
  return nullptr;
}

/// `{"target_ci": ..., "min_replications": ..., "max_replications": ...,
/// "metric": ...}` onto the spec's flattened adaptive fields.
void parseAdaptive(const json::Value& value, CampaignSpec& spec) {
  static const std::vector<std::string> kKeys = {
      "max_replications", "metric", "min_replications", "target_ci"};
  if (value.type() != json::Value::Type::Object) {
    typeError("adaptive", "null or an object", value);
  }
  const auto members = checkedMembers(value, " in \"adaptive\"", kKeys);
  const json::Value* targetCi = memberOrNull(members, "target_ci");
  if (targetCi == nullptr) {
    specError("key \"adaptive\": missing required key \"target_ci\" "
              "(a number > 0)");
  }
  spec.targetCi = numberField(*targetCi, "adaptive.target_ci");
  if (spec.targetCi <= 0.0) {
    specError("key \"adaptive.target_ci\": expected a number > 0, got " +
              json::num(spec.targetCi));
  }
  if (const json::Value* minReps = memberOrNull(members, "min_replications")) {
    spec.minReplications =
        replicationsField(*minReps, "adaptive.min_replications");
  }
  if (const json::Value* maxReps = memberOrNull(members, "max_replications")) {
    spec.maxReplications =
        replicationsField(*maxReps, "adaptive.max_replications");
  }
  if (spec.maxReplications < spec.minReplications) {
    specError(
        "key \"adaptive\": need 1 <= min_replications <= max_replications, "
        "got " +
        std::to_string(spec.minReplications) + ".." +
        std::to_string(spec.maxReplications));
  }
  if (const json::Value* metric = memberOrNull(members, "metric")) {
    spec.targetMetric = stringField(*metric, "adaptive.metric");
  }
}

void parseCases(const json::Value& value, CampaignSpec& spec) {
  static const std::vector<std::string> kKeys = {"name", "overrides"};
  if (value.type() != json::Value::Type::Array) {
    typeError("cases", "an array of {name, overrides}", value);
  }
  for (std::size_t i = 0; i < value.asArray().size(); ++i) {
    const std::string context = "cases[" + std::to_string(i) + "]";
    const json::Value& entry = value.asArray()[i];
    if (entry.type() != json::Value::Type::Object) {
      typeError(context, "an object {name, overrides}", entry);
    }
    const auto members = checkedMembers(entry, " in \"" + context + "\"", kKeys);
    const json::Value* name = memberOrNull(members, "name");
    if (name == nullptr) {
      specError("key \"" + context +
                "\": missing required key \"name\" (a non-empty string)");
    }
    CampaignCase campaignCase;
    campaignCase.name = nonEmptyStringField(*name, context + ".name");
    for (const CampaignCase& seen : spec.cases) {
      if (seen.name == campaignCase.name) {
        specError("key \"" + context + ".name\": duplicate case name \"" +
                  campaignCase.name + "\"");
      }
    }
    if (const json::Value* overrides = memberOrNull(members, "overrides")) {
      campaignCase.overrides = paramsField(*overrides, context + ".overrides");
    }
    spec.cases.push_back(std::move(campaignCase));
  }
}

void parseGrid(const json::Value& value, CampaignSpec& spec) {
  static const std::vector<std::string> kKeys = {"axis", "values"};
  if (value.type() != json::Value::Type::Array) {
    typeError("grid", "an array of {axis, values}", value);
  }
  for (std::size_t i = 0; i < value.asArray().size(); ++i) {
    const std::string context = "grid[" + std::to_string(i) + "]";
    const json::Value& entry = value.asArray()[i];
    if (entry.type() != json::Value::Type::Object) {
      typeError(context, "an object {axis, values}", entry);
    }
    const auto members = checkedMembers(entry, " in \"" + context + "\"", kKeys);
    const json::Value* axis = memberOrNull(members, "axis");
    if (axis == nullptr) {
      specError("key \"" + context +
                "\": missing required key \"axis\" (a non-empty string)");
    }
    const std::string axisName = nonEmptyStringField(*axis, context + ".axis");
    for (const SweepAxis& seen : spec.grid.axes()) {
      if (seen.name == axisName) {
        specError("key \"" + context + ".axis\": duplicate axis \"" +
                  axisName + "\"");
      }
    }
    const json::Value* values = memberOrNull(members, "values");
    if (values == nullptr || values->type() != json::Value::Type::Array ||
        values->asArray().empty()) {
      specError("key \"" + context +
                ".values\": expected a non-empty array of numbers");
    }
    std::vector<double> axisValues;
    axisValues.reserve(values->asArray().size());
    for (std::size_t v = 0; v < values->asArray().size(); ++v) {
      axisValues.push_back(
          numberField(values->asArray()[v],
                      context + ".values[" + std::to_string(v) + "]"));
    }
    spec.grid.add(axisName, std::move(axisValues));
  }
}

void parseEmits(const json::Value& value, CampaignSpec& spec) {
  static const std::vector<std::string> kKeys = {"kind", "name"};
  if (value.type() != json::Value::Type::Array) {
    typeError("emit", "an array of {kind, name}", value);
  }
  for (std::size_t i = 0; i < value.asArray().size(); ++i) {
    const std::string context = "emit[" + std::to_string(i) + "]";
    const json::Value& entry = value.asArray()[i];
    if (entry.type() != json::Value::Type::Object) {
      typeError(context, "an object {kind, name}", entry);
    }
    const auto members = checkedMembers(entry, " in \"" + context + "\"", kKeys);
    const json::Value* kind = memberOrNull(members, "kind");
    if (kind == nullptr) {
      specError("key \"" + context + "\": missing required key \"kind\"");
    }
    SpecEmit emit;
    emit.kind = nonEmptyStringField(*kind, context + ".kind");
    const std::vector<std::string>& kinds = specEmitKinds();
    if (!std::binary_search(kinds.begin(), kinds.end(), emit.kind)) {
      std::string message = "key \"" + context + ".kind\": unknown emit kind \"" +
                            emit.kind + "\"";
      const std::string hint = util::nearestName(emit.kind, kinds);
      if (!hint.empty()) message += " (did you mean \"" + hint + "\"?)";
      specError(message);
    }
    if (const json::Value* name = memberOrNull(members, "name")) {
      emit.name = nonEmptyStringField(*name, context + ".name");
    }
    spec.emits.push_back(std::move(emit));
  }
}

/// `{"cars": 3, "rounds": 10}` — inline, sorted by name (ParamSet order).
std::string renderParams(const ParamSet& params) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : params.values()) {
    if (!first) out += ", ";
    first = false;
    out += quote(name) + ": " + json::num(value);
  }
  out += "}";
  return out;
}

}  // namespace

const std::vector<std::string>& specEmitKinds() {
  static const std::vector<std::string> kinds = {"campaign_csv",
                                                 "campaign_json", "figures",
                                                 "table1_csv"};  // sorted
  return kinds;
}

CampaignSpec parseCampaignSpec(const std::string& text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& error) {
    specError(std::string("malformed JSON: ") + error.what());
  }
  if (doc.type() != json::Value::Type::Object) {
    specError(std::string("expected a JSON object at the top level, got ") +
              describe(doc));
  }
  static const std::vector<std::string> kTopKeys = {
      "adaptive", "base",         "cases",    "emit", "format",
      "grid",     "name",         "paper_ref", "replications",
      "scenario", "seed",         "title",    "version"};
  const auto members = checkedMembers(doc, "", kTopKeys);
  const auto require = [&](const char* key,
                           const char* expected) -> const json::Value& {
    const json::Value* value = memberOrNull(members, key);
    if (value == nullptr) {
      specError(std::string("missing required key \"") + key + "\" (" +
                expected + ")");
    }
    return *value;
  };

  const std::string format =
      stringField(require("format", "the string \"vanet-campaign-spec\""),
                  "format");
  if (format != kCampaignSpecFormat) {
    specError("key \"format\": expected \"" +
              std::string(kCampaignSpecFormat) + "\", got \"" + format + "\"");
  }
  const std::int64_t version =
      intField(require("version", "the number 1"), "version");
  if (version != kCampaignSpecVersion) {
    specError("key \"version\": expected " +
              std::to_string(kCampaignSpecVersion) +
              " (the only vanet-campaign-spec version), got " +
              std::to_string(version));
  }

  CampaignSpec spec;
  spec.name = nonEmptyStringField(require("name", "a non-empty string"),
                                  "name");
  spec.scenario = nonEmptyStringField(
      require("scenario", "a non-empty string"), "scenario");
  if (const json::Value* title = memberOrNull(members, "title")) {
    spec.title = stringField(*title, "title");
  }
  if (const json::Value* paperRef = memberOrNull(members, "paper_ref")) {
    spec.paperRef = stringField(*paperRef, "paper_ref");
  }
  if (const json::Value* seed = memberOrNull(members, "seed")) {
    spec.seed = uintField(*seed, "seed");
  }
  if (const json::Value* replications = memberOrNull(members, "replications")) {
    spec.replications = replicationsField(*replications, "replications");
  }
  if (const json::Value* base = memberOrNull(members, "base")) {
    spec.base = paramsField(*base, "base");
  }
  if (const json::Value* cases = memberOrNull(members, "cases")) {
    parseCases(*cases, spec);
  }
  if (const json::Value* grid = memberOrNull(members, "grid")) {
    parseGrid(*grid, spec);
  }
  if (const json::Value* adaptive = memberOrNull(members, "adaptive")) {
    if (!adaptive->isNull()) parseAdaptive(*adaptive, spec);
  }
  if (const json::Value* emit = memberOrNull(members, "emit")) {
    parseEmits(*emit, spec);
  }
  // Emit names default to the spec name: the normalized form always
  // materializes them, so parse(render(spec)) == spec.
  for (SpecEmit& emit : spec.emits) {
    if (emit.name.empty()) emit.name = spec.name;
  }
  return spec;
}

CampaignSpec loadCampaignSpec(const std::string& path) {
  const std::string text = util::readFile(path);  // names the path itself
  try {
    return parseCampaignSpec(text);
  } catch (const std::exception& error) {
    throw std::runtime_error(path + ": " + error.what());
  }
}

std::string renderCampaignSpec(const CampaignSpec& spec) {
  std::string out = "{\n";
  out += "  \"format\": " + quote(kCampaignSpecFormat) + ",\n";
  out += "  \"version\": " + std::to_string(kCampaignSpecVersion) + ",\n";
  out += "  \"name\": " + quote(spec.name) + ",\n";
  out += "  \"title\": " + quote(spec.title) + ",\n";
  out += "  \"paper_ref\": " + quote(spec.paperRef) + ",\n";
  out += "  \"scenario\": " + quote(spec.scenario) + ",\n";
  out += "  \"seed\": " + std::to_string(spec.seed) + ",\n";
  out += "  \"replications\": " + std::to_string(spec.replications) + ",\n";
  out += "  \"base\": " + renderParams(spec.base) + ",\n";
  if (spec.cases.empty()) {
    out += "  \"cases\": [],\n";
  } else {
    out += "  \"cases\": [\n";
    for (std::size_t i = 0; i < spec.cases.size(); ++i) {
      out += "    {\"name\": " + quote(spec.cases[i].name) +
             ", \"overrides\": " + renderParams(spec.cases[i].overrides) +
             "}";
      out += i + 1 < spec.cases.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
  }
  if (spec.grid.axisCount() == 0) {
    out += "  \"grid\": [],\n";
  } else {
    out += "  \"grid\": [\n";
    const std::vector<SweepAxis>& axes = spec.grid.axes();
    for (std::size_t i = 0; i < axes.size(); ++i) {
      out += "    {\"axis\": " + quote(axes[i].name) + ", \"values\": [";
      for (std::size_t v = 0; v < axes[i].values.size(); ++v) {
        if (v > 0) out += ", ";
        out += json::num(axes[i].values[v]);
      }
      out += "]}";
      out += i + 1 < axes.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
  }
  if (spec.targetCi <= 0.0) {
    out += "  \"adaptive\": null,\n";
  } else {
    out += "  \"adaptive\": {\"target_ci\": " + json::num(spec.targetCi) +
           ", \"min_replications\": " + std::to_string(spec.minReplications) +
           ", \"max_replications\": " + std::to_string(spec.maxReplications) +
           ", \"metric\": " + quote(spec.targetMetric) + "},\n";
  }
  if (spec.emits.empty()) {
    out += "  \"emit\": []\n";
  } else {
    out += "  \"emit\": [\n";
    for (std::size_t i = 0; i < spec.emits.size(); ++i) {
      out += "    {\"kind\": " + quote(spec.emits[i].kind) +
             ", \"name\": " + quote(spec.emits[i].name) + "}";
      out += i + 1 < spec.emits.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
  }
  out += "}\n";
  return out;
}

std::uint64_t campaignSpecDigest(const CampaignSpec& spec) {
  const std::string normalized = renderCampaignSpec(spec);
  return util::fnv1a64(normalized.data(), normalized.size());
}

CampaignConfig campaignConfigFromSpec(const CampaignSpec& spec) {
  CampaignConfig config;
  config.scenario = spec.scenario;
  config.masterSeed = spec.seed;
  config.replications = spec.replications;
  config.base = spec.base;
  config.cases = spec.cases;
  config.grid = spec.grid;
  if (spec.targetCi > 0.0) {
    config.targetRelativeCi95 = spec.targetCi;
    config.minReplications = spec.minReplications;
    config.maxReplications = spec.maxReplications;
    config.targetMetric = spec.targetMetric;
  }
  return config;
}

void applyEngineFlags(const CampaignRunFlags& run, CampaignConfig& config) {
  config.threads = run.threads;
  config.shard = Shard{run.shard.index, run.shard.count};
  config.progress = run.progress;
  config.checkpointPath = run.checkpoint;
  config.resume = run.resume;
  config.haltAfterWaves = run.haltAfterWaves;
}

std::vector<SpecEmit> resolvedEmits(const CampaignSpec& spec) {
  if (!spec.emits.empty()) return spec.emits;
  const ScenarioInfo* scenario =
      ScenarioRegistry::global().find(spec.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument(
        "cannot resolve default emits: unknown scenario \"" + spec.scenario +
        "\" (registered: " + registeredScenarioList() + ")");
  }
  std::vector<SpecEmit> emits;
  emits.reserve(scenario->defaultEmit.size());
  for (const std::string& kind : scenario->defaultEmit) {
    emits.push_back(SpecEmit{kind, spec.name});
  }
  return emits;
}

bool writeSpecArtifacts(const CampaignSpec& spec, const CampaignResult& result,
                        const std::string& dir,
                        std::vector<std::string>& written) {
  for (const SpecEmit& emit : resolvedEmits(spec)) {
    if (emit.kind == "campaign_csv") {
      const std::string path = dir + "/" + emit.name + "_campaign.csv";
      if (!writeCampaignCsv(path, result)) return false;
      written.push_back(path);
    } else if (emit.kind == "campaign_json") {
      const std::string path = dir + "/" + emit.name + "_campaign.json";
      if (!writeCampaignJson(path, result)) return false;
      written.push_back(path);
    } else if (emit.kind == "table1_csv") {
      for (const GridPointSummary& point : result.points) {
        std::string path = dir + "/" + emit.name;
        if (result.points.size() > 1) {
          path += "_p" + std::to_string(point.gridIndex);
        }
        path += ".csv";
        if (!analysis::writeTable1Csv(path, point.table1)) return false;
        writeCampaignArtifactManifest(path, result);
        written.push_back(path);
      }
    } else if (emit.kind == "figures") {
      std::size_t expected = 0;
      for (const GridPointSummary& point : result.points) {
        expected += point.figures.size();
      }
      if (writeCampaignFigureCsvs(dir, emit.name, result, &written) !=
          expected) {
        return false;
      }
    } else {
      // parseCampaignSpec validates kinds; an unknown one here means the
      // spec was built by hand with a kind this build does not know.
      throw std::invalid_argument("unknown emit kind \"" + emit.kind + "\"");
    }
  }
  return true;
}

}  // namespace vanet::runner
