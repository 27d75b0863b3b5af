#include "runner/registry.h"

#include <sstream>
#include <stdexcept>

#include "util/assert.h"

namespace vanet::runner {

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    detail::registerBuiltinScenarios(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::add(ScenarioInfo info) {
  VANET_ASSERT(!info.name.empty(), "scenario name must not be empty");
  VANET_ASSERT(info.run != nullptr, "scenario must have a run function");
  VANET_ASSERT(scenarios_.count(info.name) == 0,
               "scenario name already registered");
  scenarios_.emplace(info.name, std::move(info));
}

const ScenarioInfo* ScenarioRegistry::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it != scenarios_.end() ? &it->second : nullptr;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(scenarios_.size());
  for (const auto& [name, info] : scenarios_) {
    out.push_back(name);
  }
  return out;
}

ParamSet ScenarioRegistry::defaults(const std::string& name) const {
  const ScenarioInfo* info = find(name);
  if (info == nullptr) {
    throw std::invalid_argument("unknown scenario \"" + name +
                                "\" (registered: " + registeredScenarioList() +
                                ")");
  }
  ParamSet params;
  for (const ParamSpec& spec : info->params) {
    params.set(spec.name, spec.defaultValue);
  }
  return params;
}

std::string registeredScenarioList() {
  std::string out;
  for (const std::string& name : ScenarioRegistry::global().names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string renderScenarioList() {
  std::ostringstream out;
  for (const std::string& name : ScenarioRegistry::global().names()) {
    const ScenarioInfo& info = *ScenarioRegistry::global().find(name);
    out << info.name << ": " << info.description << "\n";
    if (!info.defaultTargetMetric.empty()) {
      out << "  default target metric: " << info.defaultTargetMetric << "\n";
    }
    if (!info.defaultEmit.empty()) {
      out << "  default emit:";
      for (const std::string& kind : info.defaultEmit) out << " " << kind;
      out << "\n";
    }
    for (const ParamSpec& param : info.params) {
      out << "    " << param.name << " = " << param.defaultValue;
      if (!param.help.empty()) out << "  " << param.help;
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace vanet::runner
