#include "runner/plan.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "util/text.h"

namespace vanet::runner {
namespace {

bool declares(const ScenarioInfo& scenario, const std::string& name) {
  for (const ParamSpec& spec : scenario.params) {
    if (spec.name == name) return true;
  }
  return false;
}

[[noreturn]] void rejectUndeclared(const ScenarioInfo& scenario,
                                   const std::string& name,
                                   const std::string& where) {
  std::vector<std::string> declared;
  for (const ParamSpec& spec : scenario.params) declared.push_back(spec.name);
  std::string message = "scenario \"" + scenario.name +
                        "\" declares no param \"" + name + "\" (" + where +
                        ")";
  const std::string hint = util::nearestName(name, declared);
  if (!hint.empty()) message += "; did you mean \"" + hint + "\"?";
  throw std::invalid_argument(message);
}

/// Rejects any param name the campaign sets that `scenario` does not
/// declare: an undeclared (typo'd) name would otherwise run the defaults
/// silently and still land as a column in the emitted CSV.
void requireDeclaredParams(const CampaignConfig& config,
                           const ScenarioInfo& scenario) {
  for (const auto& [name, value] : config.base.values()) {
    if (!declares(scenario, name)) rejectUndeclared(scenario, name, "base");
  }
  for (const CampaignCase& campaignCase : config.cases) {
    for (const auto& [name, value] : campaignCase.overrides.values()) {
      if (!declares(scenario, name)) {
        rejectUndeclared(scenario, name,
                         "case \"" + campaignCase.name + "\"");
      }
    }
  }
  for (const SweepAxis& axis : config.grid.axes()) {
    if (!declares(scenario, axis.name)) {
      rejectUndeclared(scenario, axis.name, "grid axis");
    }
  }
}

}  // namespace

JobSpec CampaignPlan::pointJob(std::size_t pointIndex,
                               int replication) const {
  JobSpec job;
  job.pointIndex = pointIndex;
  job.replication = replication;
  // Grid-major layout over the *full* campaign: job seeds depend only on
  // (masterSeed, global index), so a shard runs exactly the streams the
  // unsharded run would -- and an adaptive point that stops early ran
  // exactly the stream prefix the fixed-count run would have.
  job.globalIndex = pointIndex * static_cast<std::size_t>(replications_) +
                    static_cast<std::size_t>(replication);
  job.seed = Rng::deriveStreamSeed(masterSeed_, job.globalIndex);
  return job;
}

JobSpec CampaignPlan::shardJob(std::size_t localIndex) const {
  const auto replications = static_cast<std::size_t>(replications_);
  return pointJob(shardPoints_[localIndex / replications],
                  static_cast<int>(localIndex % replications));
}

int waveEndFor(int minReplications, int cap, int wave) noexcept {
  // min * 2^wave without overflow: doubling past the cap saturates.
  long long end = minReplications;
  for (int k = 0; k < wave && end < cap; ++k) end *= 2;
  return static_cast<int>(std::min<long long>(end, cap));
}

int CampaignPlan::waveEndReplication(int wave) const noexcept {
  if (!adaptive()) return replications_;
  return waveEndFor(minReplications_, replications_, wave);
}

CampaignPlan buildPlan(const CampaignConfig& config) {
  const ScenarioInfo* scenario =
      ScenarioRegistry::global().find(config.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario: \"" + config.scenario +
                                "\" (registered: " + registeredScenarioList() +
                                ")");
  }
  requireDeclaredParams(config, *scenario);
  const bool adaptive = config.targetRelativeCi95 > 0.0;
  if (adaptive) {
    if (config.minReplications < 1 ||
        config.maxReplications < config.minReplications) {
      throw std::invalid_argument(
          "adaptive campaign needs 1 <= minReplications <= maxReplications "
          "(got " +
          std::to_string(config.minReplications) + ".." +
          std::to_string(config.maxReplications) + ")");
    }
  } else if (config.replications < 1) {
    throw std::invalid_argument("campaign needs replications >= 1");
  }
  if (config.shard.count < 1 || config.shard.index < 0 ||
      config.shard.index >= config.shard.count) {
    throw std::invalid_argument(
        "campaign shard must satisfy 0 <= index < count (got " +
        std::to_string(config.shard.index) + "/" +
        std::to_string(config.shard.count) + ")");
  }

  CampaignPlan plan;
  plan.scenario_ = scenario;
  plan.masterSeed_ = config.masterSeed;
  plan.replications_ = adaptive ? config.maxReplications : config.replications;
  plan.targetRelativeCi95_ = adaptive ? config.targetRelativeCi95 : 0.0;
  plan.minReplications_ = adaptive ? config.minReplications : 1;
  if (adaptive) {
    plan.targetMetric_ = config.targetMetric.empty()
                             ? scenario->defaultTargetMetric
                             : config.targetMetric;
    if (plan.targetMetric_.empty()) {
      throw std::invalid_argument(
          "adaptive campaign needs a target metric: scenario \"" +
          config.scenario +
          "\" declares no default, set CampaignConfig::targetMetric");
    }
  }
  plan.shard_ = config.shard;

  // Resolve every grid point up front: scenario defaults, then the
  // campaign base, then the case overrides, then the axis values of the
  // point. Cases vary slowest, so the point list reads case-major.
  ParamSet base = ScenarioRegistry::global().defaults(config.scenario);
  base.apply(config.base);
  if (config.cases.empty()) {
    for (ParamSet& point : config.grid.expand(base)) {
      PlannedPoint planned;
      planned.gridIndex = plan.points_.size();
      planned.params = std::move(point);
      plan.points_.push_back(std::move(planned));
    }
  } else {
    for (const CampaignCase& campaignCase : config.cases) {
      ParamSet caseBase = base;
      caseBase.apply(campaignCase.overrides);
      for (ParamSet& point : config.grid.expand(caseBase)) {
        PlannedPoint planned;
        planned.gridIndex = plan.points_.size();
        planned.caseName = campaignCase.name;
        planned.params = std::move(point);
        plan.points_.push_back(std::move(planned));
      }
    }
  }

  // Round-robin point partition: shard s owns points {p : p % count == s}.
  // Whole points, so every point's job-order fold happens inside one
  // shard; round-robin keeps shards balanced when cost varies along an
  // axis (e.g. a speed sweep where slow speeds simulate longest).
  for (std::size_t p = static_cast<std::size_t>(plan.shard_.index);
       p < plan.points_.size();
       p += static_cast<std::size_t>(plan.shard_.count)) {
    plan.shardPoints_.push_back(p);
  }
  return plan;
}

}  // namespace vanet::runner
