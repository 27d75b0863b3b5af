/// \file scenarios.cpp
/// Built-in scenarios of the campaign engine, adapting the analysis-layer
/// experiment drivers to the registry's (params, seed) -> JobResult shape.
/// Parameter names are the one vocabulary every spec shares:
///
///   common    rounds, cars, speed_kmh, coop
///   PHY/rate  phy (0=DSSS-1M 1=DSSS-2M 2=CCK-5.5M 3=CCK-11M), payload,
///             pkts_per_s, duty_frames (> 0 derives pkts_per_s from a
///             constant channel duty of that many 1 Mbps reference
///             frames/s, split across the platoon's flows)
///   channel   c2c_ref_loss, c2c_exponent (C2C link quality knobs)
///   protocol  selection (0=all-one-hop 1=best-rssi 2=random-k),
///             max_coop, batched, batch, gossip, fc
///   urban     repeat, gap_seconds
///   highway   aps, spacing, first_ap_arc, road_length, gap_seconds
///   highway_file  file (packets per car; aps/spacing as above)
///
/// The adapters reject values the models cannot run -- a count below 1,
/// a non-positive speed, rate or urban headway, APs that do not fit on
/// the road -- with a std::invalid_argument naming the param and the value,
/// before any model is built. The model asserts stay as internal
/// invariants.

#include <iterator>
#include <stdexcept>

#include "analysis/experiment.h"
#include "mac/airtime.h"
#include "runner/registry.h"
#include "util/json.h"

namespace vanet::runner {

channel::PhyMode phyModeFromParam(int index) {
  static constexpr channel::PhyMode kPhyModes[] = {
      channel::PhyMode::kDsss1Mbps, channel::PhyMode::kDsss2Mbps,
      channel::PhyMode::kCck5_5Mbps, channel::PhyMode::kCck11Mbps};
  const int count = static_cast<int>(std::size(kPhyModes));
  if (index < 0 || index >= count) {
    throw std::invalid_argument("phy must be in [0, " +
                                std::to_string(count - 1) + "], got " +
                                std::to_string(index));
  }
  return kPhyModes[index];
}

namespace {

[[noreturn]] void rejectParam(const std::string& name, const std::string& rule,
                              double value) {
  throw std::invalid_argument(name + " must be " + rule + ", got " +
                              json::num(value));
}

/// A count param that must be at least 1 (cars, rounds, APs, ...).
int countParam(const ParamSet& params, const std::string& name,
               int fallback) {
  const int value = params.getInt(name, fallback);
  if (value < 1) rejectParam(name, ">= 1", value);
  return value;
}

/// A param that must be > 0 (speeds, rates, headways, exponents).
double positiveParam(const ParamSet& params, const std::string& name,
                     double fallback) {
  const double value = params.get(name, fallback);
  if (!(value > 0.0)) rejectParam(name, "> 0", value);
  return value;
}

/// The ParamSpecs shared by every scenario beyond rounds/cars/speed:
/// PHY mode, packet rate, C2C channel quality and protocol policies.
std::vector<ParamSpec> commonParamSpecs() {
  return {
      {"coop", 1, "C-ARQ cooperation on/off"},
      {"phy", 0, "AP/C2C PHY mode: 0=DSSS-1M 1=DSSS-2M 2=CCK-5.5M 3=CCK-11M"},
      {"payload", 1000, "data payload, bytes"},
      {"pkts_per_s", 5, "packets per second per flow"},
      {"duty_frames", 0,
       "> 0: derive pkts_per_s from a constant duty of this many 1 Mbps "
       "reference frames/s"},
      {"c2c_ref_loss", 40, "car-to-car reference loss, dB"},
      {"c2c_exponent", 2.4, "car-to-car path-loss exponent"},
      {"selection", 0,
       "cooperator selection: 0=all-one-hop 1=best-rssi 2=random-k"},
      {"max_coop", 8, "cooperator cap for the capped policies"},
      {"batched", 0, "batched REQUEST mode"},
      {"batch", 32, "max seqs per batched REQUEST"},
      {"gossip", 0, "window-gossip extension"},
      {"fc", 0, "frame combining"},
  };
}

/// Applies the common PHY / channel / protocol params to an experiment's
/// carq + channel configs plus its packet-rate fields. Every set is
/// gated on has(): when a campaign resolves the registered defaults the
/// spec values land here, and a hand-built JobContext (tests, direct
/// scenario calls) genuinely keeps the experiment-config defaults for
/// absent params — the specs never silently shadow them. `carCount` is
/// the resolved platoon size (the constant-duty rate splits across
/// flows).
template <typename ExperimentConfig>
void applyCommonParams(const JobContext& job, int carCount,
                       ExperimentConfig& config) {
  if (job.params.has("coop")) {
    config.carq.cooperationEnabled = job.params.getBool("coop", true);
  }
  if (job.params.has("phy")) {
    config.carq.phyMode = phyModeFromParam(job.params.getInt("phy", 0));
  }
  if (job.params.has("payload")) {
    config.payloadBytes = job.params.getInt("payload", 0);
  }
  if (job.params.has("pkts_per_s")) {
    config.packetsPerSecondPerFlow =
        positiveParam(job.params, "pkts_per_s", 0.0);
  }
  const double dutyFrames = job.params.get("duty_frames", 0.0);
  if (dutyFrames > 0.0) {
    // Constant channel duty: the AP spends the airtime of `dutyFrames`
    // 1 Mbps reference frames per second, shared across the flows; faster
    // modes therefore offer proportionally more packets.
    const double referenceDuty =
        dutyFrames * mac::frameAirtime(channel::PhyMode::kDsss1Mbps,
                                       config.payloadBytes)
                         .toSeconds();
    config.packetsPerSecondPerFlow =
        referenceDuty /
        (static_cast<double>(carCount) *
         mac::frameAirtime(config.carq.phyMode, config.payloadBytes)
             .toSeconds());
  }
  if (job.params.has("c2c_ref_loss")) {
    config.channel.c2cReferenceLossDb = job.params.get("c2c_ref_loss", 0.0);
  }
  if (job.params.has("c2c_exponent")) {
    config.channel.c2cPathLossExponent =
        positiveParam(job.params, "c2c_exponent", 0.0);
  }
  if (job.params.has("selection")) {
    switch (job.params.getInt("selection", 0)) {
      case 0:
        config.carq.selection = carq::SelectionPolicy::kAllOneHop;
        break;
      case 1:
        config.carq.selection = carq::SelectionPolicy::kBestRssi;
        break;
      case 2:
        config.carq.selection = carq::SelectionPolicy::kRandomK;
        break;
      default:
        throw std::invalid_argument("selection must be 0, 1 or 2");
    }
  }
  if (job.params.has("max_coop")) {
    config.carq.maxCooperators = job.params.getInt("max_coop", 0);
  }
  if (job.params.has("batched")) {
    config.carq.requestMode = job.params.getBool("batched", false)
                                  ? carq::RequestMode::kBatched
                                  : carq::RequestMode::kPerPacket;
  }
  if (job.params.has("batch")) {
    config.carq.maxBatchSeqs = countParam(job.params, "batch", 0);
  }
  if (job.params.has("gossip")) {
    config.carq.gossipWindowExtension = job.params.getBool("gossip", false);
  }
  if (job.params.has("fc")) {
    config.carq.frameCombining = job.params.getBool("fc", false);
  }
}

analysis::UrbanExperimentConfig urbanConfig(const JobContext& job) {
  analysis::UrbanExperimentConfig config;
  config.rounds = countParam(job.params, "rounds", 30);
  config.seed = job.seed;
  config.scenario.carCount = countParam(job.params, "cars", 3);
  config.scenario.baseSpeedMps =
      positiveParam(job.params, "speed_kmh", 20.0) / 3.6;
  config.scenario.gapSeconds =
      positiveParam(job.params, "gap_seconds", config.scenario.gapSeconds);
  config.repeatCount = countParam(job.params, "repeat", 1);
  applyCommonParams(job, config.scenario.carCount, config);
  return config;
}

analysis::HighwayExperimentConfig highwayConfig(const JobContext& job) {
  analysis::HighwayExperimentConfig config;
  config.rounds = countParam(job.params, "rounds", 15);
  config.seed = job.seed;
  config.scenario.carCount = countParam(job.params, "cars", 3);
  config.scenario.speedMps = positiveParam(job.params, "speed_kmh", 80.0) / 3.6;
  config.scenario.apCount = countParam(job.params, "aps", 1);
  config.scenario.apSpacing =
      job.params.get("spacing", config.scenario.apSpacing);
  config.scenario.firstApArc =
      job.params.get("first_ap_arc", config.scenario.firstApArc);
  // The highway model clamps each car's headway, so any gap_seconds runs.
  config.scenario.gapSeconds =
      job.params.get("gap_seconds", config.scenario.gapSeconds);
  // road_length <= 0 auto-sizes the road to cover every AP plus run-out.
  const double lastApArc =
      config.scenario.firstApArc +
      config.scenario.apSpacing * (config.scenario.apCount - 1);
  const double roadLength = job.params.get("road_length", 0.0);
  if (roadLength > 0.0 && roadLength < lastApArc) {
    rejectParam("road_length",
                "<= 0 (auto-size) or reach the last AP at " +
                    json::num(lastApArc),
                roadLength);
  }
  config.scenario.roadLengthMetres =
      roadLength > 0.0 ? roadLength : lastApArc + 500.0;
  applyCommonParams(job, config.scenario.carCount, config);
  return config;
}

/// Fleet-mean Table 1 metrics plus the lead car's columns (the platoon
/// studies read car 1, the sweeps read the fleet average).
void addTable1Metrics(const trace::Table1Data& table1,
                      std::map<std::string, double>& metrics) {
  if (table1.rows.empty()) return;
  double tx = 0.0;
  double before = 0.0;
  double after = 0.0;
  double joint = 0.0;
  double delivered = 0.0;
  for (const trace::Table1Row& row : table1.rows) {
    tx += row.txByAp.mean();
    before += row.pctLostBefore.mean();
    after += row.pctLostAfter.mean();
    joint += row.pctLostJoint.mean();
    delivered += row.txByAp.mean() - row.lostAfter.mean();
  }
  const auto cars = static_cast<double>(table1.rows.size());
  metrics["tx_by_ap"] = tx / cars;
  metrics["pct_lost_before"] = before / cars;
  metrics["pct_lost_after"] = after / cars;
  metrics["pct_lost_joint"] = joint / cars;
  // Unique packets the car holds after all repair (the goodput proxy of
  // the retransmission and bit-rate studies).
  metrics["delivered"] = delivered / cars;
  // Fleet-mean packet delivery ratio after cooperation, as a fraction:
  // the headline Monte-Carlo mean the paper reports with CI95 bands, and
  // the default target of adaptive (CI-stopped) campaigns.
  metrics["pdr"] = 1.0 - joint / cars / 100.0;
  const trace::Table1Row& car1 = table1.rows.front();
  metrics["car1_pct_lost_before"] = car1.pctLostBefore.mean();
  metrics["car1_pct_lost_after"] = car1.pctLostAfter.mean();
  metrics["car1_pct_lost_joint"] = car1.pctLostJoint.mean();
}

void addProtocolMetrics(const analysis::ProtocolTotals& totals,
                        std::map<std::string, double>& metrics) {
  metrics["requests_per_round"] = totals.requestsPerRound.mean();
  metrics["coop_data_per_round"] = totals.coopDataPerRound.mean();
  metrics["suppressed_per_round"] = totals.suppressedPerRound.mean();
  metrics["buffered_per_round"] = totals.bufferedPerRound.mean();
}

JobResult runUrban(const JobContext& job) {
  analysis::UrbanExperiment experiment(urbanConfig(job));
  analysis::UrbanExperimentResult result = experiment.run();
  JobResult out;
  out.table1 = result.table1;
  out.figures = std::move(result.figures);
  out.totals = result.totals;
  out.rounds = result.rounds;
  addTable1Metrics(out.table1, out.metrics);
  addProtocolMetrics(out.totals, out.metrics);
  return out;
}

JobResult runHighway(const JobContext& job) {
  analysis::HighwayExperiment experiment(highwayConfig(job));
  const analysis::HighwayExperimentResult result = experiment.run();
  JobResult out;
  out.table1 = result.table1;
  out.totals = result.totals;
  out.rounds = result.rounds;
  addTable1Metrics(out.table1, out.metrics);
  addProtocolMetrics(out.totals, out.metrics);
  return out;
}

JobResult runHighwayFile(const JobContext& job) {
  analysis::HighwayExperimentConfig config = highwayConfig(job);
  config.rounds = job.params.getInt("rounds", 10);
  config.carq.fileSizeSeqs =
      static_cast<SeqNo>(countParam(job.params, "file", 220));
  analysis::HighwayExperiment experiment(config);
  const analysis::HighwayExperimentResult result = experiment.run();
  JobResult out;
  out.table1 = result.table1;
  out.totals = result.totals;
  out.rounds = result.rounds;
  RunningStats visits;
  RunningStats seconds;
  int completed = 0;
  int attempts = 0;
  for (const auto& [car, carResult] : result.cars) {
    completed += carResult.completedRounds;
    attempts += config.rounds;
    visits.merge(carResult.apVisitsToComplete);
    seconds.merge(carResult.timeToCompleteSeconds);
  }
  out.metrics["completed_rounds"] = completed;
  out.metrics["attempted_rounds"] = attempts;
  out.metrics["completed_fraction"] =
      attempts > 0 ? static_cast<double>(completed) / attempts : 0.0;
  out.metrics["ap_visits"] = visits.mean();
  out.metrics["time_to_complete_s"] = seconds.mean();
  addProtocolMetrics(out.totals, out.metrics);
  return out;
}

/// `specific` followed by the common PHY/channel/protocol specs.
std::vector<ParamSpec> withCommonSpecs(std::vector<ParamSpec> specific) {
  for (ParamSpec& spec : commonParamSpecs()) {
    specific.push_back(std::move(spec));
  }
  return specific;
}

}  // namespace

namespace detail {

void registerBuiltinScenarios(ScenarioRegistry& registry) {
  registry.add(ScenarioInfo{
      "urban",
      "The paper's testbed: a platoon laps the Figure-2 urban loop past a "
      "window-mounted AP (Table 1, Figures 3-8).",
      withCommonSpecs({
          {"rounds", 30, "experiment rounds (laps)"},
          {"cars", 3, "platoon size"},
          {"speed_kmh", 20, "platoon base speed"},
          {"gap_seconds", 4, "nominal inter-car headway"},
          {"repeat", 1, "AP blind retransmissions"},
      }),
      runUrban,
      /*defaultTargetMetric=*/"pdr",
      // The urban loop is the Table 1 testbed: spec-driven runs without
      // an emit list get the per-point Table 1 CSV alongside the summary.
      /*defaultEmit=*/{"campaign_csv", "campaign_json", "table1_csv"}});
  registry.add(ScenarioInfo{
      "highway",
      "Drive-thru: a platoon passes roadside infostations at speed "
      "(Ott & Kutscher style single-AP sweeps).",
      withCommonSpecs({
          {"rounds", 15, "experiment rounds (passes)"},
          {"cars", 3, "platoon size"},
          {"speed_kmh", 80, "platoon speed"},
          {"aps", 1, "infostation count"},
          {"spacing", 1000, "infostation spacing, metres"},
          {"first_ap_arc", 1200, "arc position of the first AP"},
          {"road_length", 2400, "road length; <= 0 auto-sizes"},
          {"gap_seconds", 1.5, "inter-car headway"},
      }),
      runHighway,
      /*defaultTargetMetric=*/"pdr"});
  registry.add(ScenarioInfo{
      "highway_file",
      "Infostation file download (paper section 6): each car completes an "
      "F-packet file across multiple AP visits.",
      withCommonSpecs({
          {"rounds", 10, "experiment rounds"},
          {"cars", 3, "platoon size"},
          {"speed_kmh", 50, "platoon speed"},
          {"aps", 8, "infostation count"},
          {"spacing", 700, "infostation spacing, metres"},
          {"first_ap_arc", 500, "arc position of the first AP"},
          {"road_length", 0, "road length; <= 0 auto-sizes"},
          {"gap_seconds", 1.5, "inter-car headway"},
          {"file", 220, "file size, packets per car"},
      }),
      runHighwayFile,
      /*defaultTargetMetric=*/"completed_fraction"});
}

}  // namespace detail
}  // namespace vanet::runner
