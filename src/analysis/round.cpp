#include "analysis/round.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "mobility/mobility_model.h"
#include "obs/counters.h"
#include "util/assert.h"

namespace vanet::analysis {
namespace {

std::unique_ptr<channel::FadingModel> makeFading(const ChannelConfig& config) {
  if (config.nakagamiM > 0.0) {
    return std::make_unique<channel::NakagamiFading>(config.nakagamiM);
  }
  if (config.ricianK < 0.0) return std::make_unique<channel::NoFading>();
  if (config.ricianK == 0.0) return std::make_unique<channel::RayleighFading>();
  return std::make_unique<channel::RicianFading>(config.ricianK);
}

/// Accumulates one car's protocol counters into the totals.
void addCounters(ProtocolTotals& totals, const carq::CarqCounters& c,
                 std::size_t buffered) {
  totals.requestsPerRound.add(static_cast<double>(c.requestsSent));
  totals.requestSeqsPerRound.add(static_cast<double>(c.requestSeqsSent));
  totals.coopDataPerRound.add(static_cast<double>(c.coopDataSent));
  totals.suppressedPerRound.add(static_cast<double>(c.responsesSuppressed));
  totals.hellosPerRound.add(static_cast<double>(c.hellosSent));
  totals.bufferedPerRound.add(static_cast<double>(buffered));
}

/// Urban corner blocking: loss grows with distance off the covered
/// street (the covered street is the y ~ 0 edge of the lap). Null when
/// obstruction is disabled.
std::function<double(geom::Vec2)> urbanObstruction(
    const ChannelConfig& channel) {
  const double halfWidth = channel.streetHalfWidthMetres;
  const double slope = channel.obstructionDbPerMetre;
  const double cap = channel.obstructionCapDb;
  if (slope <= 0.0) return nullptr;
  return [halfWidth, slope, cap](geom::Vec2 pos) {
    const double off = std::max(0.0, pos.y - halfWidth);
    return std::min(cap, slope * off);
  };
}

std::vector<NodeId> platoonIds(int carCount) {
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(carCount));
  for (int i = 0; i < carCount; ++i) {
    ids.push_back(static_cast<NodeId>(i + 1));
  }
  return ids;
}

}  // namespace

std::unique_ptr<channel::CompositeLinkModel> buildLinkModel(
    const geom::Polyline& road, const ChannelConfig& config, Rng rng,
    std::function<double(geom::Vec2)> obstruction) {
  auto infraLoss = std::make_unique<channel::LogDistancePathLoss>(
      config.infraPathLossExponent, config.infraReferenceLossDb);
  auto c2cLoss = std::make_unique<channel::LogDistancePathLoss>(
      config.c2cPathLossExponent, config.c2cReferenceLossDb);
  std::unique_ptr<channel::ShadowingProvider> shadowing =
      std::make_unique<channel::CorrelatedRoadShadowing>(
          road, config.shadowing, rng.child("shadowing"));
  if (obstruction != nullptr) {
    shadowing = std::make_unique<channel::ObstructedShadowing>(
        std::move(shadowing), std::move(obstruction));
  }
  auto model = std::make_unique<channel::CompositeLinkModel>(
      std::move(infraLoss), std::move(c2cLoss), std::move(shadowing),
      makeFading(config), config.budget);
  if (config.burst.has_value()) {
    model->enableBurstOverlay(*config.burst, rng.child("burst"));
  }
  return model;
}

// ----------------------------------------------------------------- urban

UrbanRoundWorld::UrbanRoundWorld(const UrbanExperimentConfig& config,
                                 const mobility::UrbanLoopScenario& scenario,
                                 int roundIndex)
    : config_(config),
      roundRng_(Rng{config.seed}
                    .child("urban-run")
                    .child(static_cast<std::uint64_t>(roundIndex))),
      round_(scenario.makeRound(roundIndex)),
      link_(buildLinkModel(round_.path, config_.channel,
                           roundRng_.child("link"),
                           urbanObstruction(config_.channel))),
      environment_(sim_, *link_, roundRng_.child("medium")),
      apMobility_(round_.apPosition),
      apNode_(sim_, environment_, kFirstApId, &apMobility_,
              mac::RadioConfig{config_.apTxPowerDbm}, mac::MacConfig{},
              roundRng_.child("ap")),
      carIds_(platoonIds(config_.scenario.carCount)),
      trace_(carIds_) {
  net::InfostationConfig apConfig;
  apConfig.flows = carIds_;
  apConfig.packetsPerSecondPerFlow = config_.packetsPerSecondPerFlow;
  apConfig.payloadBytes = config_.payloadBytes;
  apConfig.mode = config_.carq.phyMode;
  apConfig.start = round_.flowStart;
  apConfig.stop = round_.flowStop;
  apConfig.repeatCount = config_.repeatCount;
  infostation_ = std::make_unique<net::InfostationServer>(
      apNode_, apConfig,
      [this](FlowId flow, SeqNo seq, int copy, sim::SimTime at) {
        trace_.recordApTx(flow, seq, copy, at);
      });

  carNodes_.reserve(carIds_.size());
  agents_.reserve(carIds_.size());
  for (std::size_t i = 0; i < carIds_.size(); ++i) {
    const NodeId carId = carIds_[i];
    carNodes_.push_back(std::make_unique<net::Node>(
        sim_, environment_, carId, round_.cars[i].get(),
        mac::RadioConfig{config_.carTxPowerDbm}, mac::MacConfig{},
        roundRng_.child("car-node").child(static_cast<std::uint64_t>(carId))));
    auto agent = std::make_unique<carq::CarqAgent>(
        *carNodes_.back(), config_.carq,
        roundRng_.child("agent").child(static_cast<std::uint64_t>(carId)));
    agent->hooks().onOverhearData = [this, carId](FlowId flow, SeqNo seq,
                                                  sim::SimTime at) {
      trace_.recordOverhear(carId, flow, seq, at);
    };
    agent->hooks().onRecovered = [this, carId](SeqNo seq, sim::SimTime at) {
      trace_.recordRecovered(carId, seq, at);
    };
    agents_.push_back(std::move(agent));
  }
}

void UrbanRoundWorld::simulate() {
  infostation_->start();
  for (auto& agent : agents_) {
    agent->start();
  }
  sim_.runUntil(round_.roundEnd);
}

UrbanRoundOutcome UrbanRoundWorld::takeOutcome() {
  ProtocolTotals totals;
  for (auto& agent : agents_) {
    addCounters(totals, agent->counters(), agent->store().bufferedCount());
  }
  totals.medium.merge(environment_.stats());
  return UrbanRoundOutcome{std::move(trace_), std::move(totals)};
}

UrbanRoundOutcome runUrbanRound(const UrbanExperimentConfig& config,
                                const mobility::UrbanLoopScenario& scenario,
                                int roundIndex) {
  // World build vs round kernel split out so the obs timers can tell
  // setup cost from simulation cost (the worlds are non-movable, hence
  // the optional).
  std::optional<UrbanRoundWorld> world;
  {
    OBS_SCOPED_TIMER("round.build");
    world.emplace(config, scenario, roundIndex);
  }
  OBS_SCOPED_TIMER("round.kernel");
  world->simulate();
  return world->takeOutcome();
}

// --------------------------------------------------------------- highway

HighwayRoundWorld::HighwayRoundWorld(const HighwayExperimentConfig& config,
                                     const mobility::HighwayScenario& scenario,
                                     int roundIndex)
    : config_(config),
      roundRng_(Rng{config.seed}
                    .child("highway-run")
                    .child(static_cast<std::uint64_t>(roundIndex))),
      round_(scenario.makeRound(roundIndex)),
      link_(buildLinkModel(round_.path, config_.channel,
                           roundRng_.child("link"))),
      environment_(sim_, *link_, roundRng_.child("medium")),
      carIds_(platoonIds(config_.scenario.carCount)),
      trace_(carIds_) {
  // --- access points along the road ---
  for (std::size_t a = 0; a < round_.apPositions.size(); ++a) {
    apMobilities_.push_back(
        std::make_unique<mobility::StaticMobility>(round_.apPositions[a]));
    apNodes_.push_back(std::make_unique<net::Node>(
        sim_, environment_, kFirstApId + static_cast<NodeId>(a),
        apMobilities_.back().get(), mac::RadioConfig{config_.apTxPowerDbm},
        mac::MacConfig{}, roundRng_.child("ap").child(a)));
    net::InfostationConfig apConfig;
    apConfig.flows = carIds_;
    apConfig.packetsPerSecondPerFlow = config_.packetsPerSecondPerFlow;
    apConfig.payloadBytes = config_.payloadBytes;
    apConfig.mode = config_.carq.phyMode;
    // Stagger AP schedules a little so co-channel APs do not beat.
    apConfig.start = sim::SimTime::millis(7.0 * static_cast<double>(a));
    apConfig.stop = round_.roundEnd;
    apConfig.cycleLength = config_.carq.fileSizeSeqs;  // 0 = plain stream
    if (apConfig.cycleLength > 0) {
      // Stagger the content phase across infostations so consecutive
      // passes serve complementary slices of the file.
      apConfig.firstSeq =
          1 + static_cast<SeqNo>(
                  (static_cast<long>(a) * apConfig.cycleLength) /
                  static_cast<long>(round_.apPositions.size()));
    }
    infostations_.push_back(std::make_unique<net::InfostationServer>(
        *apNodes_.back(), apConfig,
        [this](FlowId flow, SeqNo seq, int copy, sim::SimTime at) {
          trace_.recordApTx(flow, seq, copy, at);
        }));
  }

  // --- cars ---
  for (std::size_t i = 0; i < carIds_.size(); ++i) {
    const NodeId carId = carIds_[i];
    carNodes_.push_back(std::make_unique<net::Node>(
        sim_, environment_, carId, round_.cars[i].get(),
        mac::RadioConfig{config_.carTxPowerDbm}, mac::MacConfig{},
        roundRng_.child("car-node").child(static_cast<std::uint64_t>(carId))));
    auto agent = std::make_unique<carq::CarqAgent>(
        *carNodes_.back(), config_.carq,
        roundRng_.child("agent").child(static_cast<std::uint64_t>(carId)));
    agent->hooks().onOverhearData = [this, carId](FlowId flow, SeqNo seq,
                                                  sim::SimTime at) {
      trace_.recordOverhear(carId, flow, seq, at);
    };
    agent->hooks().onRecovered = [this, carId](SeqNo seq, sim::SimTime at) {
      trace_.recordRecovered(carId, seq, at);
    };
    agent->hooks().onEnterReception = [this, carId](NodeId ap, sim::SimTime) {
      progress_[carId].apsContacted.insert(ap);
    };
    agent->hooks().onFileComplete = [this, carId](sim::SimTime at) {
      progress_[carId].visitsAtComplete =
          static_cast<int>(progress_[carId].apsContacted.size());
      progress_[carId].completeAt = at;
    };
    agents_.push_back(std::move(agent));
  }
}

void HighwayRoundWorld::simulate() {
  for (auto& infostation : infostations_) {
    infostation->start();
  }
  for (auto& agent : agents_) {
    agent->start();
  }
  sim_.runUntil(round_.roundEnd);
}

HighwayRoundOutcome HighwayRoundWorld::takeOutcome() {
  ProtocolTotals totals;
  for (auto& agent : agents_) {
    addCounters(totals, agent->counters(), agent->store().bufferedCount());
  }
  totals.medium.merge(environment_.stats());
  std::vector<HighwayCarRound> cars;
  cars.reserve(carIds_.size());
  for (const NodeId carId : carIds_) {
    const CarProgress& p = progress_[carId];
    HighwayCarRound record;
    record.car = carId;
    record.visitsAtComplete = p.visitsAtComplete;
    record.completeAtSeconds = p.completeAt.toSeconds();
    cars.push_back(record);
  }
  return HighwayRoundOutcome{std::move(trace_), std::move(totals),
                             std::move(cars)};
}

HighwayRoundOutcome runHighwayRound(const HighwayExperimentConfig& config,
                                    const mobility::HighwayScenario& scenario,
                                    int roundIndex) {
  std::optional<HighwayRoundWorld> world;
  {
    OBS_SCOPED_TIMER("round.build");
    world.emplace(config, scenario, roundIndex);
  }
  OBS_SCOPED_TIMER("round.kernel");
  world->simulate();
  return world->takeOutcome();
}

}  // namespace vanet::analysis
