#pragma once

/// Shared test scaffolding: a simulator + ideal (or configurable) link
/// model + radio environment with statically placed radios, so MAC and
/// protocol tests can exercise real frame exchange without a scenario.

#include <memory>
#include <vector>

#include "channel/link_model.h"
#include "mac/csma.h"
#include "mac/radio.h"
#include "mac/radio_environment.h"
#include "mobility/mobility_model.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vanet::testing {

/// A link model where every link at reasonable distance decodes reliably
/// (free-space-ish losses, no shadowing, no fading).
inline std::unique_ptr<channel::CompositeLinkModel> perfectLinkModel() {
  return std::make_unique<channel::CompositeLinkModel>(
      std::make_unique<channel::LogDistancePathLoss>(2.0, 40.0),
      std::make_unique<channel::LogDistancePathLoss>(2.0, 40.0),
      std::make_unique<channel::NoShadowing>(),
      std::make_unique<channel::NoFading>(), channel::LinkBudget{});
}

/// Simulator + environment + N statically placed radios.
class MediumHarness {
 public:
  explicit MediumHarness(std::unique_ptr<channel::LinkModel> link,
                         std::uint64_t seed = 42)
      : link_(std::move(link)),
        environment_(sim_, *link_, Rng{seed}.child("medium")) {}

  MediumHarness() : MediumHarness(perfectLinkModel()) {}

  /// Adds a radio at a fixed position. Returns its index.
  std::size_t addRadio(NodeId id, geom::Vec2 position,
                       double txPowerDbm = 18.0) {
    mobilities_.push_back(
        std::make_unique<mobility::StaticMobility>(position));
    radios_.push_back(std::make_unique<mac::Radio>(
        sim_, environment_, id, mobilities_.back().get(),
        mac::RadioConfig{txPowerDbm}));
    return radios_.size() - 1;
  }

  /// Destroys radio `i` (it detaches from the environment); the other
  /// radios keep their indices.
  void removeRadio(std::size_t i) { radios_.at(i).reset(); }

  sim::Simulator& sim() noexcept { return sim_; }
  mac::RadioEnvironment& environment() noexcept { return environment_; }
  mac::Radio& radio(std::size_t i) { return *radios_.at(i); }
  channel::LinkModel& link() noexcept { return *link_; }

  /// Builds a broadcast data frame of `bytes` payload.
  static mac::Frame dataFrame(FlowId flow, SeqNo seq, int bytes = 1000) {
    mac::Frame frame;
    frame.kind = mac::FrameKind::kData;
    frame.bytes = bytes;
    frame.payload = mac::DataPayload{flow, seq, 0};
    return frame;
  }

 private:
  sim::Simulator sim_;
  std::unique_ptr<channel::LinkModel> link_;
  mac::RadioEnvironment environment_;
  std::vector<std::unique_ptr<mobility::StaticMobility>> mobilities_;
  std::vector<std::unique_ptr<mac::Radio>> radios_;
};

}  // namespace vanet::testing
