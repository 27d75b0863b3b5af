#pragma once

/// \file radio.h
/// A half-duplex 802.11-style radio bound to a node's mobility. The radio
/// transmits frames into a RadioEnvironment and surfaces delivered frames
/// through a callback. It is deliberately thin: medium access lives in
/// CsmaMac, propagation in the environment/link model.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "channel/error_model.h"
#include "geom/vec2.h"
#include "mac/frame.h"
#include "mobility/mobility_model.h"
#include "sim/simulator.h"

namespace vanet::mac {

class RadioEnvironment;

/// Per-radio configuration.
struct RadioConfig {
  double txPowerDbm = 16.0;  ///< EIRP including antenna gain
};

/// Reception metadata passed to the rx callback.
struct RxInfo {
  NodeId src = 0;
  double rxPowerDbm = 0.0;
  double sinrDb = 0.0;
  sim::SimTime at{};
};

/// Half-duplex radio; one per node.
class Radio {
 public:
  using RxCallback = std::function<void(const Frame&, const RxInfo&)>;

  /// Attaches itself to `environment`; `mobility` must outlive the radio.
  Radio(sim::Simulator& sim, RadioEnvironment& environment, NodeId id,
        const mobility::MobilityModel* mobility, RadioConfig config);
  ~Radio();
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  NodeId id() const noexcept { return id_; }
  geom::Vec2 position() const { return mobility_->positionAt(sim_.now()); }
  /// True when the radio never moves (see MobilityModel::isStatic).
  bool isStatic() const { return mobility_->isStatic(); }
  double txPowerDbm() const noexcept { return config_.txPowerDbm; }

  /// True while a transmission of this radio occupies the medium.
  bool transmitting() const noexcept { return sim_.now() < txUntil_; }
  sim::SimTime transmitUntil() const noexcept { return txUntil_; }

  /// Starts transmitting `frame`; requires the radio to be idle.
  /// The caller (MAC) is responsible for medium access rules. The frame
  /// is moved through to the environment's in-flight record, so its
  /// payload vectors are never copied on the way to the air.
  void transmit(Frame frame, channel::PhyMode mode);

  void setRxCallback(RxCallback callback) { rxCallback_ = std::move(callback); }

  /// Opts in to corrupted-frame delivery: frames that were detected
  /// (above sensitivity, no collision) but failed decoding are surfaced
  /// with their SINR, enabling soft combining (C-ARQ/FC).
  void setCorruptRxCallback(RxCallback callback) {
    corruptCallback_ = std::move(callback);
  }
  bool wantsCorruptFrames() const noexcept {
    return static_cast<bool>(corruptCallback_);
  }

  /// Environment-facing: delivers a successfully decoded frame.
  void onFrameDelivered(const Frame& frame, const RxInfo& info);

  /// Environment-facing: delivers a detected-but-corrupt frame (only when
  /// wantsCorruptFrames()).
  void onFrameCorrupted(const Frame& frame, const RxInfo& info);

  /// Environment-facing: whether this radio transmitted at any point in
  /// [start, end] (half-duplex receivers miss such frames).
  bool transmittedDuring(sim::SimTime start, sim::SimTime end) const;

  /// Environment bookkeeping: this radio's dense index in the
  /// environment's attach list, letting in-flight transmissions map a
  /// receiver to its planned delivery in O(1) (carrier sense and
  /// interference queries sit on the hot path).
  std::size_t envSlot() const noexcept { return envSlot_; }
  void setEnvSlot(std::size_t slot) noexcept { envSlot_ = slot; }

  std::uint64_t framesSent() const noexcept { return framesSent_; }
  std::uint64_t framesReceived() const noexcept { return framesReceived_; }

 private:
  sim::Simulator& sim_;
  RadioEnvironment& environment_;
  NodeId id_;
  const mobility::MobilityModel* mobility_;
  RadioConfig config_;
  RxCallback rxCallback_;
  RxCallback corruptCallback_;
  sim::SimTime txUntil_{};
  std::size_t envSlot_ = 0;
  /// Recent [start, end) transmit spans, oldest first. Half-duplex: a
  /// span starts no earlier than the previous one ended, so both starts
  /// and ends only increase.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> txHistory_;
  std::uint64_t framesSent_ = 0;
  std::uint64_t framesReceived_ = 0;
};

}  // namespace vanet::mac
