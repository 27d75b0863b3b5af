#pragma once

/// \file mobility_model.h
/// Interface mapping simulation time to node position. Mobility is
/// precomputed per experiment round (kinematic schedules), so queries are
/// pure and side-effect free.

#include "geom/vec2.h"
#include "sim/time.h"

namespace vanet::mobility {

/// Time -> position mapping for one node over one simulation run.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Node position at time `t` (clamped to the model's defined range).
  virtual geom::Vec2 positionAt(sim::SimTime t) const = 0;

  /// Instantaneous speed in m/s at time `t` (0 outside the motion window).
  virtual double speedAt(sim::SimTime t) const = 0;

  /// True when positionAt returns the same point at every time. The radio
  /// environment plans a link between two static radios once per run.
  virtual bool isStatic() const { return false; }
};

/// A node that never moves (access points, parked cars).
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(geom::Vec2 position) noexcept : position_(position) {}

  geom::Vec2 positionAt(sim::SimTime) const override { return position_; }
  double speedAt(sim::SimTime) const override { return 0.0; }
  bool isStatic() const override { return true; }

 private:
  geom::Vec2 position_;
};

}  // namespace vanet::mobility
