#pragma once

/// \file radio_environment.h
/// The shared wireless medium. Tracks every in-flight transmission,
/// computes per-receiver powers through the link model, applies
/// interference (SINR with a capture threshold), half-duplex loss, channel
/// error sampling and the optional burst overlay, then delivers frames to
/// the surviving receivers at airtime end.
///
/// Hot-path layout: receivers of one transmission are gathered into a
/// struct-of-arrays LinkBatch and planned in staged passes (see
/// channel/link_batch.h); in-flight transmission records are pooled and
/// referenced by raw pointer (their finalize closures fit the scheduler's
/// fixed handler cell, so steady-state transmission churn never
/// allocates); and each radio carries a dense environment slot so plan
/// lookups during carrier sense / interference accumulation are O(1)
/// array reads.
///
/// Receivers that cannot hear are cheap: a link between two static radios
/// is planned once and its mean reused, a receiver the link model
/// deferred (no fade can lift it to sensitivity) gets its faded power
/// only when an interference sum reads it, and a delivery builds its
/// overlap set only once some receiver passes the gates.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/link_batch.h"
#include "channel/link_model.h"
#include "mac/frame.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vanet::mac {

class Radio;

/// Implemented by MACs that sleep through an idle backoff countdown on a
/// single timer: the environment calls onMediumActivity() synchronously
/// the moment any transmission enters the air, which is the only instant
/// the sensed-busy state of an idle, non-transmitting radio can change
/// (carrier sense reads the plans frozen at transmission start, never
/// live positions). The callback must not start a transmission.
class MediumActivityListener {
 public:
  virtual void onMediumActivity() = 0;

 protected:
  ~MediumActivityListener() = default;
};

/// Medium-level loss statistics (per simulation run).
struct MediumStats {
  std::uint64_t framesTransmitted = 0;
  std::uint64_t framesDelivered = 0;
  std::uint64_t framesBelowSensitivity = 0;
  std::uint64_t framesCollided = 0;      ///< SINR under capture threshold
  std::uint64_t framesChannelError = 0;  ///< decode failure (BER)
  std::uint64_t framesBurstLost = 0;
  std::uint64_t framesHalfDuplexMissed = 0;
  std::uint64_t framesCorruptDelivered = 0;  ///< surfaced for soft combining

  /// Adds another counter block (rounds of one run, or parallel runs).
  void merge(const MediumStats& other) noexcept {
    framesTransmitted += other.framesTransmitted;
    framesDelivered += other.framesDelivered;
    framesBelowSensitivity += other.framesBelowSensitivity;
    framesCollided += other.framesCollided;
    framesChannelError += other.framesChannelError;
    framesBurstLost += other.framesBurstLost;
    framesHalfDuplexMissed += other.framesHalfDuplexMissed;
    framesCorruptDelivered += other.framesCorruptDelivered;
  }
};

/// Broadcast wireless medium shared by all attached radios.
class RadioEnvironment {
 public:
  RadioEnvironment(sim::Simulator& sim, channel::LinkModel& link, Rng rng);
  RadioEnvironment(const RadioEnvironment&) = delete;
  RadioEnvironment& operator=(const RadioEnvironment&) = delete;

  void attach(Radio* radio);
  void detach(Radio* radio);

  /// Starts a transmission; returns its airtime end. Called by Radio.
  sim::SimTime beginTransmission(Radio& src, Frame frame,
                                 channel::PhyMode mode);

  /// Carrier sense at `sensor`: true while any other transmission arrives
  /// above the carrier-sense threshold, or the sensor itself transmits.
  bool channelBusy(const Radio& sensor) const;

  /// Time until which the sensed busy condition is guaranteed to persist
  /// (now when the channel is idle).
  sim::SimTime channelBusyUntil(const Radio& sensor) const;

  /// Registers / removes a consolidated-backoff listener. Idempotence is
  /// the caller's job: add exactly once per wait, remove before (or
  /// while) reacting.
  void addMediumListener(MediumActivityListener* listener);
  void removeMediumListener(MediumActivityListener* listener) noexcept;

  const MediumStats& stats() const noexcept { return stats_; }

 private:
  struct PlannedRx {
    Radio* rx = nullptr;
    double meanDbm = 0.0;   // without fading: carrier sense, interference base
    double fadedDbm = 0.0;  // per-frame fading applied; unset while deferred
    double fadeDraw = 0.0;  // the raw fading draw of a deferred receiver
    bool deferred = false;  // below sensitivity; fadedDbm not computed yet
  };
  /// One in-flight (or recently finished) transmission. Pooled: acquired
  /// in beginTransmission, recycled when it ages out of the overlap
  /// window, so the vectors inside keep their capacity across reuse.
  struct ActiveTx {
    std::uint64_t id = 0;
    NodeId src = 0;
    Frame frame;
    channel::PhyMode mode{};
    sim::SimTime start{};
    sim::SimTime end{};
    /// Maps a deferred receiver's draw to its gain.
    const channel::FadingModel* fading = nullptr;
    std::vector<PlannedRx> plans;  ///< receiver order (= attach order)
    /// Env slot -> index into `plans`, -1 when the slot's radio is the
    /// source or detached. Sized to the radio count at planning time.
    std::vector<std::int32_t> planBySlot;

    const PlannedRx* planFor(const Radio* rx) const;
    PlannedRx* planFor(const Radio* rx);
    /// The plan's faded power, computed and kept on first read when the
    /// plan was deferred.
    double fadedDbm(PlannedRx& plan);
    void rebuildSlotIndex(std::size_t slotCount);
  };

  ActiveTx* acquireTx();
  void deliver(ActiveTx* tx);
  /// Fills overlap_ with the transmissions overlapping `tx` in time,
  /// active_ first, then recent_.
  void collectOverlap(const ActiveTx& tx);
  /// Interference at `rx` summed over overlap_, in overlap_ order.
  double interferenceDbmFromOverlap(const Radio* rx);
  void pruneRecent();
  /// Forgets every static-link mean (the slot numbering changed).
  void resetStaticMeans();

  sim::Simulator& sim_;
  channel::LinkModel& link_;
  Rng rng_;
  std::vector<Radio*> radios_;
  /// Per env slot: the position of a radio that never moves
  /// (Radio::isStatic, read at attach); nullopt for a moving radio.
  std::vector<std::optional<geom::Vec2>> staticPos_;
  /// slots x slots mean rx power of links between two static radios,
  /// [tx slot * slots + rx slot], NaN until the link is first planned.
  std::vector<double> staticMeanDbm_;
  channel::LinkBatch batch_;             ///< per-transmission SoA scratch
  std::vector<std::unique_ptr<ActiveTx>> pool_;  ///< owns every ActiveTx
  std::vector<ActiveTx*> freeTx_;        ///< recycled records
  std::vector<ActiveTx*> active_;        ///< airtime in progress
  std::vector<ActiveTx*> recent_;        ///< kept for overlap checks
  std::vector<MediumActivityListener*> mediumListeners_;
  /// Snapshot iterated during notification (listeners self-remove).
  std::vector<MediumActivityListener*> listenerScratch_;
  // deliver() scratch (member so steady state does not allocate):
  std::vector<ActiveTx*> overlap_;  ///< per-delivery overlapping-tx scratch
  std::vector<std::uint32_t> survivorIdx_;  ///< plan indices past the gates
  std::vector<double> survivorSinrDb_;
  std::vector<double> survivorPSuccess_;
  std::uint64_t nextFrameId_ = 1;
  MediumStats stats_;
};

}  // namespace vanet::mac
