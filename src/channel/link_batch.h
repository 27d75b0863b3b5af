#pragma once

/// \file link_batch.h
/// Struct-of-arrays scratch for one transmission's receiver set.
///
/// The radio environment gathers every receiver of a transmission into
/// parallel arrays (id, position), then asks the link model to fill the
/// per-receiver plan arrays (distance, path loss, shadowing, fading, mean
/// and faded rx power) in staged passes over contiguous memory instead of
/// one virtual-call chain per receiver. Stage order is chosen so each RNG
/// stream (fading draws on the environment rng, shadowing pair constants
/// on the shadowing rng) sees its draws in exactly the per-receiver order
/// the scalar path used -- the streams are independent, so batching the
/// stages cannot reorder draws *within* any stream.
///
/// Two shortcuts ride in the batch, both exact:
///  - *Known means.* The caller may hand in a receiver's mean power when
///    it already planned the same link (two static radios); the link
///    model may then skip that receiver's distance, path loss and
///    shadowing.
///  - *Deferred fades.* A receiver whose mean plus the fading model's
///    largest gain is still below sensitivity keeps its raw fading draw
///    instead of a faded power: it cannot decode whatever the draw, and
///    its faded power, mean + fading()->gainFromDraw(draw), is computed
///    only when an interference sum reads it.
///
/// The batch is reused across transmissions (capacity sticks), so the
/// steady-state hot path performs no allocation.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/fading.h"
#include "geom/vec2.h"
#include "util/types.h"

namespace vanet::channel {

class LinkBatch {
 public:
  /// Sizes every array for `n` receivers and resets the plan state: no
  /// known mean, nothing deferred, no fading model. Keeps capacity. Fill
  /// each receiver with setReceiver before handing the batch to
  /// LinkModel::planBatch.
  void resize(std::size_t n);

  /// Receiver i of the transmission (receiver order = attach order).
  void setReceiver(std::size_t i, NodeId id, geom::Vec2 pos) noexcept {
    ids_[i] = id;
    x_[i] = pos.x;
    y_[i] = pos.y;
  }

  /// Hands in receiver i's mean rx power: the value a previous plan of the
  /// same link produced. A link model may keep it or recompute it; both
  /// give the same bits.
  void setKnownMean(std::size_t i, double meanDbm) noexcept {
    mean_[i] = meanDbm;
    known_[i] = 1;
    ++knownCount_;
  }

  std::size_t size() const noexcept { return ids_.size(); }
  bool empty() const noexcept { return ids_.empty(); }

  const NodeId* rxIds() const noexcept { return ids_.data(); }
  const double* rxX() const noexcept { return x_.data(); }
  const double* rxY() const noexcept { return y_.data(); }
  geom::Vec2 rxPos(std::size_t i) const noexcept { return {x_[i], y_[i]}; }

  /// Whether receiver i's mean came in through setKnownMean.
  bool meanKnown(std::size_t i) const noexcept { return known_[i] != 0; }
  std::size_t knownMeanCount() const noexcept { return knownCount_; }

  // Plan arrays, filled by LinkModel::planBatch stages. distance/loss/
  // shadow/fade are intermediate scratch; mean/faded/draw/deferred are
  // the outputs the environment consumes. fadedDbm()[i] holds a value
  // only where deferred()[i] is 0.
  double* distance() noexcept { return dist_.data(); }
  double* lossDb() noexcept { return loss_.data(); }
  double* shadowDb() noexcept { return shadow_.data(); }
  double* fadeDb() noexcept { return fade_.data(); }
  double* fadeDraw() noexcept { return draw_.data(); }
  std::uint8_t* deferred() noexcept { return deferred_.data(); }
  double* meanDbm() noexcept { return mean_.data(); }
  double* fadedDbm() noexcept { return faded_.data(); }
  const double* meanDbm() const noexcept { return mean_.data(); }
  const double* fadedDbm() const noexcept { return faded_.data(); }
  const double* fadeDraw() const noexcept { return draw_.data(); }
  const std::uint8_t* deferred() const noexcept { return deferred_.data(); }

  /// The model that maps a deferred receiver's draw to its gain. Set by a
  /// planBatch that defers; resize() resets it to null.
  const FadingModel* fading() const noexcept { return fading_; }
  void setFading(const FadingModel* fading) noexcept { fading_ = fading; }

 private:
  std::vector<NodeId> ids_;
  std::vector<double> x_, y_;
  std::vector<double> mean_;
  std::vector<std::uint8_t> known_;
  std::size_t knownCount_ = 0;
  std::vector<double> dist_, loss_, shadow_, fade_, faded_, draw_;
  std::vector<std::uint8_t> deferred_;
  const FadingModel* fading_ = nullptr;
};

}  // namespace vanet::channel
