#include "mac/radio.h"

#include <utility>

#include "mac/radio_environment.h"
#include "util/assert.h"

namespace vanet::mac {

Radio::Radio(sim::Simulator& sim, RadioEnvironment& environment, NodeId id,
             const mobility::MobilityModel* mobility, RadioConfig config)
    : sim_(sim), environment_(environment), id_(id), mobility_(mobility),
      config_(config) {
  VANET_ASSERT(mobility_ != nullptr, "radio requires a mobility model");
  environment_.attach(this);
}

Radio::~Radio() { environment_.detach(this); }

void Radio::transmit(Frame frame, channel::PhyMode mode) {
  VANET_ASSERT(!transmitting(), "half-duplex radio is already transmitting");
  frame.src = id_;
  const sim::SimTime end =
      environment_.beginTransmission(*this, std::move(frame), mode);
  txUntil_ = end;
  txHistory_.emplace_back(sim_.now(), end);
  ++framesSent_;
  // Prune history entries that can no longer overlap any in-flight frame.
  const sim::SimTime horizon = sim_.now() - sim::SimTime::seconds(1.0);
  std::erase_if(txHistory_,
                [horizon](const auto& span) { return span.second < horizon; });
}

void Radio::onFrameDelivered(const Frame& frame, const RxInfo& info) {
  ++framesReceived_;
  if (rxCallback_) {
    rxCallback_(frame, info);
  }
}

void Radio::onFrameCorrupted(const Frame& frame, const RxInfo& info) {
  if (corruptCallback_) {
    corruptCallback_(frame, info);
  }
}

bool Radio::transmittedDuring(sim::SimTime start, sim::SimTime end) const {
  // Newest first: span ends only increase (see txHistory_), so once a span
  // ended by `start`, every older one did too.
  for (auto span = txHistory_.rbegin(); span != txHistory_.rend(); ++span) {
    if (span->second <= start) return false;
    if (span->first < end) return true;
  }
  return false;
}

}  // namespace vanet::mac
