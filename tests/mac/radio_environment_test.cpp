#include "mac/radio_environment.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "../testing/medium_fixture.h"
#include "../testing/scalar_reference_link.h"
#include "mac/airtime.h"
#include "obs/counters.h"
#include "util/vmath.h"

namespace vanet::mac {
namespace {

using channel::PhyMode;
using sim::SimTime;
using vanet::testing::MediumHarness;

TEST(RadioEnvironmentTest, BroadcastReachesAllOtherRadios) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {20.0, 0.0});
  h.addRadio(3, {40.0, 0.0});
  int rx2 = 0;
  int rx3 = 0;
  h.radio(1).setRxCallback([&rx2](const Frame&, const RxInfo&) { ++rx2; });
  h.radio(2).setRxCallback([&rx3](const Frame&, const RxInfo&) { ++rx3; });

  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(rx2, 1);
  EXPECT_EQ(rx3, 1);
  EXPECT_EQ(h.environment().stats().framesDelivered, 2u);
}

TEST(RadioEnvironmentTest, SenderDoesNotHearItself) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {20.0, 0.0});
  int rx1 = 0;
  h.radio(0).setRxCallback([&rx1](const Frame&, const RxInfo&) { ++rx1; });
  h.radio(1).setRxCallback([](const Frame&, const RxInfo&) {});
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(rx1, 0);
}

TEST(RadioEnvironmentTest, DeliveryHappensAtAirtimeEnd) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {20.0, 0.0});
  SimTime deliveredAt{};
  h.radio(1).setRxCallback(
      [&](const Frame&, const RxInfo& info) { deliveredAt = info.at; });
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1, 1000),
                      PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(deliveredAt, frameAirtime(PhyMode::kDsss1Mbps, 1000));
}

TEST(RadioEnvironmentTest, OutOfRangeReceiverMissesFrame) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {50000.0, 0.0});  // 50 km away
  int rx = 0;
  h.radio(1).setRxCallback([&rx](const Frame&, const RxInfo&) { ++rx; });
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(rx, 0);
  EXPECT_EQ(h.environment().stats().framesBelowSensitivity, 1u);
}

TEST(RadioEnvironmentTest, HalfDuplexReceiverMissesOverlap) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {20.0, 0.0});
  int rx2 = 0;
  h.radio(1).setRxCallback([&rx2](const Frame&, const RxInfo&) { ++rx2; });
  h.radio(0).setRxCallback([](const Frame&, const RxInfo&) {});
  // Both transmit at t=0: each is deaf to the other's frame.
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  h.radio(1).transmit(MediumHarness::dataFrame(1, 1), PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(rx2, 0);
  EXPECT_EQ(h.environment().stats().framesHalfDuplexMissed, 2u);
}

TEST(RadioEnvironmentTest, CollisionAtEquidistantReceiverDestroysBoth) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {100.0, 0.0});
  h.addRadio(3, {50.0, 40.0});  // equidistant from 1 and 2 -> SINR ~ 0 dB
  int rx3 = 0;
  h.radio(2).setRxCallback([&rx3](const Frame&, const RxInfo&) { ++rx3; });
  h.radio(0).transmit(MediumHarness::dataFrame(3, 1), PhyMode::kDsss1Mbps);
  h.radio(1).transmit(MediumHarness::dataFrame(3, 2), PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(rx3, 0);
  EXPECT_EQ(h.environment().stats().framesCollided, 2u);
}

TEST(RadioEnvironmentTest, CaptureStrongFrameOverWeakInterferer) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});     // strong: 10 m from receiver
  h.addRadio(2, {500.0, 0.0});   // weak interferer: 490 m away
  h.addRadio(3, {10.0, 0.0});
  int rx3 = 0;
  h.radio(2).setRxCallback([&rx3](const Frame& f, const RxInfo&) {
    if (dataOf(f).seq == 1) ++rx3;
  });
  h.radio(0).transmit(MediumHarness::dataFrame(3, 1), PhyMode::kDsss1Mbps);
  h.radio(1).transmit(MediumHarness::dataFrame(3, 2), PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(rx3, 1);  // near frame captured despite overlap
}

TEST(RadioEnvironmentTest, ChannelBusyDuringTransmission) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {20.0, 0.0});
  h.radio(1).setRxCallback([](const Frame&, const RxInfo&) {});
  EXPECT_FALSE(h.environment().channelBusy(h.radio(1)));
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  EXPECT_TRUE(h.environment().channelBusy(h.radio(1)));
  EXPECT_TRUE(h.environment().channelBusy(h.radio(0)));  // own tx
  const SimTime end = h.environment().channelBusyUntil(h.radio(1));
  EXPECT_EQ(end, frameAirtime(PhyMode::kDsss1Mbps, 1000));
  h.sim().run();
  EXPECT_FALSE(h.environment().channelBusy(h.radio(1)));
}

TEST(RadioEnvironmentTest, FarTransmitterDoesNotTriggerCarrierSense) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {50000.0, 0.0});
  h.radio(1).setRxCallback([](const Frame&, const RxInfo&) {});
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  EXPECT_FALSE(h.environment().channelBusy(h.radio(1)));
}

TEST(RadioEnvironmentTest, RxInfoCarriesPlausibleValues) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {10.0, 0.0});
  RxInfo seen;
  h.radio(1).setRxCallback(
      [&seen](const Frame&, const RxInfo& info) { seen = info; });
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  h.sim().run();
  EXPECT_EQ(seen.src, 1);
  // 18 dBm - (40 + 20 log10 10) = -42 dBm at 10 m (free-space-like).
  EXPECT_NEAR(seen.rxPowerDbm, -42.0, 0.5);
  EXPECT_GT(seen.sinrDb, 40.0);
}

TEST(RadioEnvironmentTest, StatsCountTransmissions) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {20.0, 0.0});
  h.radio(1).setRxCallback([](const Frame&, const RxInfo&) {});
  for (int i = 0; i < 5; ++i) {
    h.radio(0).transmit(MediumHarness::dataFrame(2, i), PhyMode::kDsss1Mbps);
    h.sim().run();
  }
  EXPECT_EQ(h.environment().stats().framesTransmitted, 5u);
  EXPECT_EQ(h.environment().stats().framesDelivered, 5u);
  EXPECT_EQ(h.radio(0).framesSent(), 5u);
  EXPECT_EQ(h.radio(1).framesReceived(), 5u);
}

TEST(RadioEnvironmentTest, CorruptFramesDeliveredOnlyToOptedInRadios) {
  // A weak (but detected) CCK-11 link produces decode failures; radios
  // that opted in receive the corrupt frames with their SINR.
  auto weak = std::make_unique<channel::CompositeLinkModel>(
      std::make_unique<channel::LogDistancePathLoss>(2.0, 40.0),
      // car-to-car at 20 m: ~ -80 dBm -> SNR ~14 dB, under the CCK-11
      // cliff for 1028-byte frames.
      std::make_unique<channel::LogDistancePathLoss>(2.4, 66.8),
      std::make_unique<channel::NoShadowing>(),
      std::make_unique<channel::NoFading>(), channel::LinkBudget{});
  vanet::testing::MediumHarness h(std::move(weak));
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {20.0, 0.0});
  h.addRadio(3, {20.0, 1.0});
  int corrupt2 = 0;
  double sinr2 = 0.0;
  h.radio(1).setRxCallback([](const Frame&, const RxInfo&) {});
  h.radio(1).setCorruptRxCallback([&](const Frame&, const RxInfo& info) {
    ++corrupt2;
    sinr2 = info.sinrDb;
  });
  int corrupt3 = 0;
  h.radio(2).setRxCallback([](const Frame&, const RxInfo&) {});
  // radio 3 does NOT opt in.
  int delivered = 0;
  h.radio(1).setRxCallback([&delivered](const Frame&, const RxInfo&) { ++delivered; });
  for (int i = 0; i < 60; ++i) {
    h.radio(0).transmit(MediumHarness::dataFrame(2, i), PhyMode::kCck11Mbps);
    h.sim().run();
  }
  EXPECT_GT(corrupt2, 10);  // most copies fail at ~14 dB
  EXPECT_EQ(corrupt3, 0);
  EXPECT_NEAR(sinr2, 14.0, 1.5);
  EXPECT_EQ(h.environment().stats().framesCorruptDelivered,
            static_cast<std::uint64_t>(corrupt2));
  EXPECT_GT(h.environment().stats().framesChannelError, 0u);
}

TEST(RadioEnvironmentTest, BelowSensitivityNeverSurfacesCorruptFrames) {
  vanet::testing::MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {50000.0, 0.0});
  int corrupt = 0;
  h.radio(1).setCorruptRxCallback(
      [&corrupt](const Frame&, const RxInfo&) { ++corrupt; });
  h.radio(1).setRxCallback([](const Frame&, const RxInfo&) {});
  for (int i = 0; i < 20; ++i) {
    h.radio(0).transmit(MediumHarness::dataFrame(2, i), PhyMode::kDsss1Mbps);
    h.sim().run();
  }
  EXPECT_EQ(corrupt, 0);  // undetectable frames contribute no soft energy
}

TEST(RadioEnvironmentTest, EmptyReceiverSetAdvancesNothing) {
  // A transmission with zero receivers (sole radio on the medium) must
  // not draw randomness, evaluate links, or touch any delivery counter:
  // the batched path has to early-out before the plan stage.
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  const std::uint64_t evalsBefore =
      obs::takeSnapshot().counter("mac.link_evaluations");
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  h.sim().run();
  const MediumStats& stats = h.environment().stats();
  EXPECT_EQ(stats.framesTransmitted, 1u);
  EXPECT_EQ(stats.framesDelivered, 0u);
  EXPECT_EQ(stats.framesBelowSensitivity, 0u);
  EXPECT_EQ(stats.framesHalfDuplexMissed, 0u);
  EXPECT_EQ(stats.framesCollided, 0u);
  EXPECT_EQ(stats.framesChannelError, 0u);
  EXPECT_EQ(stats.framesBurstLost, 0u);
  EXPECT_EQ(stats.framesCorruptDelivered, 0u);
  EXPECT_EQ(obs::takeSnapshot().counter("mac.link_evaluations"), evalsBefore);
}

/// A lossy Rayleigh channel: links past a few hundred metres cannot reach
/// sensitivity even at the largest fade, so their fades are deferred.
std::unique_ptr<channel::CompositeLinkModel> rayleighLinkModel() {
  return std::make_unique<channel::CompositeLinkModel>(
      std::make_unique<channel::LogDistancePathLoss>(3.0, 40.0),
      std::make_unique<channel::LogDistancePathLoss>(3.0, 40.0),
      std::make_unique<channel::NoShadowing>(),
      std::make_unique<channel::RayleighFading>(), channel::LinkBudget{});
}

struct Reception {
  std::size_t radio;
  NodeId src;
  double rxPowerDbm;
  double sinrDb;
  SimTime at;
  bool corrupt;

  bool operator==(const Reception&) const = default;
};

/// Two clusters 2 km apart transmit at overlapping times: every frame is
/// decodable in its own cluster, and the other cluster's frames are
/// interference that cannot be decoded (deferred fades). Returns every
/// reception in order.
std::vector<Reception> runTwoClusters(MediumHarness& h) {
  const std::vector<geom::Vec2> positions = {
      {0.0, 0.0}, {30.0, 0.0}, {60.0, 5.0},
      {2000.0, 0.0}, {2030.0, 0.0}, {2060.0, 5.0}};
  std::vector<Reception> receptions;
  for (std::size_t r = 0; r < positions.size(); ++r) {
    h.addRadio(static_cast<NodeId>(r + 1), positions[r]);
  }
  for (std::size_t r = 0; r < positions.size(); ++r) {
    const auto record = [&receptions, r](bool corrupt) {
      return [&receptions, r, corrupt](const Frame&, const RxInfo& info) {
        receptions.push_back(
            {r, info.src, info.rxPowerDbm, info.sinrDb, info.at, corrupt});
      };
    };
    h.radio(r).setRxCallback(record(false));
    h.radio(r).setCorruptRxCallback(record(true));
  }
  Rng schedule{5};
  for (int frame = 0; frame < 300; ++frame) {
    // One sender per cluster, each starting within a frame's airtime of
    // the other: the frames overlap at every receiver.
    const SimTime at = SimTime::millis(10.0 * frame);
    const std::size_t near = static_cast<std::size_t>(frame % 3);
    const std::size_t far = 3 + static_cast<std::size_t>((frame / 3) % 3);
    const SimTime offset = SimTime::micros(schedule.uniformInt(0, 900));
    h.sim().scheduleAt(at, [&h, near] {
      h.radio(near).transmit(MediumHarness::dataFrame(2, 1, 200),
                             PhyMode::kDsss1Mbps);
    });
    h.sim().scheduleAt(at + offset, [&h, far] {
      h.radio(far).transmit(MediumHarness::dataFrame(2, 2, 200),
                            PhyMode::kDsss1Mbps);
    });
  }
  h.sim().run();
  return receptions;
}

TEST(RadioEnvironmentTest, DeferredFadesInInterferenceMatchTheScalarReference) {
  const std::uint64_t deferredBefore =
      obs::takeSnapshot().counter("mac.links_deferred");
  MediumHarness batched(rayleighLinkModel());
  const std::vector<Reception> fromBatched = runTwoClusters(batched);
  EXPECT_GT(obs::takeSnapshot().counter("mac.links_deferred"), deferredBefore);

  // The same stack through the base-class planBatch: no deferral, no
  // known means, every fade computed at planning time.
  std::unique_ptr<channel::CompositeLinkModel> inner = rayleighLinkModel();
  MediumHarness reference(
      std::make_unique<vanet::testing::ScalarReferenceLink>(*inner));
  const std::vector<Reception> fromReference = runTwoClusters(reference);

  ASSERT_FALSE(fromBatched.empty());
  EXPECT_EQ(fromBatched, fromReference);
  const MediumStats& a = batched.environment().stats();
  const MediumStats& b = reference.environment().stats();
  EXPECT_EQ(std::tie(a.framesTransmitted, a.framesDelivered,
                     a.framesBelowSensitivity, a.framesCollided,
                     a.framesChannelError, a.framesBurstLost,
                     a.framesHalfDuplexMissed, a.framesCorruptDelivered),
            std::tie(b.framesTransmitted, b.framesDelivered,
                     b.framesBelowSensitivity, b.framesCollided,
                     b.framesChannelError, b.framesBurstLost,
                     b.framesHalfDuplexMissed, b.framesCorruptDelivered));
  EXPECT_GT(a.framesBelowSensitivity, 0u);
  // The far cluster's deferred fades reached the SINR: some receptions
  // saw noise plus interference above the noise floor (the far frames
  // add about 0.01 dB, far above rounding).
  const double noiseOnlyDbm = vmath::linearToDb(
      vmath::dbToLinear(channel::LinkBudget{}.noiseFloorDbm));
  std::size_t interfered = 0;
  for (const Reception& rx : fromBatched) {
    if (rx.rxPowerDbm - rx.sinrDb > noiseOnlyDbm + 1e-6) ++interfered;
  }
  EXPECT_GT(interfered, 0u);
}

TEST(RadioEnvironmentTest, StaticLinksArePlannedOnceAndDetachForgetsThem) {
  // NoFading: a delivered frame's rx power is its link's mean.
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.addRadio(2, {10.0, 0.0});
  h.addRadio(3, {200.0, 0.0});
  std::vector<double> atThree;
  h.radio(1).setRxCallback([](const Frame&, const RxInfo&) {});
  h.radio(2).setRxCallback([&atThree](const Frame&, const RxInfo& info) {
    atThree.push_back(info.rxPowerDbm);
  });
  const auto cached = [] {
    return obs::takeSnapshot().counter("mac.links_cached");
  };
  const auto send = [&h] {
    h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
    h.sim().run();
  };

  const std::uint64_t before = cached();
  send();  // first plan of 1->2 and 1->3
  EXPECT_EQ(cached(), before);
  send();  // both means known
  EXPECT_EQ(cached(), before + 2);

  // Radio 3 moves into radio 2's slot. A stale table would hand it the
  // 10 m link's mean.
  h.removeRadio(1);
  send();
  EXPECT_EQ(cached(), before + 2) << "detach forgets every static link";
  send();
  EXPECT_EQ(cached(), before + 3);

  ASSERT_EQ(atThree.size(), 4u);
  for (const double dbm : atThree) EXPECT_EQ(dbm, atThree.front());
}

TEST(RadioEnvironmentDeathTest, DoubleTransmitAsserts) {
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  h.radio(0).transmit(MediumHarness::dataFrame(2, 1), PhyMode::kDsss1Mbps);
  EXPECT_DEATH(
      h.radio(0).transmit(MediumHarness::dataFrame(2, 2), PhyMode::kDsss1Mbps),
      "already transmitting");
}

/// Records the [start, end) span of every transmission of `radio` made at
/// the scheduled `starts`.
std::vector<std::pair<SimTime, SimTime>> transmitAt(
    MediumHarness& h, Radio& radio, const std::vector<SimTime>& starts,
    PhyMode mode = PhyMode::kCck11Mbps) {
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (const SimTime start : starts) {
    h.sim().scheduleAt(start, [&h, &radio, &spans, mode] {
      radio.transmit(MediumHarness::dataFrame(2, 1, 100), mode);
      spans.emplace_back(h.sim().now(), radio.transmitUntil());
    });
  }
  h.sim().run();
  return spans;
}

bool overlapsAny(const std::vector<std::pair<SimTime, SimTime>>& spans,
                 SimTime start, SimTime end) {
  for (const auto& [first, second] : spans) {
    if (first < end && start < second) return true;
  }
  return false;
}

TEST(RadioTransmittedDuringTest, TouchingSpans) {
  // [a, b] then [b, c]: the second frame starts the instant the first
  // ends. Windows ending at a or starting at c touch but do not overlap.
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  const SimTime a = SimTime::millis(1.0);
  const SimTime airtime = frameAirtime(PhyMode::kCck11Mbps, 100);
  const auto spans = transmitAt(h, h.radio(0), {a, a + airtime});
  ASSERT_EQ(spans.size(), 2u);
  const SimTime b = spans[0].second;
  ASSERT_EQ(spans[1].first, b);
  const SimTime c = spans[1].second;
  const SimTime ns = SimTime::nanos(1);
  const Radio& radio = h.radio(0);
  EXPECT_FALSE(radio.transmittedDuring(a - airtime, a));
  EXPECT_TRUE(radio.transmittedDuring(a - airtime, a + ns));
  EXPECT_TRUE(radio.transmittedDuring(b, b + ns));
  EXPECT_TRUE(radio.transmittedDuring(b - ns, b));
  EXPECT_TRUE(radio.transmittedDuring(c - ns, c + airtime));
  EXPECT_FALSE(radio.transmittedDuring(c, c + airtime));
  for (const SimTime start :
       {a - ns, a, a + ns, b - ns, b, b + ns, c - ns, c}) {
    for (const SimTime end : {a, a + ns, b - ns, b, b + ns, c, c + ns}) {
      EXPECT_EQ(radio.transmittedDuring(start, end),
                overlapsAny(spans, start, end))
          << start << " .. " << end;
    }
  }
}

TEST(RadioTransmittedDuringTest, LongHistoryMatchesFullScan) {
  // Hundreds of spans inside the 1 s history, with gaps from zero
  // (touching) to a few airtimes; every query agrees with a full scan.
  MediumHarness h;
  h.addRadio(1, {0.0, 0.0});
  Rng rng{11};
  const SimTime airtime = frameAirtime(PhyMode::kCck11Mbps, 100);
  std::vector<SimTime> starts;
  SimTime at = SimTime::millis(1.0);
  for (int i = 0; i < 400; ++i) {
    starts.push_back(at);
    const int gapNs = rng.bernoulli(0.2) ? 0 : rng.uniformInt(1, 2'000'000);
    at = at + airtime + SimTime::nanos(gapNs);
  }
  const auto spans = transmitAt(h, h.radio(0), starts);
  ASSERT_EQ(spans.size(), starts.size());
  ASSERT_LT(spans.back().second - spans.front().first, SimTime::seconds(1.0));
  const Radio& radio = h.radio(0);
  const auto horizonUs =
      static_cast<int>((spans.back().second + airtime).ns() / 1000);
  for (int q = 0; q < 5000; ++q) {
    const SimTime start = SimTime::micros(rng.uniformInt(0, horizonUs));
    const SimTime end = start + SimTime::nanos(rng.uniformInt(1, 3'000'000));
    ASSERT_EQ(radio.transmittedDuring(start, end),
              overlapsAny(spans, start, end))
        << start << " .. " << end;
  }
  // Exact span edges.
  for (const auto& [first, second] : spans) {
    for (const SimTime start : {first - airtime, first, second}) {
      const SimTime end = start + airtime;
      ASSERT_EQ(radio.transmittedDuring(start, end),
                overlapsAny(spans, start, end));
    }
  }
}

}  // namespace
}  // namespace vanet::mac
