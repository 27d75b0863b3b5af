/// Reference-equivalence suite for the batched struct-of-arrays link path.
///
/// The behavioural spec of CompositeLinkModel::planBatch is the base-class
/// LinkModel::planBatch: a scalar per-receiver loop calling
/// meanRxPowerDbm / fadedRxPowerDbm in receiver order (exactly what the
/// radio environment used to do inline). These tests run twin,
/// identically-seeded model stacks -- one through the scalar reference,
/// one through the batched override -- and assert outputs AND every RNG
/// stream position stay bit-identical across urban/highway-like
/// compositions, Gilbert-Elliott burst states, and receiver-set churn.

#include "channel/link_batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "../testing/scalar_reference_link.h"
#include "channel/link_model.h"
#include "geom/polyline.h"

namespace vanet::channel {
namespace {

constexpr NodeId kAp0 = kFirstApId;
constexpr NodeId kAp1 = kFirstApId + 1;

using vanet::testing::ScalarReferenceLink;

/// The fading of a Stack: urban stacks default to Rayleigh, highway ones
/// to Nakagami m = 3.
enum class Fade { kDefault, kRician, kRayleigh };

/// One full model stack; two instances built with the same seeds produce
/// identical streams, so one can run the scalar reference and the other
/// the batched override.
struct Stack {
  geom::Polyline road;  // shadowing holds a reference; must outlive model
  std::unique_ptr<CompositeLinkModel> model;
  Rng envRng;

  Stack(bool urban, bool burst, std::uint64_t seed, Fade fade = Fade::kDefault,
        double roadLength = 3000.0, double infraExponent = 3.0,
        double infraRefLossDb = 55.0)
      : road(urban ? geom::makeRectangleLoop(200.0, 150.0)
                   : geom::Polyline({{0.0, 0.0}, {roadLength, 0.0}})),
        envRng(seed + 17) {
    ShadowingParams shadowParams;
    std::unique_ptr<ShadowingProvider> shadowing =
        std::make_unique<CorrelatedRoadShadowing>(road, shadowParams,
                                                  Rng{seed + 1});
    if (urban) {
      shadowing = std::make_unique<ObstructedShadowing>(
          std::move(shadowing), [](geom::Vec2 pos) {
            return pos.x > 150.0 ? 12.0 : 0.0;  // corner blocking
          });
    }
    std::unique_ptr<FadingModel> fading;
    if (fade == Fade::kRician) {
      fading = std::make_unique<RicianFading>(5.0);  // batched Box-Muller
    } else if (fade == Fade::kRayleigh || urban) {
      fading = std::make_unique<RayleighFading>();
    } else {
      fading = std::make_unique<NakagamiFading>(3.0);  // draws normals
    }
    model = std::make_unique<CompositeLinkModel>(
        std::make_unique<LogDistancePathLoss>(infraExponent, infraRefLossDb),
        std::make_unique<LogDistancePathLoss>(2.4, 40.0), std::move(shadowing),
        std::move(fading), LinkBudget{});
    if (burst) {
      GilbertElliottParams params;
      params.meanGoodSeconds = 0.3;
      params.meanBadSeconds = 0.1;
      params.lossInGood = 0.02;
      params.lossInBad = 0.9;
      model->enableBurstOverlay(params, Rng{seed + 2});
    }
  }
};

struct Receiver {
  NodeId id;
  geom::Vec2 pos;
};

constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();

/// Gathers `receivers`; a non-NaN entry of `knownMeans` is handed in as
/// that receiver's known mean.
void fillBatch(LinkBatch& batch, const std::vector<Receiver>& receivers,
               const std::vector<double>& knownMeans = {}) {
  batch.resize(receivers.size());
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    batch.setReceiver(i, receivers[i].id, receivers[i].pos);
    if (i < knownMeans.size() && !std::isnan(knownMeans[i])) {
      batch.setKnownMean(i, knownMeans[i]);
    }
  }
}

/// Receiver i's faded power; a deferred one is computed from its draw,
/// as the radio environment does when an interference sum reads it.
double resolvedFadedDbm(const LinkBatch& batch, std::size_t i) {
  return batch.deferred()[i] != 0
             ? batch.meanDbm()[i] + batch.fading()->gainFromDraw(
                                        batch.fadeDraw()[i])
             : batch.fadedDbm()[i];
}

struct BatchedPlan {
  std::vector<double> meanDbm;
  std::size_t deferred = 0;
};

/// Runs one transmission through both paths and asserts bit-identity of
/// the planned mean/faded powers. The scalar reference never defers and
/// recomputes known means; a receiver the batched path deferred is
/// resolved from its draw, so every receiver is compared.
BatchedPlan expectBatchMatchesScalar(Stack& scalarStack, Stack& batchedStack,
                                     NodeId tx, geom::Vec2 txPos,
                                     const std::vector<Receiver>& receivers,
                                     const std::vector<double>& knownMeans =
                                         {}) {
  ScalarReferenceLink reference(*scalarStack.model);
  LinkBatch scalarBatch, batchedBatch;
  fillBatch(scalarBatch, receivers, knownMeans);
  fillBatch(batchedBatch, receivers, knownMeans);
  reference.planBatch(tx, txPos, 16.0, scalarBatch, scalarStack.envRng);
  batchedStack.model->planBatch(tx, txPos, 16.0, batchedBatch,
                                batchedStack.envRng);
  BatchedPlan plan;
  for (std::size_t i = 0; i < receivers.size(); ++i) {
    EXPECT_EQ(scalarBatch.deferred()[i], 0) << "the reference never defers";
    EXPECT_EQ(scalarBatch.meanDbm()[i], batchedBatch.meanDbm()[i])
        << "mean mismatch at receiver " << receivers[i].id;
    EXPECT_EQ(scalarBatch.fadedDbm()[i], resolvedFadedDbm(batchedBatch, i))
        << "faded mismatch at receiver " << receivers[i].id;
    if (batchedBatch.deferred()[i] != 0) {
      // Deferral is exact: the receiver is below sensitivity.
      EXPECT_LT(resolvedFadedDbm(batchedBatch, i), LinkBudget{}.sensitivityDbm);
      ++plan.deferred;
    }
    plan.meanDbm.push_back(batchedBatch.meanDbm()[i]);
  }
  return plan;
}

/// Asserts both environment streams sit at the same position, including
/// the Box-Muller spare-gaussian cache (normal() consumes it first).
void expectSameRngPosition(Rng& a, Rng& b) {
  EXPECT_EQ(a.normal(), b.normal());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(LinkBatchEquivalenceTest, UrbanConfigMatchesScalarReference) {
  Stack scalar(/*urban=*/true, /*burst=*/false, 40);
  Stack batched(/*urban=*/true, /*burst=*/false, 40);
  // Car transmitter: mixed car and AP receivers (the AP links read the
  // shadowing field at the transmitter's arc; car links draw lazy pair
  // constants in receiver order).
  expectBatchMatchesScalar(scalar, batched, 1, {10.0, 0.0},
                           {{2, {30.0, 0.0}},
                            {kAp0, {100.0, 0.0}},
                            {3, {60.0, 5.0}},
                            {kAp1, {200.0, 75.0}}});
  // AP transmitter: field reads at each mobile receiver plus an AP<->AP
  // pair constant.
  expectBatchMatchesScalar(scalar, batched, kAp0, {100.0, 0.0},
                           {{1, {12.0, 0.0}},
                            {2, {180.0, 20.0}},
                            {kAp1, {200.0, 75.0}},
                            {3, {90.0, 0.0}}});
  // Same pairs again: cached constants, no fresh shadowing draws.
  expectBatchMatchesScalar(scalar, batched, 1, {40.0, 0.0},
                           {{2, {55.0, 0.0}}, {kAp0, {100.0, 0.0}}});
  expectSameRngPosition(scalar.envRng, batched.envRng);
}

TEST(LinkBatchEquivalenceTest, RayleighHighwayWithEightApsMatchesScalarReference) {
  // The infostation highway: 8 APs 700 m apart (highway channel: 52 dB
  // reference loss, exponent 2.6) and a platoon near the third AP. Most
  // AP<->AP links and the far AP<->car links cannot reach sensitivity
  // even at the largest Rayleigh gain, so they are deferred; the adjacent
  // APs and the near links are not.
  constexpr double kSpacing = 700.0;
  Stack scalar(/*urban=*/false, /*burst=*/false, 29, Fade::kRayleigh,
               /*roadLength=*/8 * kSpacing, 2.6, 52.0);
  Stack batched(/*urban=*/false, /*burst=*/false, 29, Fade::kRayleigh,
                /*roadLength=*/8 * kSpacing, 2.6, 52.0);
  const auto apPos = [&](int a) {
    return geom::Vec2{500.0 + a * kSpacing, 10.0};
  };
  const std::vector<Receiver> cars = {
      {1, {1850.0, 0.0}}, {2, {1830.0, 0.0}}, {3, {1810.0, 0.0}}};
  // Receivers of AP a: the other APs in attach order, then the cars.
  const auto apReceivers = [&](int a) {
    std::vector<Receiver> receivers;
    for (int b = 0; b < 8; ++b) {
      if (b != a) receivers.push_back({kAp0 + b, apPos(b)});
    }
    receivers.insert(receivers.end(), cars.begin(), cars.end());
    return receivers;
  };

  std::size_t deferred = 0;
  std::size_t planned = 0;
  for (int a = 0; a < 8; ++a) {
    // First plan of every AP<->AP link: pair constants drawn in receiver
    // order on the shadowing stream.
    const BatchedPlan first =
        expectBatchMatchesScalar(scalar, batched, kAp0 + a, apPos(a),
                                 apReceivers(a));
    // Again with the AP<->AP means known, as the radio environment hands
    // them in for two static radios: the batched path skips them, the
    // reference recomputes them, and both agree bit for bit.
    std::vector<double> known(first.meanDbm.begin(),
                              first.meanDbm.begin() + 7);
    known.resize(first.meanDbm.size(), kUnknown);
    const BatchedPlan second = expectBatchMatchesScalar(
        scalar, batched, kAp0 + a, apPos(a), apReceivers(a), known);
    deferred += first.deferred + second.deferred;
    planned += 2 * first.meanDbm.size();
  }
  // A car transmitter: every AP reads the field at the car's arc.
  std::vector<Receiver> carReceivers;
  for (int b = 0; b < 8; ++b) carReceivers.push_back({kAp0 + b, apPos(b)});
  carReceivers.push_back(cars[1]);
  carReceivers.push_back(cars[2]);
  const BatchedPlan fromCar =
      expectBatchMatchesScalar(scalar, batched, 1, cars[0].pos, carReceivers);
  deferred += fromCar.deferred;
  planned += fromCar.meanDbm.size();

  EXPECT_GT(deferred, planned / 2) << "most links are hopeless";
  EXPECT_LT(deferred, planned) << "some links are decodable";
  expectSameRngPosition(scalar.envRng, batched.envRng);
  // The shadowing streams too: a known mean drew no pair constant.
  expectBatchMatchesScalar(scalar, batched, 2, cars[1].pos,
                           {{4, {1790.0, 0.0}}, {5, {1770.0, 0.0}}});
}

TEST(LinkBatchEquivalenceTest, DefersExactlyTheReceiversNoFadeCanLift) {
  // Receivers every 5 m out to 3 km sweep the mean across the deferral
  // boundary: a receiver is deferred iff mean + maxGain < sensitivity.
  Stack batched(/*urban=*/false, /*burst=*/false, 61, Fade::kRayleigh);
  const double maxGainDb = RayleighFading{}.maxGainDb();
  const double sensitivityDbm = LinkBudget{}.sensitivityDbm;
  LinkBatch batch;
  batch.resize(600);
  for (std::size_t i = 0; i < 600; ++i) {
    batch.setReceiver(i, kAp0 + static_cast<NodeId>(i),
                      {5.0 * static_cast<double>(i + 1), 0.0});
  }
  batched.model->planBatch(1, {0.0, 0.0}, 16.0, batch, batched.envRng);
  std::size_t deferred = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool hopeless = batch.meanDbm()[i] + maxGainDb < sensitivityDbm;
    EXPECT_EQ(batch.deferred()[i] != 0, hopeless) << batch.meanDbm()[i];
    deferred += hopeless ? 1 : 0;
  }
  EXPECT_GT(deferred, 0u);
  EXPECT_LT(deferred, batch.size());
}

TEST(LinkBatchEquivalenceTest, HighwayConfigWithBurstMatchesScalarReference) {
  Stack scalar(/*urban=*/false, /*burst=*/true, 77);
  Stack batched(/*urban=*/false, /*burst=*/true, 77);
  ScalarReferenceLink reference(*scalar.model);

  const std::vector<Receiver> receivers = {{2, {250.0, 0.0}},
                                           {kAp0, {500.0, 10.0}},
                                           {3, {300.0, 3.0}},
                                           {kAp1, {1500.0, 10.0}}};
  expectBatchMatchesScalar(scalar, batched, 1, {200.0, 0.0}, receivers);

  // Burst chains: advance both overlays through an interleaved schedule
  // of links and times; state (and the per-chain streams) must match at
  // every step, including chains created lazily mid-sequence.
  for (int step = 0; step < 200; ++step) {
    const NodeId tx = (step % 3 == 0) ? kAp0 : 1;
    const NodeId rx = (step % 2 == 0) ? 2 : 3 + (step % 5);
    const sim::SimTime now = sim::SimTime::millis(step * 7.0);
    EXPECT_EQ(reference.burstLoss(tx, rx, now, 0),
              batched.model->burstLoss(tx, rx, now, 0))
        << "burst divergence at step " << step;
  }
  expectSameRngPosition(scalar.envRng, batched.envRng);
}

TEST(LinkBatchEquivalenceTest, ReceiverChurnKeepsStreamsAligned) {
  Stack scalar(/*urban=*/true, /*burst=*/false, 91);
  Stack batched(/*urban=*/true, /*burst=*/false, 91);
  // Join/leave churn: the receiver set changes between transmissions
  // (node 4 joins, node 2 leaves, node 5 joins), so plan-array sizes and
  // the lazy pair-constant draw schedule shift run to run.
  expectBatchMatchesScalar(scalar, batched, 1, {5.0, 0.0},
                           {{2, {20.0, 0.0}}, {3, {35.0, 0.0}}});
  expectBatchMatchesScalar(scalar, batched, 1, {8.0, 0.0},
                           {{2, {22.0, 0.0}},
                            {3, {37.0, 0.0}},
                            {4, {50.0, 0.0}}});
  expectBatchMatchesScalar(scalar, batched, 3, {40.0, 0.0},
                           {{4, {52.0, 0.0}}, {kAp0, {100.0, 0.0}}});
  expectBatchMatchesScalar(scalar, batched, 1, {11.0, 0.0},
                           {{4, {55.0, 0.0}}, {5, {70.0, 0.0}}});
  expectSameRngPosition(scalar.envRng, batched.envRng);
}

TEST(LinkBatchEquivalenceTest, RicianConfigMatchesScalarReference) {
  // Rician fading consumes two normals per receiver; the batched path
  // draws the uniforms per receiver and runs the Box-Muller transform
  // through the batched vmath kernel.
  Stack scalar(/*urban=*/false, /*burst=*/false, 55, Fade::kRician);
  Stack batched(/*urban=*/false, /*burst=*/false, 55, Fade::kRician);
  const std::vector<Receiver> receivers = {{2, {250.0, 0.0}},
                                           {kAp0, {500.0, 10.0}},
                                           {3, {300.0, 3.0}},
                                           {kAp1, {1500.0, 10.0}},
                                           {4, {320.0, 0.0}}};
  expectBatchMatchesScalar(scalar, batched, 1, {200.0, 0.0}, receivers);
  // Dirty Box-Muller cache: consume one normal on both environment
  // streams so the next batch enters with a cached spare variate -- the
  // batched transform must honour it (offset-by-one pairing).
  EXPECT_EQ(scalar.envRng.normal(), batched.envRng.normal());
  expectBatchMatchesScalar(scalar, batched, kAp0, {500.0, 10.0}, receivers);
  expectSameRngPosition(scalar.envRng, batched.envRng);
}

TEST(LinkBatchEquivalenceTest, NormalBatchMatchesScalarNormalDraws) {
  // Rng::normalBatch is the primitive under the batched Rician path: it
  // must be bit- and stream-identical to n scalar normal() calls through
  // every cache state (clean entry, odd count leaving a spare, dirty
  // entry, and the n=0 / n=1 edges).
  Rng a{4242};
  Rng b{4242};
  std::vector<double> z(7);
  a.normalBatch(z.data(), 7);  // clean entry, odd: leaves a cached spare
  for (double v : z) EXPECT_EQ(v, b.normal());
  std::vector<double> z2(6);
  a.normalBatch(z2.data(), 6);  // dirty entry, even total: spare again
  for (double v : z2) EXPECT_EQ(v, b.normal());
  a.normalBatch(z.data(), 0);  // no-op: must not touch stream or cache
  double one = 0.0;
  a.normalBatch(&one, 1);  // served entirely from the cached spare
  EXPECT_EQ(one, b.normal());
  expectSameRngPosition(a, b);
}

TEST(LinkBatchEquivalenceTest, SuccessProbabilityBatchMatchesScalar) {
  Stack scalar(/*urban=*/false, /*burst=*/false, 13);
  Stack batched(/*urban=*/false, /*burst=*/false, 13);
  ScalarReferenceLink reference(*scalar.model);
  const std::vector<double> sinr = {-5.0, 2.5, 8.0, 14.0, 30.0};
  std::vector<double> pScalar(sinr.size()), pBatched(sinr.size());
  reference.successProbabilityBatch(PhyMode::kDsss1Mbps, sinr.data(), 8000,
                                    pScalar.data(), sinr.size());
  batched.model->successProbabilityBatch(PhyMode::kDsss1Mbps, sinr.data(),
                                         8000, pBatched.data(), sinr.size());
  for (std::size_t i = 0; i < sinr.size(); ++i) {
    EXPECT_EQ(pScalar[i], pBatched[i]);
  }
}

TEST(LinkBatchEquivalenceTest, EmptyReceiverSetConsumesNoRandomness) {
  Stack batched(/*urban=*/true, /*burst=*/false, 3);
  Rng before = batched.envRng;  // copy: continues the sequence identically
  LinkBatch batch;
  batch.resize(0);
  batched.model->planBatch(1, {0.0, 0.0}, 16.0, batch, batched.envRng);
  EXPECT_EQ(batch.size(), 0u);
  // Environment stream untouched (probe copies: the position check
  // itself draws, and the live stream must stay pristine for the twin
  // comparison below).
  Rng probeLive = batched.envRng;
  Rng probeBefore = before;
  expectSameRngPosition(probeLive, probeBefore);
  // ...and the shadowing stream too: a twin stack that never saw the
  // empty batch must still produce identical draws afterwards.
  Stack twin(/*urban=*/true, /*burst=*/false, 3);
  expectBatchMatchesScalar(twin, batched, 1, {10.0, 0.0},
                           {{2, {30.0, 0.0}}, {kAp0, {100.0, 0.0}}});
}

}  // namespace
}  // namespace vanet::channel
