#include "channel/fading.h"

#include <cmath>
#include <vector>

#include "util/assert.h"
#include "util/vmath.h"

namespace vanet::channel {

double RayleighFading::sampleDb(Rng& rng) const {
  double u;
  drawBatch(rng, &u, 1);
  return gainFromDraw(u);
}

double RayleighFading::maxGainDb() const {
  // Every draw is at least 2^-53 (Rng::uniform has 53 bits), and -ln u
  // falls by ~0.69 per doubling of u there, so no neighbouring draw comes
  // within an ulp of this gain; the margin covers the kernels' rounding.
  constexpr double kMarginDb = 1e-6;
  return gainFromDraw(0x1.0p-53) + kMarginDb;
}

void RayleighFading::drawBatch(Rng& rng, double* draws, std::size_t n) const {
  // Power gain is exponential with unit mean; guard against log(0).
  for (std::size_t i = 0; i < n; ++i) {
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    draws[i] = u;
  }
}

double RayleighFading::gainFromDraw(double draw) const {
  const double power = -vmath::vlog(draw);
  return vmath::vlinear2db(power);
}

RicianFading::RicianFading(double kFactor) : k_(kFactor) {
  VANET_ASSERT(k_ >= 0.0, "Rician K-factor must be non-negative");
}

NakagamiFading::NakagamiFading(double m) : m_(m) {
  VANET_ASSERT(m_ >= 0.5, "Nakagami m must be at least 0.5");
}

namespace {

/// Marsaglia-Tsang gamma sampler for shape >= 0.5 (unit scale). For
/// shape < 1 uses the standard boost Gamma(a) = Gamma(a+1) * U^(1/a).
double sampleGamma(double shape, Rng& rng) {
  if (shape < 1.0) {
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    return sampleGamma(shape + 1.0, rng) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = rng.normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = rng.uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 &&
        vmath::vlog(u) < 0.5 * x * x + d * (1.0 - v + vmath::vlog(v))) {
      return d * v;
    }
  }
}

}  // namespace

double NakagamiFading::sampleDb(Rng& rng) const {
  // Power ~ Gamma(m, 1/m): unit mean, variance 1/m.
  const double power = sampleGamma(m_, rng) / m_;
  return vmath::vlinear2db(power);
}

double RicianFading::sampleDb(Rng& rng) const {
  // Complex gain = sqrt(K/(K+1)) + CN(0, 1/(K+1)); power normalised to
  // unit mean.
  const double losAmplitude = std::sqrt(k_ / (k_ + 1.0));
  const double scatterSigma = std::sqrt(1.0 / (2.0 * (k_ + 1.0)));
  const double re = losAmplitude + rng.normal(0.0, scatterSigma);
  const double im = rng.normal(0.0, scatterSigma);
  const double power = re * re + im * im;
  return vmath::vlinear2db(power);
}

// Batched variants: uniforms are drawn per receiver in the exact order the
// scalar loop would consume them (RNG stream positions unchanged; the
// twin-stack tests in tests/channel/link_batch_test.cpp prove this), then
// the log / Box-Muller / dB transforms run through the batched vmath
// kernels -- which are bit-identical to the scalar kernels the sampleDb
// methods above use, so values match the scalar loop bit for bit.

void RayleighFading::sampleDbBatch(Rng& rng, double* out,
                                   std::size_t n) const {
  drawBatch(rng, out, n);
  gainFromDrawBatch(out, out, n);
}

void RayleighFading::gainFromDrawBatch(const double* draws, double* out,
                                       std::size_t n) const {
  vmath::vlog(draws, out, n);
  for (std::size_t i = 0; i < n; ++i) out[i] = -out[i];
  vmath::vlinear2db(out, out, n);
}

void RicianFading::sampleDbBatch(Rng& rng, double* out, std::size_t n) const {
  const double losAmplitude = std::sqrt(k_ / (k_ + 1.0));
  const double scatterSigma = std::sqrt(1.0 / (2.0 * (k_ + 1.0)));
  thread_local std::vector<double> z;
  z.resize(2 * n);
  rng.normalBatch(z.data(), 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    // Same association as the scalar path: rng.normal(0, sigma) returns
    // 0.0 + sigma * z, then losAmplitude is added.
    const double re = losAmplitude + (0.0 + scatterSigma * z[2 * i]);
    const double im = 0.0 + scatterSigma * z[2 * i + 1];
    out[i] = re * re + im * im;
  }
  vmath::vlinear2db(out, out, n);
}

void NakagamiFading::sampleDbBatch(Rng& rng, double* out,
                                   std::size_t n) const {
  // The rejection sampler stays scalar (data-dependent draw counts), but
  // its normals now ride the vmath Box-Muller and the final dB conversion
  // is one batched pass.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = sampleGamma(m_, rng) / m_;
  }
  vmath::vlinear2db(out, out, n);
}

}  // namespace vanet::channel
