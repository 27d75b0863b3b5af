/// \file corner_c_study.cpp
/// Probes the paper's explanation for its Table-1 anomaly: at corner C
/// car 3 closed on car 2, so "their reception conditions on the street
/// ... [became] quite similar" near the end of the coverage area. We
/// quantify that with the phi coefficient (Pearson correlation of binary
/// reception indicators) between car 2's and car 3's reception of car 2's
/// packets, separately for the head and the tail of the window, with the
/// corner-C convergence on and off.
///
///   $ ./corner_c_study [--rounds=20] [--seed=3]

#include <cmath>
#include <iomanip>
#include <iostream>

#include "analysis/experiment.h"
#include "util/flags.h"

namespace {

using namespace vanet;

struct PhiAccumulator {
  // 2x2 contingency counts of (car2 received, car3 received).
  double n11 = 0, n10 = 0, n01 = 0, n00 = 0;

  void add(bool a, bool b) {
    if (a && b) ++n11;
    else if (a && !b) ++n10;
    else if (!a && b) ++n01;
    else ++n00;
  }

  double phi() const {
    const double a = n11, b = n10, c = n01, d = n00;
    const double denom =
        std::sqrt((a + b) * (c + d) * (a + c) * (b + d));
    return denom > 0.0 ? (a * d - b * c) / denom : 0.0;
  }
};

struct StudyResult {
  double phiHead = 0.0;
  double phiTail = 0.0;
};

StudyResult run(double closeGapSeconds, int rounds, std::uint64_t seed) {
  analysis::UrbanExperimentConfig config;
  config.rounds = rounds;
  config.seed = seed;
  config.scenario.cornerCCloseGapSeconds = closeGapSeconds;
  analysis::UrbanExperiment experiment(config);

  PhiAccumulator head;
  PhiAccumulator tail;
  for (int round = 0; round < rounds; ++round) {
    const trace::RoundTrace trace = experiment.runRound(round).trace;
    const auto window = trace.associationWindow(2);
    if (!window.has_value()) continue;
    const auto seqs =
        trace.seqsTransmittedDuring(2, window->first, window->second);
    const std::size_t n = seqs.size();
    for (std::size_t i = 0; i < n; ++i) {
      const bool rx2 = trace.wasOverheard(2, 2, seqs[i]);
      const bool rx3 = trace.wasOverheard(3, 2, seqs[i]);
      if (i < n / 3) {
        head.add(rx2, rx3);
      } else if (i >= (2 * n) / 3) {
        tail.add(rx2, rx3);
      }
    }
  }
  return {head.phi(), tail.phi()};
}

}  // namespace

int main(int argc, char** argv) {
  const vanet::Flags flags(argc, argv);
  flags.allowOnly({"rounds", "seed", "log-level"});
  vanet::applyLogLevelFlag(flags);
  const int rounds = flags.getInt("rounds", 20);
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 3));

  std::cout << "Correlation (phi) between car 2's and car 3's reception of"
               " car 2's packets,\nhead vs tail of the coverage window ("
            << rounds << " rounds):\n\n";
  std::cout << std::left << std::setw(26) << "corner-C convergence"
            << std::right << std::setw(12) << "head phi" << std::setw(12)
            << "tail phi" << "\n";
  std::cout << std::fixed << std::setprecision(3);

  const StudyResult with = run(0.9, rounds, seed);
  const StudyResult without = run(4.0, rounds, seed);  // gap never closes
  std::cout << std::left << std::setw(26) << "on (paper's corner C)"
            << std::right << std::setw(12) << with.phiHead << std::setw(12)
            << with.phiTail << "\n";
  std::cout << std::left << std::setw(26) << "off (constant gaps)"
            << std::right << std::setw(12) << without.phiHead << std::setw(12)
            << without.phiTail << "\n";

  std::cout << "\nWith the convergence on, cars 2 and 3 are a few metres"
               " apart by the end of\nthe covered street: their shadowing"
               " (and thus their losses) correlate in the\ntail, exactly the"
               " behaviour the paper uses to explain its Table-1 anomaly.\n";
  return 0;
}
