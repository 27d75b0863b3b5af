#pragma once

/// \file selection.h
/// Cooperator-selection policies. The paper uses every one-hop neighbour
/// and explicitly leaves optimal selection as future work (§6); kBestRssi
/// and kRandomK exist for the cooperator-selection ablation
/// (specs/ablation_cooperator_selection.json).

#include <vector>

#include "core/config.h"
#include "util/rng.h"
#include "util/types.h"

namespace vanet::carq {

class PeerMap;  // defined in cooperator_table.h

/// Returns the announced cooperator list under `policy`.
///
/// `current` is the existing ordered list (first-heard order); peers that
/// disappeared from `peers` are dropped under every policy. The result
/// never exceeds `maxCooperators` except under kAllOneHop, which is
/// unbounded like the paper's prototype.
std::vector<NodeId> selectCooperators(SelectionPolicy policy,
                                      const PeerMap& peers,
                                      const std::vector<NodeId>& current,
                                      int maxCooperators, Rng& rng);

}  // namespace vanet::carq
