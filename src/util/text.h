#pragma once

/// \file text.h
/// Small string helpers shared by the diagnostic paths: Levenshtein edit
/// distance and nearest-name lookup, used for the "did you mean" hints
/// the flag parser and the campaign-spec validator attach to unknown
/// names. Header-only; nothing here is performance-sensitive.

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace vanet::util {

/// Levenshtein edit distance (insertions, deletions, substitutions all
/// cost 1). O(|a| * |b|) time, O(|b|) memory.
inline std::size_t editDistance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t previous = row[j];
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
      diagonal = previous;
    }
  }
  return row[b.size()];
}

/// The candidate closest to `name` by edit distance, or an empty string
/// when nothing is within max(1, min(3, |name| / 3)) edits: the cap
/// grows with the typed name, because a hint further away than that
/// would mislead more than it helps ("seed" is 3 edits from "shard",
/// which is no typo of it). Ties resolve to the first candidate in
/// iteration order, so sorted candidate lists give deterministic hints.
inline std::string nearestName(std::string_view name,
                               const std::vector<std::string>& candidates) {
  const std::size_t maxDistance =
      std::max<std::size_t>(1, std::min<std::size_t>(3, name.size() / 3));
  std::string best;
  std::size_t bestDistance = maxDistance + 1;
  for (const std::string& candidate : candidates) {
    const std::size_t distance = editDistance(name, candidate);
    if (distance < bestDistance) {
      bestDistance = distance;
      best = candidate;
    }
  }
  return best;
}

}  // namespace vanet::util
