#pragma once

/// \file seq_set.h
/// Dense set of packet sequence numbers: one bit per SeqNo, grown on
/// insert. Sequence numbers start at 1 and stay dense per flow within a
/// round, so a set costs O(max seq) bits (a few hundred per flow), and
/// membership, insertion and range scans are word operations instead of
/// tree walks. The per-round bookkeeping of `trace::RoundTrace` and
/// `carq::PacketStore` is built from it.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.h"
#include "util/types.h"

namespace vanet::util {

class SeqSet {
 public:
  /// Adds `seq` (>= 1); true when it was not present yet.
  bool insert(SeqNo seq) {
    VANET_ASSERT(seq >= 1, "sequence numbers start at 1");
    const auto bit = static_cast<std::size_t>(seq);
    const std::size_t word = bit / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if ((words_[word] & mask) != 0) return false;
    words_[word] |= mask;
    ++size_;
    return true;
  }

  /// Membership; false for any seq < 1 or beyond the highest inserted.
  bool contains(SeqNo seq) const noexcept {
    if (seq < 1) return false;
    const auto bit = static_cast<std::size_t>(seq);
    const std::size_t word = bit / 64;
    return word < words_.size() && ((words_[word] >> (bit % 64)) & 1) != 0;
  }

  std::size_t size() const noexcept { return size_; }

  /// True when every seq in [lo, hi] is present (vacuously when lo > hi).
  bool containsAll(SeqNo lo, SeqNo hi) const noexcept {
    return nextAbsent(lo, hi) > hi;
  }

  /// Calls `fn(seq)` for every seq in [lo, hi] that is absent, ascending.
  template <typename Fn>
  void forEachAbsent(SeqNo lo, SeqNo hi, Fn&& fn) const {
    for (std::int64_t seq = nextAbsent(lo, hi); seq <= hi;
         seq = nextAbsent(seq + 1, hi)) {
      fn(static_cast<SeqNo>(seq));
    }
  }

 private:
  /// Smallest absent seq in [from, hi]; hi + 1 when there is none. 64-bit
  /// so that hi + 1 cannot overflow.
  std::int64_t nextAbsent(std::int64_t from, std::int64_t hi) const noexcept {
    if (from < 1) return from <= hi ? from : hi + 1;  // never present
    for (std::int64_t seq = from; seq <= hi;) {
      const auto bit = static_cast<std::uint64_t>(seq);
      const std::size_t word = bit / 64;
      if (word >= words_.size()) return seq;
      const std::uint64_t absent = ~words_[word] >> (bit % 64);
      if (absent != 0) {
        const std::int64_t found = seq + std::countr_zero(absent);
        return found <= hi ? found : hi + 1;
      }
      seq = static_cast<std::int64_t>((word + 1) * 64);
    }
    return hi + 1;
  }

  std::vector<std::uint64_t> words_;  ///< bit `seq` of the set
  std::size_t size_ = 0;
};

}  // namespace vanet::util
