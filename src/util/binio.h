#pragma once

/// \file binio.h
/// Little-endian binary reader/writer primitives for the compact campaign
/// formats (runner/partial_binary.h). Fixed-width integers are encoded
/// explicitly byte by byte (so the wire format is host-endianness
/// independent; on little-endian hosts the compiler folds the shifts into
/// single moves), doubles are encoded as their raw IEEE-754 bit pattern
/// (bit-exact round trips, the same guarantee json::num gives the text
/// formats), and strings are u32-length-prefixed byte runs.
///
/// BinReader is bounds-checked: every read that would run past the end
/// throws std::runtime_error naming the byte offset and what was being
/// read, which is what lets the partial-format layer report "truncated at
/// byte N while reading X" for damaged shard files.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vanet::util {

/// FNV-1a 64-bit over a byte range: the checksum the binary partial
/// format appends so bit rot in a shard file fails loudly instead of
/// merging silently-wrong doubles. Incremental form: feed chunks with
/// the previous return value as `seed`.
inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                             std::uint64_t seed = 0xcbf29ce484222325ull) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Appends little-endian fixed-width values to a growing byte buffer.
class BinWriter {
 public:
  void u8(std::uint8_t value) { buf_.push_back(static_cast<char>(value)); }

  void u32(std::uint32_t value) {
    char bytes[4];
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    buf_.append(bytes, sizeof bytes);
  }

  void u64(std::uint64_t value) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    buf_.append(bytes, sizeof bytes);
  }

  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }

  /// Raw IEEE-754 payload: the double's bit pattern, bit-exact (NaN
  /// payloads and signed zeros included).
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  /// u32 byte length + the bytes (no terminator, any payload allowed).
  void str(std::string_view text) {
    u32(static_cast<std::uint32_t>(text.size()));
    buf_.append(text.data(), text.size());
  }

  void raw(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  /// Overwrites the u64 previously written at `offset` (length framing:
  /// reserve with u64(0), fill in once the section length is known).
  void patchU64(std::size_t offset, std::uint64_t value) {
    if (offset + 8 > buf_.size()) {
      throw std::logic_error("BinWriter::patchU64 out of range");
    }
    for (int i = 0; i < 8; ++i) {
      buf_[offset + static_cast<std::size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xff);
    }
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const std::string& buffer() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over an in-memory byte range. The optional
/// `baseOffset` is added to reported offsets, so a reader constructed
/// over one section of a larger file still reports absolute file offsets
/// in its errors.
class BinReader {
 public:
  explicit BinReader(std::string_view data, std::size_t baseOffset = 0)
      : data_(data), base_(baseOffset) {}

  std::size_t offset() const noexcept { return base_ + pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool atEnd() const noexcept { return pos_ == data_.size(); }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 4;
    return value;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  std::int32_t i32(const char* what) {
    return static_cast<std::int32_t>(u32(what));
  }
  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }
  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }

  std::string str(const char* what) {
    const std::uint32_t length = u32(what);
    need(length, what);
    std::string out(data_.substr(pos_, length));
    pos_ += length;
    return out;
  }

  /// A sub-view of `length` bytes from the current position (consumed),
  /// for delegating one length-framed record to a nested reader.
  std::string_view view(std::size_t length, const char* what) {
    need(length, what);
    const std::string_view out = data_.substr(pos_, length);
    pos_ += length;
    return out;
  }

  /// Throws unless `count` more bytes are available; names the absolute
  /// byte offset and the field being read.
  void need(std::size_t count, const char* what) const {
    if (count > data_.size() - pos_) {
      throw std::runtime_error(
          "truncated at byte offset " + std::to_string(offset()) +
          " while reading " + what + " (need " + std::to_string(count) +
          " bytes, have " + std::to_string(data_.size() - pos_) + ")");
    }
  }

  /// Throws unless `count` elements of at least `minSize` encoded bytes
  /// each fit in the bytes left. Run on a count read from the stream
  /// before it sizes an allocation, so a damaged count fails by name
  /// here instead of exhausting memory.
  void needCount(std::uint64_t count, std::size_t minSize,
                 const char* what) const {
    if (count > remaining() / minSize) {
      throw std::runtime_error(
          std::string(what) + " " + std::to_string(count) +
          " is implausible at byte offset " + std::to_string(offset()) +
          ": each entry takes at least " + std::to_string(minSize) +
          " bytes, " + std::to_string(remaining()) + " are left");
    }
  }

 private:
  std::string_view data_;
  std::size_t base_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace vanet::util
