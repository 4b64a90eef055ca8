// CRC-32 (IEEE 802.3 polynomial) used to checksum d/stream record headers.
#pragma once

#include <cstdint>
#include <span>

#include "util/bytes.h"

namespace pcxx {

/// Incremental CRC-32. Construct, feed bytes with update(), read value().
///
/// On x86-64 hosts with PCLMULQDQ, update() folds the 16-byte-multiple bulk
/// of any input of 64 bytes or more with carry-less multiplies; the tail,
/// short inputs and other hosts use slicing-by-8 tables. The kernel is chosen
/// once, at static initialisation; both give identical values.
class Crc32 {
 public:
  void update(std::span<const Byte> data);
  /// Finalized CRC of everything fed so far.
  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte span.
std::uint32_t crc32(std::span<const Byte> data);

/// Combine CRCs of two adjacent blocks: given crcA = crc32(A) and
/// crcB = crc32(B), returns crc32(A || B) where B has `lenB` bytes — the
/// zlib crc32_combine construction (multiply by x^(8 * lenB) mod P, from a
/// table of x^(2^k) mod P). This is what lets each node checksum only its
/// own block of a node-order parallel write and still produce the checksum
/// of the whole data section.
std::uint32_t crc32Combine(std::uint32_t crcA, std::uint32_t crcB,
                           std::uint64_t lenB);

/// Test hooks: the kernels behind Crc32::update. Each advances a raw
/// (un-finalised) CRC register `state` over `data`.
namespace detail {

/// Slicing-by-8 table kernel; any length, any host.
std::uint32_t crc32Table(std::uint32_t state, std::span<const Byte> data);

/// True when this host runs the PCLMULQDQ folding kernel.
bool crc32FoldAvailable();

/// PCLMULQDQ folding kernel. Requires crc32FoldAvailable() and a length
/// that is a multiple of 16 and at least 64.
std::uint32_t crc32Fold(std::uint32_t state, std::span<const Byte> data);

}  // namespace detail

}  // namespace pcxx
