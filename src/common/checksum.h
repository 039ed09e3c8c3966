// RFC 1071 Internet checksum: the 16-bit one's complement of the one's
// complement sum, used by the CBT data and control headers (section 8)
// and by the simulated IP/IGMP headers.
//
// Defined inline so that a call site whose length is a constant (the
// 20-byte IPv4 header in ParseDatagram and Ipv4Header::Encode, the
// 28-byte CBT data header when it is encoded) compiles to straight-line
// code instead of a call and a loop.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace cbt {

/// Computes the Internet checksum over `data`. Any embedded checksum field
/// must be zero when computing, so that Verify (sum == 0xFFFF complement)
/// holds on receive.
///
/// RFC 1071 section 2(B): the one's complement sum is byte-order
/// independent, so whole native words are summed and the folded result
/// swapped into network order once at the end. Words are accumulated as
/// 32-bit halves into a 64-bit total, which cannot overflow for any buffer
/// shorter than 2^32 words; the fold then carries the excess back in.
inline std::uint16_t InternetChecksum(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = 0;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    sum += (w & 0xFFFFFFFFu) + (w >> 32);
  }
  if (n >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, 4);
    sum += w;
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    std::uint16_t w;
    std::memcpy(&w, p, 2);
    sum += w;
    p += 2;
    n -= 2;
  }
  if (n == 1) {
    // The odd trailing byte is the high-order byte of a zero-padded
    // network-order word, i.e. the first byte of that word in memory.
    const std::uint8_t pad[2] = {*p, 0};
    std::uint16_t w;
    std::memcpy(&w, pad, 2);
    sum += w;
  }
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  auto folded = static_cast<std::uint16_t>(sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  }
  return static_cast<std::uint16_t>(~folded);
}

/// The Internet checksum of a header whose fields, read as big-endian
/// integers of 16 or 32 bits, add up to `sum` (the checksum field counted
/// as zero). Encoders add up the field values they hold in registers
/// instead of re-reading the bytes they just stored. The result equals
/// InternetChecksum over the encoded bytes: 2^16 == 1 modulo 0xFFFF, so a
/// 32-bit field adds the same as its two 16-bit words, the fold's result
/// does not depend on how the words were grouped (a nonzero sum has
/// exactly one folded value in [1, 0xFFFF]; a zero sum folds to zero),
/// and InternetChecksum's byte-swapped sum swaps back to it.
inline std::uint16_t ChecksumOfFieldSum(std::uint64_t sum) {
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// True if a buffer that *includes* its checksum field sums correctly.
inline bool VerifyInternetChecksum(std::span<const std::uint8_t> data) {
  // A buffer containing a correct checksum sums to zero after folding.
  return InternetChecksum(data) == 0;
}

}  // namespace cbt
