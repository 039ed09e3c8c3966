// Differential tests for the fixed-offset IPv4 codec and the incremental
// TTL rewrite. Each is checked against a test-local reference written the
// straightforward way: a BufferReader field-by-field decoder, a
// BufferWriter encoder, a byte-wise RFC 1071 checksum and a full header
// recompute after a TTL change. The fast paths must agree with them on
// acceptance, on every decoded field and on every byte they write.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/random.h"
#include "packet/ipv4.h"

namespace cbt::packet {
namespace {

/// RFC 1071, one network-order 16-bit word at a time.
std::uint16_t BytewiseChecksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (std::uint32_t{data[i]} << 8) | data[i + 1];
  }
  if (i < data.size()) sum += std::uint32_t{data[i]} << 8;
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xFFFFu);
}

/// The header decoder as it was written over BufferReader, with the
/// checksum, version, fragment and length rules applied in its order.
std::optional<ParsedDatagram> ReferenceParse(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kIpv4HeaderSize) return std::nullopt;
  if (BytewiseChecksum(bytes.first(kIpv4HeaderSize)) != 0) return std::nullopt;
  BufferReader in(bytes);
  Ipv4Header h;
  const std::uint8_t ver_ihl = in.ReadU8();
  if ((ver_ihl >> 4) != 4 || (ver_ihl & 0x0F) != 5) return std::nullopt;
  h.tos = in.ReadU8();
  h.total_length = in.ReadU16();
  h.identification = in.ReadU16();
  if (in.ReadU16() != 0) return std::nullopt;
  h.ttl = in.ReadU8();
  h.protocol = static_cast<IpProtocol>(in.ReadU8());
  in.ReadU16();
  h.src = in.ReadAddress();
  h.dst = in.ReadAddress();
  if (!in.ok()) return std::nullopt;
  if (h.total_length < kIpv4HeaderSize || h.total_length > bytes.size()) {
    return std::nullopt;
  }
  return ParsedDatagram{
      h, bytes.subspan(kIpv4HeaderSize, h.total_length - kIpv4HeaderSize)};
}

/// The header encoder as it was written over a big-endian writer.
std::vector<std::uint8_t> ReferenceEncode(const Ipv4Header& h,
                                          std::size_t payload_size) {
  BufferWriter w;
  w.WriteU8(0x45);
  w.WriteU8(h.tos);
  w.WriteU16(static_cast<std::uint16_t>(kIpv4HeaderSize + payload_size));
  w.WriteU16(h.identification);
  w.WriteU16(0);
  w.WriteU8(h.ttl);
  w.WriteU8(static_cast<std::uint8_t>(h.protocol));
  w.WriteU16(0);
  w.WriteAddress(h.src);
  w.WriteAddress(h.dst);
  w.PatchU16(10, BytewiseChecksum(w.View()));
  return std::move(w).Take();
}

/// Recomputes the header checksum from scratch (field zeroed, then
/// summed); tests call it after editing header fields.
void Reseal(std::span<std::uint8_t> bytes) {
  bytes[10] = 0;
  bytes[11] = 0;
  const std::uint16_t sum = BytewiseChecksum(bytes.first(kIpv4HeaderSize));
  bytes[10] = static_cast<std::uint8_t>(sum >> 8);
  bytes[11] = static_cast<std::uint8_t>(sum);
}

/// The TTL rewrite as a full recompute: new TTL, then Reseal.
void ReferenceRewriteTtl(std::span<std::uint8_t> bytes, std::uint8_t ttl) {
  bytes[8] = ttl;
  Reseal(bytes);
}

Ipv4Header RandomHeader(Rng& rng) {
  Ipv4Header h;
  h.tos = static_cast<std::uint8_t>(rng.NextBelow(256));
  h.identification = static_cast<std::uint16_t>(rng.NextBelow(65536));
  h.ttl = static_cast<std::uint8_t>(rng.NextBelow(256));
  h.protocol = static_cast<IpProtocol>(rng.NextBelow(256));
  h.src = Ipv4Address(static_cast<std::uint32_t>(rng.NextU64()));
  h.dst = Ipv4Address(static_cast<std::uint32_t>(rng.NextU64()));
  return h;
}

/// A valid datagram of `payload` random bytes built by the reference.
std::vector<std::uint8_t> RandomDatagram(Rng& rng, std::size_t payload) {
  std::vector<std::uint8_t> bytes = ReferenceEncode(RandomHeader(rng), payload);
  for (std::size_t i = 0; i < payload; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(rng.NextBelow(256)));
  }
  return bytes;
}

/// Both parsers must accept and reject alike; when they accept, every
/// field and the payload view (same bytes, same place) must be equal.
void ExpectSameParse(std::span<const std::uint8_t> bytes,
                     const std::string& what) {
  const auto got = ParseDatagram(bytes);
  const auto want = ReferenceParse(bytes);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  EXPECT_EQ(got->ip.tos, want->ip.tos) << what;
  EXPECT_EQ(got->ip.total_length, want->ip.total_length) << what;
  EXPECT_EQ(got->ip.identification, want->ip.identification) << what;
  EXPECT_EQ(got->ip.ttl, want->ip.ttl) << what;
  EXPECT_EQ(got->ip.protocol, want->ip.protocol) << what;
  EXPECT_EQ(got->ip.src, want->ip.src) << what;
  EXPECT_EQ(got->ip.dst, want->ip.dst) << what;
  EXPECT_EQ(got->payload.data(), want->payload.data()) << what;
  EXPECT_EQ(got->payload.size(), want->payload.size()) << what;
}

TEST(Ipv4FastPath, ParseMatchesReaderDecoderOnRandomBuffers) {
  Rng rng(791);
  // Raw random bytes at every alignment; almost all fail the checksum,
  // so half of them are re-sealed to reach the field rules as well.
  std::vector<std::uint8_t> backing(8 + 64);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t offset = rng.NextBelow(8);
    const std::size_t len = rng.NextBelow(65);
    for (std::uint8_t& b : backing) {
      b = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    const std::span<std::uint8_t> view(backing.data() + offset, len);
    if (len >= kIpv4HeaderSize && rng.NextBool(0.5)) {
      view[0] = rng.NextBool(0.5) ? 0x45 : view[0];
      if (rng.NextBool(0.5)) view[6] = view[7] = 0;
      if (rng.NextBool(0.5)) {
        const auto tl = static_cast<std::uint16_t>(
            kIpv4HeaderSize + rng.NextBelow(len - kIpv4HeaderSize + 2));
        view[2] = static_cast<std::uint8_t>(tl >> 8);
        view[3] = static_cast<std::uint8_t>(tl);
      }
      Reseal(view);
    }
    ExpectSameParse(view, "trial " + std::to_string(trial));
  }
}

TEST(Ipv4FastPath, ParseMatchesReaderDecoderOnEveryTruncation) {
  Rng rng(20);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<std::uint8_t> bytes = RandomDatagram(rng, 20);
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      ExpectSameParse(std::span<const std::uint8_t>(bytes.data(), cut),
                      "cut " + std::to_string(cut));
    }
    // The full datagram parses; any cut into its payload is a length error.
    EXPECT_TRUE(ParseDatagram(bytes).has_value());
    EXPECT_FALSE(ParseDatagram(std::span<const std::uint8_t>(
                                   bytes.data(), bytes.size() - 1))
                     .has_value());
  }
}

TEST(Ipv4FastPath, ParseMatchesReaderDecoderOnEverySingleBitFlip) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<std::uint8_t> bytes = RandomDatagram(rng, 20);
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
        ExpectSameParse(flipped, "byte " + std::to_string(byte) + " bit " +
                                     std::to_string(bit));
        // A header flip is always caught; a payload flip never matters.
        EXPECT_EQ(ParseDatagram(flipped).has_value(), byte >= kIpv4HeaderSize);
      }
    }
  }
}

TEST(Ipv4FastPath, ParseMatchesReaderDecoderAtFieldEdgeValues) {
  Rng rng(45);
  const std::uint8_t firsts[] = {0x00, 0x05, 0x35, 0x40, 0x44, 0x45,
                                 0x46, 0x4F, 0x55, 0xC5, 0xFF};
  const std::uint16_t flags[] = {0x0000, 0x0001, 0x00FF, 0x1FFF, 0x2000,
                                 0x4000, 0x8000, 0xFFFF};
  for (const std::size_t payload : {0u, 1u, 20u}) {
    const std::vector<std::uint8_t> base = RandomDatagram(rng, payload);
    const std::size_t size = base.size();
    const std::size_t lengths[] = {0,        1,    19,       20,     21,
                                   size - 1, size, size + 1, 0xFFFF};
    for (const std::uint8_t first : firsts) {
      for (const std::uint16_t flag : flags) {
        for (const std::size_t tl : lengths) {
          std::vector<std::uint8_t> bytes = base;
          bytes[0] = first;
          bytes[6] = static_cast<std::uint8_t>(flag >> 8);
          bytes[7] = static_cast<std::uint8_t>(flag);
          bytes[2] = static_cast<std::uint8_t>(tl >> 8);
          bytes[3] = static_cast<std::uint8_t>(tl);
          Reseal(bytes);
          const std::string what = "first " + std::to_string(first) +
                                   " flags " + std::to_string(flag) +
                                   " total_length " + std::to_string(tl);
          ExpectSameParse(bytes, what);
          const bool valid = first == 0x45 && flag == 0 &&
                             tl >= kIpv4HeaderSize && tl <= size;
          EXPECT_EQ(ParseDatagram(bytes).has_value(), valid) << what;
        }
      }
    }
  }
}

TEST(Ipv4FastPath, EncodeMatchesWriterReference) {
  Rng rng(1500);
  std::vector<std::uint8_t> backing(8 + kIpv4HeaderSize);
  for (int trial = 0; trial < 2000; ++trial) {
    const Ipv4Header h = RandomHeader(rng);
    const std::size_t payload = rng.NextBelow(1481);
    const std::vector<std::uint8_t> want = ReferenceEncode(h, payload);
    // Encode into a span at every alignment, over stale bytes.
    const std::size_t offset = rng.NextBelow(8);
    std::fill(backing.begin(), backing.end(), std::uint8_t{0xA5});
    h.Encode(std::span<std::uint8_t>(backing.data() + offset, kIpv4HeaderSize),
             payload);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), backing.begin() + offset))
        << "trial " << trial;
    // The writer overload too, and the datagram builder around it.
    BufferWriter w;
    h.Encode(w, payload);
    ASSERT_TRUE(std::ranges::equal(w.View(), want)) << "trial " << trial;
    const auto dgram =
        BuildDatagram(h, std::vector<std::uint8_t>(payload, 0x11));
    ASSERT_TRUE(std::equal(want.begin(), want.end(), dgram.begin()));
  }
}

/// A verified header whose checksum field reads `checksum_form`: 0x0000
/// for the encoder's own output when the other words sum to 0xFFFF, or
/// 0xFFFF (negative zero), which also verifies.
std::vector<std::uint8_t> HeaderSummingToAllOnes(Rng& rng,
                                                 std::uint16_t checksum_form) {
  std::vector<std::uint8_t> bytes = RandomDatagram(rng, 4);
  // Pick the identification word so that the header's other words sum,
  // end-around, to 0xFFFF: the checksum is then 0x0000.
  bytes[4] = 0;
  bytes[5] = 0;
  Reseal(bytes);
  const std::uint16_t rest =
      static_cast<std::uint16_t>(~((bytes[10] << 8) | bytes[11]));
  const auto id = static_cast<std::uint16_t>(0xFFFF - rest);
  bytes[4] = static_cast<std::uint8_t>(id >> 8);
  bytes[5] = static_cast<std::uint8_t>(id);
  Reseal(bytes);
  EXPECT_EQ(bytes[10], 0);
  EXPECT_EQ(bytes[11], 0);
  bytes[10] = static_cast<std::uint8_t>(checksum_form >> 8);
  bytes[11] = static_cast<std::uint8_t>(checksum_form);
  return bytes;
}

TEST(Ipv4FastPath, TtlRewriteEqualsFullRecomputeForEveryTtl) {
  Rng rng(1624);
  std::vector<std::vector<std::uint8_t>> headers;
  for (int i = 0; i < 200; ++i) headers.push_back(RandomDatagram(rng, 8));
  for (int i = 0; i < 50; ++i) {
    headers.push_back(HeaderSummingToAllOnes(rng, 0x0000));
    headers.push_back(HeaderSummingToAllOnes(rng, 0xFFFF));
  }
  for (std::size_t h = 0; h < headers.size(); ++h) {
    const std::vector<std::uint8_t>& original = headers[h];
    ASSERT_TRUE(ParseDatagram(original).has_value()) << "header " << h;
    for (int ttl = 0; ttl <= 255; ++ttl) {
      std::vector<std::uint8_t> got = original;
      std::vector<std::uint8_t> want = original;
      RewriteTtl(got, static_cast<std::uint8_t>(ttl));
      ReferenceRewriteTtl(want, static_cast<std::uint8_t>(ttl));
      ASSERT_EQ(got, want) << "header " << h << " ttl " << ttl;
    }
  }
}

TEST(Ipv4FastPath, TtlRewriteChainsAcrossHops) {
  // A transit path rewrites the header it rewrote at the previous hop;
  // the chain must stay bit-equal to recomputing at every hop.
  Rng rng(64);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> got = RandomDatagram(rng, 16);
    got[8] = 255;
    Reseal(got);
    std::vector<std::uint8_t> want = got;
    for (int ttl = 254; ttl >= 0; --ttl) {
      RewriteTtl(got, static_cast<std::uint8_t>(ttl));
      ReferenceRewriteTtl(want, static_cast<std::uint8_t>(ttl));
      ASSERT_EQ(got, want) << "trial " << trial << " ttl " << ttl;
      ASSERT_TRUE(ParseDatagram(got).has_value());
    }
  }
}

}  // namespace
}  // namespace cbt::packet
