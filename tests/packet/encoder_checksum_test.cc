// Differential tests for the encoders' field-value checksums.
//
// Ipv4Header::Encode, IgmpMessage::EncodeTo and ControlPacket::EncodeTo
// add up their field values instead of re-reading the bytes they store.
// Each test encodes a message and checks the checksum it wrote against
// InternetChecksum over the encoded bytes with the checksum field zeroed,
// over random fields, every message type and core-list length, and sums
// that fold to 0xFFFF (whose checksum is 0x0000).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/checksum.h"
#include "common/random.h"
#include "packet/cbt_control.h"
#include "packet/igmp.h"
#include "packet/ipv4.h"

namespace cbt::packet {
namespace {

constexpr int kTrials = 2000;

/// InternetChecksum over `bytes` with the field at `offset` zeroed.
std::uint16_t Reference(std::span<const std::uint8_t> bytes,
                        std::size_t offset) {
  std::vector<std::uint8_t> copy(bytes.begin(), bytes.end());
  copy[offset] = copy[offset + 1] = 0;
  return InternetChecksum(copy);
}

/// The one's complement sum of `bytes` as big-endian words, folded.
std::uint16_t FoldedSum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < bytes.size(); i += 2) {
    sum += LoadBe16(bytes.data() + i);
  }
  while (sum >> 16) sum = (sum & 0xFFFFu) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

/// The low 16 bits `low` must take so that a message whose other words
/// fold to `folded` (with `low` zero) folds to 0xFFFF.
std::uint16_t LowWordForAllOnes(std::uint16_t folded) {
  return static_cast<std::uint16_t>(0xFFFFu - folded);
}

Ipv4Address RandomAddress(Rng& rng) {
  return Ipv4Address(static_cast<std::uint32_t>(rng.NextU64()));
}

std::uint8_t RandomByte(Rng& rng) {
  return static_cast<std::uint8_t>(rng.NextBelow(256));
}

// --- IPv4 header -----------------------------------------------------------

std::vector<std::uint8_t> EncodeIpv4(const Ipv4Header& h,
                                     std::size_t payload_size) {
  std::vector<std::uint8_t> out(kIpv4HeaderSize);
  h.Encode(out, payload_size);
  return out;
}

Ipv4Header RandomIpv4(Rng& rng) {
  Ipv4Header h;
  h.tos = RandomByte(rng);
  h.identification = static_cast<std::uint16_t>(rng.NextBelow(65536));
  h.ttl = RandomByte(rng);
  h.protocol = static_cast<IpProtocol>(RandomByte(rng));
  h.src = RandomAddress(rng);
  h.dst = RandomAddress(rng);
  return h;
}

TEST(EncoderChecksum, Ipv4RandomFields) {
  Rng rng(11);
  for (int t = 0; t < kTrials; ++t) {
    const Ipv4Header h = RandomIpv4(rng);
    const auto payload = static_cast<std::size_t>(
        rng.NextBelow(65536 - kIpv4HeaderSize));
    const auto bytes = EncodeIpv4(h, payload);
    ASSERT_EQ(LoadBe16(bytes.data() + 10), Reference(bytes, 10)) << t;
    ASSERT_TRUE(VerifyInternetChecksum(bytes)) << t;
  }
}

TEST(EncoderChecksum, Ipv4SumFoldingToAllOnes) {
  Rng rng(12);
  for (int t = 0; t < kTrials; ++t) {
    Ipv4Header h = RandomIpv4(rng);
    const std::size_t payload = rng.NextBelow(1500);
    h.dst = Ipv4Address(h.dst.bits() & 0xFFFF0000u);
    auto bytes = EncodeIpv4(h, payload);
    bytes[10] = bytes[11] = 0;
    h.dst = Ipv4Address(h.dst.bits() | LowWordForAllOnes(FoldedSum(bytes)));
    bytes = EncodeIpv4(h, payload);
    ASSERT_EQ(LoadBe16(bytes.data() + 10), 0x0000) << t;
    ASSERT_EQ(Reference(bytes, 10), 0x0000) << t;
  }
}

// --- IGMP --------------------------------------------------------------------

constexpr IgmpType kIgmpTypes[] = {
    IgmpType::kMembershipQuery, IgmpType::kMembershipReport,
    IgmpType::kLeaveGroup,      IgmpType::kRpCoreReport,
    IgmpType::kJoinConfirmation,
};

IgmpMessage RandomIgmp(Rng& rng, IgmpType type, std::size_t cores) {
  IgmpMessage msg;
  msg.type = type;
  msg.code = RandomByte(rng);
  msg.group = RandomAddress(rng);
  msg.version = RandomByte(rng);
  msg.target_core_index = RandomByte(rng);
  for (std::size_t i = 0; i < cores; ++i) {
    msg.cores.push_back(RandomAddress(rng));
  }
  return msg;
}

TEST(EncoderChecksum, IgmpEveryTypeAndCoreCount) {
  Rng rng(21);
  for (const IgmpType type : kIgmpTypes) {
    for (std::size_t n = 0; n <= kMaxCores; ++n) {
      for (int t = 0; t < kTrials / 20; ++t) {
        const IgmpMessage msg = RandomIgmp(rng, type, n);
        const auto bytes = msg.Encode();
        ASSERT_EQ(bytes.size(), msg.EncodedSize());
        ASSERT_EQ(LoadBe16(bytes.data() + 2), Reference(bytes, 2))
            << static_cast<int>(type) << " cores " << n;
        ASSERT_TRUE(VerifyInternetChecksum(bytes));
      }
    }
  }
}

TEST(EncoderChecksum, IgmpSumFoldingToAllOnes) {
  Rng rng(22);
  for (const IgmpType type : kIgmpTypes) {
    for (std::size_t n = 0; n <= kMaxCores; ++n) {
      IgmpMessage msg = RandomIgmp(rng, type, n);
      msg.group = Ipv4Address(msg.group.bits() & 0xFFFF0000u);
      auto bytes = msg.Encode();
      bytes[2] = bytes[3] = 0;
      msg.group = Ipv4Address(msg.group.bits() |
                              LowWordForAllOnes(FoldedSum(bytes)));
      bytes = msg.Encode();
      ASSERT_EQ(LoadBe16(bytes.data() + 2), 0x0000)
          << static_cast<int>(type) << " cores " << n;
      ASSERT_EQ(Reference(bytes, 2), 0x0000);
    }
  }
}

// --- CBT control -------------------------------------------------------------

ControlPacket RandomControl(Rng& rng, ControlType type, std::size_t cores,
                            bool aggregate) {
  ControlPacket pkt;
  pkt.type = type;
  pkt.code = RandomByte(rng);
  pkt.group = RandomAddress(rng);
  pkt.origin = RandomAddress(rng);
  pkt.target_core = RandomAddress(rng);
  pkt.aggregate = aggregate;
  pkt.group_mask = static_cast<std::uint32_t>(rng.NextU64());
  for (std::size_t i = 0; i < cores; ++i) {
    pkt.cores.push_back(RandomAddress(rng));
  }
  return pkt;
}

/// Every type with every core-list length, and echoes (whose core list
/// is not encoded) with and without the aggregate flag.
template <typename Check>
void ForEachControlShape(Check check) {
  for (int raw = 1; raw <= static_cast<int>(ControlType::kPingReply); ++raw) {
    const auto type = static_cast<ControlType>(raw);
    for (std::size_t n = 0; n <= kMaxCores; ++n) {
      for (const bool aggregate : {false, true}) check(type, n, aggregate);
    }
  }
}

TEST(EncoderChecksum, ControlEveryTypeCoreCountAndAggregateFlag) {
  Rng rng(31);
  ForEachControlShape([&](ControlType type, std::size_t n, bool aggregate) {
    for (int t = 0; t < kTrials / 40; ++t) {
      const ControlPacket pkt = RandomControl(rng, type, n, aggregate);
      const auto bytes = pkt.Encode();
      ASSERT_EQ(bytes.size(), pkt.EncodedSize());
      ASSERT_EQ(LoadBe16(bytes.data() + 6), Reference(bytes, 6))
          << static_cast<int>(type) << " cores " << n << " agg " << aggregate;
      ASSERT_TRUE(VerifyInternetChecksum(bytes));
      ASSERT_TRUE(ControlPacket::Decode(bytes).has_value());
    }
  });
}

TEST(EncoderChecksum, ControlSumFoldingToAllOnes) {
  Rng rng(32);
  ForEachControlShape([&](ControlType type, std::size_t n, bool aggregate) {
    ControlPacket pkt = RandomControl(rng, type, n, aggregate);
    pkt.target_core = Ipv4Address(pkt.target_core.bits() & 0xFFFF0000u);
    auto bytes = pkt.Encode();
    bytes[6] = bytes[7] = 0;
    pkt.target_core = Ipv4Address(pkt.target_core.bits() |
                                  LowWordForAllOnes(FoldedSum(bytes)));
    bytes = pkt.Encode();
    ASSERT_EQ(LoadBe16(bytes.data() + 6), 0x0000)
        << static_cast<int>(type) << " cores " << n << " agg " << aggregate;
    ASSERT_EQ(Reference(bytes, 6), 0x0000);
  });
}

}  // namespace
}  // namespace cbt::packet
