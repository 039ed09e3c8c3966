#include "packet/cbt_control.h"

#include <gtest/gtest.h>

namespace cbt::packet {
namespace {

ControlPacket SampleJoin() {
  ControlPacket pkt;
  pkt.type = ControlType::kJoinRequest;
  pkt.code = static_cast<std::uint8_t>(JoinSubcode::kActiveJoin);
  pkt.group = Ipv4Address(239, 0, 0, 7);
  pkt.origin = Ipv4Address(10, 4, 0, 1);
  pkt.target_core = Ipv4Address(10, 99, 0, 1);
  pkt.cores = {Ipv4Address(10, 99, 0, 1), Ipv4Address(10, 98, 0, 1)};
  return pkt;
}

TEST(ControlPacket, JoinRoundTrip) {
  const auto bytes = SampleJoin().Encode();
  const auto decoded = ControlPacket::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, ControlType::kJoinRequest);
  EXPECT_EQ(decoded->join_subcode(), JoinSubcode::kActiveJoin);
  EXPECT_EQ(decoded->group, Ipv4Address(239, 0, 0, 7));
  EXPECT_EQ(decoded->origin, Ipv4Address(10, 4, 0, 1));
  EXPECT_EQ(decoded->target_core, Ipv4Address(10, 99, 0, 1));
  ASSERT_EQ(decoded->cores.size(), 2u);
  EXPECT_EQ(decoded->cores[0], Ipv4Address(10, 99, 0, 1));
  EXPECT_EQ(decoded->cores[1], Ipv4Address(10, 98, 0, 1));
}

TEST(ControlPacket, AllPrimaryTypesRoundTrip) {
  for (const ControlType type :
       {ControlType::kJoinRequest, ControlType::kJoinAck,
        ControlType::kJoinNack, ControlType::kQuitRequest,
        ControlType::kQuitAck, ControlType::kFlushTree}) {
    ControlPacket pkt = SampleJoin();
    pkt.type = type;
    const auto decoded = ControlPacket::Decode(pkt.Encode());
    ASSERT_TRUE(decoded.has_value()) << static_cast<int>(type);
    EXPECT_EQ(decoded->type, type);
  }
}

TEST(ControlPacket, SubcodesSurvive) {
  for (const auto sub :
       {JoinSubcode::kActiveJoin, JoinSubcode::kRejoinActive,
        JoinSubcode::kRejoinNactive}) {
    ControlPacket pkt = SampleJoin();
    pkt.code = static_cast<std::uint8_t>(sub);
    const auto decoded = ControlPacket::Decode(pkt.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->join_subcode(), sub);
  }
}

TEST(ControlPacket, EmptyCoreListAllowed) {
  ControlPacket pkt = SampleJoin();
  pkt.type = ControlType::kQuitRequest;
  pkt.cores.clear();
  const auto decoded = ControlPacket::Decode(pkt.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->cores.empty());
}

TEST(ControlPacket, MaxCoresEnforcedOnDecode) {
  ControlPacket pkt = SampleJoin();
  pkt.cores.assign(kMaxCores + 1, Ipv4Address(10, 0, 0, 1));
  // Encode writes the count byte; decode must reject it.
  EXPECT_FALSE(ControlPacket::Decode(pkt.Encode()).has_value());
}

TEST(ControlPacket, EchoRequestCarriesAggregateFlagAndMask) {
  ControlPacket echo;
  echo.type = ControlType::kEchoRequest;
  echo.aggregate = true;
  echo.group = Ipv4Address(239, 16, 0, 0);
  echo.group_mask = 0xFFFF0000;
  const auto decoded = ControlPacket::Decode(echo.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, ControlType::kEchoRequest);
  EXPECT_TRUE(decoded->aggregate);
  EXPECT_EQ(decoded->group, Ipv4Address(239, 16, 0, 0));
  EXPECT_EQ(decoded->group_mask, 0xFFFF0000u);
  EXPECT_TRUE(decoded->cores.empty());
}

TEST(ControlPacket, NonAggregateEchoHasZeroFlag) {
  ControlPacket echo;
  echo.type = ControlType::kEchoReply;
  echo.aggregate = false;
  echo.group = Ipv4Address(239, 1, 1, 1);
  const auto bytes = echo.Encode();
  EXPECT_EQ(bytes[3], 0x00);  // Figure 9 aggregate byte
  const auto decoded = ControlPacket::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->aggregate);
}

TEST(ControlPacket, CorePingTypesRoundTrip) {
  // The retained -02 reachability probe (types 9/10).
  for (const ControlType type :
       {ControlType::kCorePing, ControlType::kPingReply}) {
    ControlPacket ping;
    ping.type = type;
    ping.group = Ipv4Address(239, 0, 0, 7);
    ping.origin = Ipv4Address(10, 4, 0, 1);
    ping.target_core = Ipv4Address(10, 99, 0, 1);
    const auto decoded = ControlPacket::Decode(ping.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->target_core, Ipv4Address(10, 99, 0, 1));
    EXPECT_FALSE(decoded->IsEcho());
  }
  EXPECT_STREQ(ControlTypeName(ControlType::kCorePing), "CBT-CORE-PING");
}

TEST(ControlPacket, ChecksumCorruptionRejected) {
  auto bytes = SampleJoin().Encode();
  bytes[10] ^= 0x80;
  EXPECT_FALSE(ControlPacket::Decode(bytes).has_value());
}

TEST(ControlPacket, TruncationRejected) {
  const auto bytes = SampleJoin().Encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        ControlPacket::Decode({bytes.data(), cut}).has_value())
        << cut;
  }
}

TEST(ControlPacket, UnknownTypeRejected) {
  auto pkt = SampleJoin();
  auto bytes = pkt.Encode();
  bytes[1] = 200;  // bogus type; checksum now stale too, but check both:
  EXPECT_FALSE(ControlPacket::Decode(bytes).has_value());
}

TEST(ControlPacket, ControlTypeNameNamesType) {
  // The router's trace event names for control packets.
  EXPECT_STREQ(ControlTypeName(SampleJoin().type), "JOIN-REQUEST");
  EXPECT_STREQ(ControlTypeName(ControlType::kQuitRequest), "QUIT-REQUEST");
}

}  // namespace
}  // namespace cbt::packet
