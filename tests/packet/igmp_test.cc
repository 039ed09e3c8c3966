#include "packet/igmp.h"

#include <gtest/gtest.h>

namespace cbt::packet {
namespace {

TEST(Igmp, QueryRoundTrip) {
  IgmpMessage msg;
  msg.type = IgmpType::kMembershipQuery;
  msg.code = 100;  // max response time, tenths of seconds
  msg.group = Ipv4Address{};
  const auto decoded = IgmpMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IgmpType::kMembershipQuery);
  EXPECT_EQ(decoded->code, 100);
  EXPECT_TRUE(decoded->group.IsUnspecified());
}

TEST(Igmp, ReportAndLeaveRoundTrip) {
  for (const auto type : {IgmpType::kMembershipReport, IgmpType::kLeaveGroup}) {
    IgmpMessage msg;
    msg.type = type;
    msg.group = Ipv4Address(239, 9, 9, 9);
    const auto decoded = IgmpMessage::Decode(msg.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->group, Ipv4Address(239, 9, 9, 9));
  }
}

TEST(Igmp, RpCoreReportRoundTrip) {
  // The appendix's amended IGMPv3 RP/Core-Report (Figure 10).
  IgmpMessage msg;
  msg.type = IgmpType::kRpCoreReport;
  msg.code = kCoreReportCodeCbt;
  msg.group = Ipv4Address(239, 1, 0, 1);
  msg.version = 3;
  msg.target_core_index = 1;
  msg.cores = {Ipv4Address(10, 99, 0, 1), Ipv4Address(10, 98, 0, 1),
               Ipv4Address(10, 97, 0, 1)};
  const auto decoded = IgmpMessage::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, IgmpType::kRpCoreReport);
  EXPECT_EQ(decoded->code, kCoreReportCodeCbt);
  EXPECT_EQ(decoded->target_core_index, 1);
  ASSERT_EQ(decoded->cores.size(), 3u);
  EXPECT_EQ(decoded->cores[2], Ipv4Address(10, 97, 0, 1));
}

TEST(Igmp, EightCoreReportRoundTripsInline) {
  // kMaxCores is the wire cap, and the inline list holds exactly that many.
  IgmpMessage msg;
  msg.type = IgmpType::kRpCoreReport;
  msg.code = kCoreReportCodeCbt;
  msg.group = Ipv4Address(239, 1, 0, 8);
  msg.target_core_index = 7;
  for (std::uint8_t i = 0; i < kMaxCores; ++i) {
    msg.cores.push_back(Ipv4Address(10, 90, i, 1));
  }
  ASSERT_TRUE(msg.cores.inlined());
  const auto bytes = msg.Encode();
  EXPECT_EQ(bytes.size(), 12 + 4 * kMaxCores);
  const auto decoded = IgmpMessage::Decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->cores.inlined());
  EXPECT_EQ(decoded->cores, msg.cores);
  EXPECT_EQ(decoded->target_core_index, 7);
}

TEST(Igmp, NineCoreReportRejected) {
  IgmpMessage msg;
  msg.type = IgmpType::kRpCoreReport;
  msg.code = kCoreReportCodeCbt;
  msg.group = Ipv4Address(239, 1, 0, 9);
  msg.cores.assign(kMaxCores + 1, Ipv4Address(10, 90, 0, 1));
  EXPECT_FALSE(msg.cores.inlined());  // encodable, but over the wire cap
  const auto bytes = msg.Encode();
  EXPECT_EQ(bytes.size(), 12 + 4 * (kMaxCores + 1));
  EXPECT_FALSE(IgmpMessage::Decode(bytes).has_value());
}

TEST(Igmp, TargetIndexBeyondListRejected) {
  IgmpMessage msg;
  msg.type = IgmpType::kRpCoreReport;
  msg.group = Ipv4Address(239, 1, 0, 1);
  msg.target_core_index = 2;
  msg.cores = {Ipv4Address(10, 99, 0, 1)};
  EXPECT_FALSE(IgmpMessage::Decode(msg.Encode()).has_value());
}

TEST(Igmp, ChecksumCorruptionRejected) {
  IgmpMessage msg;
  msg.type = IgmpType::kMembershipReport;
  msg.group = Ipv4Address(239, 9, 9, 9);
  auto bytes = msg.Encode();
  bytes[4] ^= 0x01;
  EXPECT_FALSE(IgmpMessage::Decode(bytes).has_value());
}

TEST(Igmp, UnknownTypeRejected) {
  IgmpMessage msg;
  msg.type = IgmpType::kMembershipReport;
  msg.group = Ipv4Address(239, 9, 9, 9);
  auto bytes = msg.Encode();
  bytes[0] = 0x99;
  EXPECT_FALSE(IgmpMessage::Decode(bytes).has_value());
}

TEST(Igmp, TruncatedCoreReportRejected) {
  IgmpMessage msg;
  msg.type = IgmpType::kRpCoreReport;
  msg.group = Ipv4Address(239, 1, 0, 1);
  msg.cores = {Ipv4Address(10, 99, 0, 1), Ipv4Address(10, 98, 0, 1)};
  const auto bytes = msg.Encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(IgmpMessage::Decode({bytes.data(), cut}).has_value()) << cut;
  }
}

}  // namespace
}  // namespace cbt::packet
