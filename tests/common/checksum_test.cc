#include "common/checksum.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/buffer.h"
#include "common/random.h"

namespace cbt {
namespace {

TEST(InternetChecksum, Rfc1071WorkedExample) {
  // The classic example from RFC 1071 section 3.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> 0xddf2; ~ = 0x220d.
  EXPECT_EQ(InternetChecksum(data), 0x220D);
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xFBFD.
  EXPECT_EQ(InternetChecksum(data), 0xFBFD);
}

TEST(InternetChecksum, AllZeroGivesAllOnes) {
  const std::vector<std::uint8_t> zeros(20, 0);
  EXPECT_EQ(InternetChecksum(zeros), 0xFFFF);
}

TEST(InternetChecksum, EmbeddedChecksumVerifies) {
  // Build a buffer, embed its checksum, and check the receive-side rule.
  BufferWriter w;
  w.WriteU32(0xDEADBEEF);
  w.WriteU16(0);  // checksum slot
  w.WriteU32(0x12345678);
  const std::uint16_t sum = InternetChecksum(w.View());
  w.PatchU16(4, sum);
  EXPECT_TRUE(VerifyInternetChecksum(w.View()));
}

TEST(InternetChecksum, CorruptionDetected) {
  BufferWriter w;
  w.WriteU32(0xDEADBEEF);
  w.WriteU16(0);
  w.WriteU32(0x12345678);
  w.PatchU16(4, InternetChecksum(w.View()));
  auto bytes = std::move(w).Take();
  bytes[0] ^= 0x40;
  EXPECT_FALSE(VerifyInternetChecksum(bytes));
}

TEST(InternetChecksum, SingleBitFlipsAlwaysDetected) {
  BufferWriter w;
  for (int i = 0; i < 8; ++i) w.WriteU32(0x01020304u * (unsigned)(i + 1));
  w.WriteU16(0);
  w.PatchU16(32, InternetChecksum(w.View()));
  const auto bytes = std::move(w).Take();
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = bytes;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(VerifyInternetChecksum(corrupted))
          << "byte " << byte << " bit " << bit;
    }
  }
}

/// The RFC 1071 definition, one network-order 16-bit word at a time: the
/// reference the word-wise implementation must match bit for bit.
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

TEST(InternetChecksum, WordwiseMatchesBytewiseOnRandomBuffers) {
  Rng rng(1071);
  // Every length up to 70 covers each 8/4/2/1-byte tail combination
  // several times over, odd tails included.
  for (std::size_t len = 0; len <= 70; ++len) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint8_t> data(len);
      for (std::uint8_t& b : data) {
        b = static_cast<std::uint8_t>(rng.NextBelow(256));
      }
      ASSERT_EQ(InternetChecksum(data), BytewiseChecksum(data))
          << "len " << len << " trial " << trial;
    }
  }
}

TEST(InternetChecksum, WordwiseMatchesBytewiseAtCarryExtremes) {
  // All-0xFF words maximise end-around carries; all-zero buffers check
  // that no carry turns an empty sum into negative zero.
  for (std::size_t len = 0; len <= 70; ++len) {
    const std::vector<std::uint8_t> ones(len, 0xFF);
    EXPECT_EQ(InternetChecksum(ones), BytewiseChecksum(ones)) << len;
    const std::vector<std::uint8_t> zeros(len, 0x00);
    EXPECT_EQ(InternetChecksum(zeros), BytewiseChecksum(zeros)) << len;
  }
}

TEST(InternetChecksum, WordwiseMatchesBytewiseOnUnalignedViews) {
  // Datagram payloads are sub-spans at arbitrary offsets (an IGMP body
  // behind a 20-byte IP header, say); loads must not assume alignment.
  Rng rng(7);
  std::vector<std::uint8_t> backing(96);
  for (std::uint8_t& b : backing) {
    b = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  const std::span<const std::uint8_t> all(backing);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len + offset <= all.size(); len += 3) {
      const auto view = all.subspan(offset, len);
      ASSERT_EQ(InternetChecksum(view), BytewiseChecksum(view))
          << "offset " << offset << " len " << len;
    }
  }
}

}  // namespace
}  // namespace cbt
