#include "common/crc32.h"

#include <string>

#include "common/random.h"
#include "gtest/gtest.h"

namespace edadb {
namespace {

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32C test vectors.
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
}

TEST(Crc32Test, ExtendMatchesWholeBuffer) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t a = Crc32cExtend(Crc32c(data.substr(0, split)),
                                    data.substr(split));
    EXPECT_EQ(a, Crc32c(data)) << "split=" << split;
  }
}

TEST(Crc32Test, DifferentInputsDiffer) {
  EXPECT_NE(Crc32c("a"), Crc32c("b"));
  EXPECT_NE(Crc32c("ab"), Crc32c("ba"));
  EXPECT_NE(Crc32c(std::string("\0", 1)), Crc32c(std::string("\0\0", 2)));
}

TEST(Crc32Test, MaskUnmaskRoundTrip) {
  for (const uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu,
                             Crc32c("payload")}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);  // Masking must change the value.
  }
}

// The SSE4.2 path and the table path must agree bit for bit: a WAL
// written on one host is read on another.
TEST(Crc32Test, HardwareMatchesTable) {
  if (!crc32c_internal::HardwareAvailable()) {
    GTEST_SKIP() << "no CRC32C instruction on this CPU";
  }
  Random rng(0xC5C32);
  std::string data(4096, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  for (int i = 0; i < 2000; ++i) {
    const size_t offset = rng.Uniform(64);
    const size_t length = rng.Uniform(data.size() - offset);
    const auto seed = static_cast<uint32_t>(rng.Next());
    const std::string_view piece =
        std::string_view(data).substr(offset, length);
    EXPECT_EQ(crc32c_internal::ExtendHardware(seed, piece),
              crc32c_internal::ExtendTable(seed, piece))
        << "offset=" << offset << " length=" << length;
  }
  EXPECT_EQ(crc32c_internal::ExtendHardware(0, "123456789"), 0xe3069283u);
}

}  // namespace
}  // namespace edadb
