#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EDADB_CRC32C_SSE42 1
#include <nmmintrin.h>
#else
#define EDADB_CRC32C_SSE42 0
#endif

namespace edadb {

namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // Reflected Castagnoli.

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendTable(uint32_t crc, std::string_view data) {
  const auto& table = Table();
  crc = ~crc;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<uint8_t>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if EDADB_CRC32C_SSE42
// Only this function is compiled for SSE4.2; Crc32cExtend calls it
// after a runtime CPU check, so the binary still runs on older CPUs.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(
    uint32_t crc, std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t crc64 = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc64);
  for (; n > 0; --n, ++p) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return ~crc32;
}

bool HardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }
#else
uint32_t ExtendHardware(uint32_t crc, std::string_view data) {
  return ExtendTable(crc, data);
}

bool HardwareAvailable() { return false; }
#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  static const bool hardware = crc32c_internal::HardwareAvailable();
  return hardware ? crc32c_internal::ExtendHardware(crc, data)
                  : crc32c_internal::ExtendTable(crc, data);
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

}  // namespace edadb
