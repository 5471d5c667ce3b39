#ifndef EDADB_COMMON_CRC32_H_
#define EDADB_COMMON_CRC32_H_

#include <cstdint>
#include <string_view>

namespace edadb {

/// CRC-32C (Castagnoli). Used to checksum write-ahead-log records so
/// torn or corrupted tails are detected on recovery. On x86-64 CPUs
/// with SSE4.2 the `crc32` instruction computes it; elsewhere a
/// byte-at-a-time table does.
uint32_t Crc32c(std::string_view data);

/// Extends a running CRC with more data.
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// Masks a CRC so that checksums of data containing embedded CRCs stay
/// well-distributed (same scheme as LevelDB/RocksDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

namespace crc32c_internal {

/// The two implementations behind Crc32cExtend, exposed so tests can
/// hold them to the same answers. ExtendHardware may only be called
/// when HardwareAvailable() is true.
uint32_t ExtendTable(uint32_t crc, std::string_view data);
uint32_t ExtendHardware(uint32_t crc, std::string_view data);
bool HardwareAvailable();

}  // namespace crc32c_internal

}  // namespace edadb

#endif  // EDADB_COMMON_CRC32_H_
