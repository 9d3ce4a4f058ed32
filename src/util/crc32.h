// CRC32C (Castagnoli), hardware-accelerated where available.
//
// DiskFs mirrors ext4's metadata_csum feature: every directory block
// carries a checksum tail that is recomputed on modification and verified
// when the block is first scanned after being read from the device (ext4
// then sets buffer_verified and skips the check on later scans) — a real,
// measurable component of directory operation cost on modern ext4.
#ifndef DIRCACHE_UTIL_CRC32_H_
#define DIRCACHE_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace dircache {

#if defined(__SSE4_2__)

inline uint32_t Crc32c(uint32_t seed, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = seed ^ 0xffffffffu;
  while (len >= 8) {
    uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    len -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (len > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --len;
  }
  return crc32 ^ 0xffffffffu;
}

#else

namespace crc_internal {
// Table-driven fallback (one byte per step).
inline const uint32_t* Table() {
  static uint32_t table[256];
  static bool initialized = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)initialized;
  return table;
}
}  // namespace crc_internal

inline uint32_t Crc32c(uint32_t seed, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  const uint32_t* table = crc_internal::Table();
  uint32_t crc = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#endif

}  // namespace dircache

#endif  // DIRCACHE_UTIL_CRC32_H_
