#include "common/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RAINCORE_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace raincore {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table; tables[k][b] advances tables[k-1][b]
/// by one more zero byte, so eight lookups fold eight input bytes at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int i = 0; i < 8; ++i) c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  }
  return v;
}

}  // namespace

std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint64_t w = load_le64(data) ^ crc;
    crc = kTables[7][w & 0xffu] ^ kTables[6][(w >> 8) & 0xffu] ^
          kTables[5][(w >> 16) & 0xffu] ^ kTables[4][(w >> 24) & 0xffu] ^
          kTables[3][(w >> 32) & 0xffu] ^ kTables[2][(w >> 40) & 0xffu] ^
          kTables[1][(w >> 48) & 0xffu] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++data, --n) {
    crc = kTables[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef RAINCORE_CRC32C_X86

bool crc32c_hw_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const std::uint8_t* data, std::size_t n) {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data, sizeof w);
    crc = _mm_crc32_u64(crc, w);
  }
  auto c = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++data, --n) c = _mm_crc32_u8(c, *data);
  return ~c;
}

#else

bool crc32c_hw_available() { return false; }

std::uint32_t crc32c_hw(const std::uint8_t* data, std::size_t n) {
  return crc32c_portable(data, n);
}

#endif

std::uint32_t crc32c(const std::uint8_t* data, std::size_t n) {
  static const bool hw = crc32c_hw_available();
  return hw ? crc32c_hw(data, n) : crc32c_portable(data, n);
}

}  // namespace raincore
