// CRC32C (Castagnoli): the reflected polynomial 0x82F63B78, initial value
// and final XOR 0xFFFFFFFF, as in iSCSI (RFC 3720 §B.4) and ext4.
//
// crc32c() uses the SSE4.2 `crc32` instruction when a one-time CPU check
// finds it, and a portable slice-by-8 table otherwise; both give the same
// value for every input. The two paths are exposed so that tests and
// benchmarks can compare them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace raincore {

std::uint32_t crc32c(const std::uint8_t* data, std::size_t n);

/// Slice-by-8 over eight 256-entry tables; runs on any CPU.
std::uint32_t crc32c_portable(const std::uint8_t* data, std::size_t n);

/// True when this CPU has the SSE4.2 `crc32` instruction.
bool crc32c_hw_available();

/// The SSE4.2 path. Call only when crc32c_hw_available(); on a build for a
/// CPU family without the instruction it is crc32c_portable().
std::uint32_t crc32c_hw(const std::uint8_t* data, std::size_t n);

}  // namespace raincore
