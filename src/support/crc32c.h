// CRC32C (Castagnoli et al., IEEE Trans. Commun. 1993; the iSCSI checksum
// of RFC 3720): the integrity check on every wire envelope.
//
// Two implementations compute the same value: the CPU's CRC32C instruction
// (SSE4.2 `crc32` on x86-64, the ARMv8 CRC extension on AArch64), compiled
// with a target attribute so portable builds carry it too, and a
// slice-by-8 table walk that runs anywhere. value() picks the hardware path
// once, at first use, when this CPU has it. Both are exposed so tests can
// hold them to each other directly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rif::crc32c {

/// CRC32C of `n` bytes at `data` (initial value and final xor 0xFFFFFFFF,
/// reflected), on the fastest path this CPU supports.
[[nodiscard]] std::uint32_t value(const std::uint8_t* data, std::size_t n);

/// Slice-by-8 table implementation; runs on every host.
[[nodiscard]] std::uint32_t portable(const std::uint8_t* data, std::size_t n);

/// Does this CPU have a CRC32C instruction this build can use?
[[nodiscard]] bool hardware_available();

/// The CRC32C instruction path. Call only when hardware_available().
[[nodiscard]] std::uint32_t hardware(const std::uint8_t* data, std::size_t n);

}  // namespace rif::crc32c
