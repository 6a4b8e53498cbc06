#include "support/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define RIF_CRC32C_X86 1
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#define RIF_CRC32C_ARM 1
#endif

namespace rif::crc32c {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

/// kTables[0] is the byte-at-a-time table; kTables[k][b] advances the CRC
/// of byte b over k further zero bytes, so eight lookups fold eight bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) != 0 ? kPoly : 0u);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

/// Little-endian load, so the table path's value does not depend on the
/// host's byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if defined(RIF_CRC32C_X86)
__attribute__((target("sse4.2"))) std::uint32_t hardware_impl(
    const std::uint8_t* data, std::size_t n) {
  std::uint64_t c = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t v = 0;
    std::memcpy(&v, data, sizeof(v));
    c = _mm_crc32_u64(c, v);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++data, --n) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}
#elif defined(RIF_CRC32C_ARM)
__attribute__((target("+crc"))) std::uint32_t hardware_impl(
    const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t v = 0;
    std::memcpy(&v, data, sizeof(v));
    c = __crc32cd(c, v);
  }
  for (; n > 0; ++data, --n) c = __crc32cb(c, *data);
  return ~c;
}
#endif

}  // namespace

std::uint32_t portable(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) c = (c >> 8) ^ kTables[0][(c ^ *data) & 0xFFu];
  return ~c;
}

bool hardware_available() {
#if defined(RIF_CRC32C_X86)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#elif defined(RIF_CRC32C_ARM) && defined(__linux__) && defined(HWCAP_CRC32)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  return false;
#endif
}

std::uint32_t hardware(const std::uint8_t* data, std::size_t n) {
#if defined(RIF_CRC32C_X86) || defined(RIF_CRC32C_ARM)
  return hardware_impl(data, n);
#else
  return portable(data, n);  // unreachable: hardware_available() is false
#endif
}

std::uint32_t value(const std::uint8_t* data, std::size_t n) {
  static const auto impl = hardware_available() ? &hardware : &portable;
  return impl(data, n);
}

}  // namespace rif::crc32c
