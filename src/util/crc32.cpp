#include "util/crc32.hpp"

#include <array>

#include "util/wire.hpp"

namespace vppb::util {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// kTables[0] is the bytewise table; kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so one step can fold eight bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
  return t;
}

constexpr Tables kTables = make_tables();

// a(x) * b(x) modulo the CRC polynomial, bit-reflected as the CRC is.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// kX2n[k] = x^(2^k) modulo the polynomial.
constexpr std::array<std::uint32_t, 32> make_x2n() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
  return t;
}

constexpr std::array<std::uint32_t, 32> kX2n = make_x2n();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const Tables& t = kTables;
  std::uint32_t c = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = c ^ wire::load_le32(p);
    const std::uint32_t hi = wire::load_le32(p + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b) {
  // crc(A || B) = crc(A) * x^(8 * |B|) + crc(B): multiply by x^(8 |B|)
  // one set bit of |B| at a time, starting from x^(2^3) = x^8.
  std::uint32_t shift = 1u << 31;  // x^0
  for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k)
    if (len_b & 1) shift = multmodp(kX2n[k & 31], shift);
  return multmodp(shift, crc_a) ^ crc_b;
}

}  // namespace vppb::util
