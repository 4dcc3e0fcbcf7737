// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for chunk checksums in the
// crash-safe trace log.
//
// crc32 walks the data eight bytes at a time over eight compile-time
// tables (slice-by-8); crc32_combine joins two CRCs without reading
// the data again (zlib's crc32_combine method).  Neither allocates,
// locks or touches errno — deliberately async-signal-safe so the
// recorder's crash finalizer can checksum the pending chunk from
// inside a SIGSEGV handler.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vppb::util {

/// Incremental CRC-32: pass the previous return value as `seed` to
/// continue a running checksum (seed 0 starts a fresh one).
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// The CRC-32 of A followed by B, from crc32(A), crc32(B) and B's
/// length, in O(log len_b) steps.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t len_b);

}  // namespace vppb::util
