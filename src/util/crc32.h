// Checksums for the durable-state subsystem (src/persist).
//
// Crc32: the IEEE 802.3 polynomial (the one zlib, gzip, and most WAL
// implementations use), table-driven. Every write-ahead-log record and
// snapshot payload carries one so torn or bit-rotted bytes are detected on
// recovery instead of being replayed as state.
//
// Fnv1a64: a cheap streaming digest used to chain the event history across
// barriers; the recovery path recomputes it during catch-up and
// compares against the logged value to prove the restored state is
// byte-identical to the pre-crash run (docs/PERSISTENCE.md).

#ifndef CROWDTOPK_UTIL_CRC32_H_
#define CROWDTOPK_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace crowdtopk::util {

// CRC-32 (IEEE, reflected, init/final xor 0xffffffff) of `size` bytes.
// Pass a previous result as `seed` to checksum data incrementally:
// Crc32(b, nb, Crc32(a, na)) == Crc32(ab, na + nb).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(const std::string& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

// 64-bit FNV-1a streaming hash. Same incremental contract as Crc32 via the
// `seed` parameter (pass the previous digest).
inline constexpr uint64_t kFnv1a64Init = 0xcbf29ce484222325ULL;
uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed = kFnv1a64Init);

inline uint64_t Fnv1a64(const std::string& data,
                        uint64_t seed = kFnv1a64Init) {
  return Fnv1a64(data.data(), data.size(), seed);
}

}  // namespace crowdtopk::util

#endif  // CROWDTOPK_UTIL_CRC32_H_
