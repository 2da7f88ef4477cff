// Little-endian column-page codec for the segment store.
//
// A column page is the raw body of one column over one segment's rows:
// fixed-width little-endian values, no header, no padding — the layout is
// exactly the in-memory vector on a little-endian host, so encode/decode
// are single memcpys there (the store refuses to open on big-endian hosts
// rather than silently byte-swapping; see store/segment_store.h). Keeping
// the copy loops here, next to the other flat hot-path kernels, gives the
// store one place to vectorize if page decode ever shows up in a profile.
//
// PageChecksum is the integrity hash every segment fault runs over every
// page byte it reads, so it is word-wide rather than byte-serial: four independent
// 64-bit multiply-rotate lanes over 32-byte strides (the xxHash64 round
// structure), which keeps ~4 multiplies in flight instead of FNV-1a's one
// dependent multiply per byte.

#ifndef GUS_KERNELS_PAGE_CODEC_H_
#define GUS_KERNELS_PAGE_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace gus {

/// Appends `n` fixed-width values at `src` to `out` as raw page bytes.
template <typename T>
inline void EncodePage(const T* src, int64_t n, std::string* out) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8, "fixed-width pages only");
  const size_t bytes = static_cast<size_t>(n) * sizeof(T);
  const size_t at = out->size();
  out->resize(at + bytes);
  if (bytes > 0) std::memcpy(&(*out)[at], src, bytes);
}

/// \brief Decodes `n` fixed-width values from raw page bytes into `out`
/// (resized; previous contents dropped).
///
/// `src` may be unaligned (it points into an mmap-ed file at an arbitrary
/// byte offset) — the memcpy makes the access well-defined on every
/// platform.
template <typename T>
inline void DecodePage(const uint8_t* src, int64_t n, std::vector<T>* out) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8, "fixed-width pages only");
  out->resize(static_cast<size_t>(n));
  if (n > 0) std::memcpy(out->data(), src, static_cast<size_t>(n) * sizeof(T));
}

namespace page_checksum_detail {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t word) {
  acc += word * kP2;
  return std::rotl(acc, 31) * kP1;
}

inline uint64_t MergeLane(uint64_t h, uint64_t lane) {
  h ^= Round(0, lane);
  return h * kP1 + kP4;
}

}  // namespace page_checksum_detail

/// \brief 64-bit checksum of `len` bytes at `data`, chained from `seed`.
///
/// Chain pages by passing the previous result as the next seed. Every
/// round is a bijection of its lane in the input word, so a change
/// confined to one word (in particular any single-bit flip) always changes
/// that lane's state, and the tail steps and the final avalanche are
/// bijective too. `data` may be unaligned: words are loaded with memcpy.
/// Not a cryptographic hash — it guards against corruption, not
/// adversaries.
inline uint64_t PageChecksum(uint64_t seed, const uint8_t* data, size_t len) {
  using namespace page_checksum_detail;
  const uint8_t* p = data;
  const uint8_t* const end = data + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v1 = seed + kP1 + kP2;
    uint64_t v2 = seed + kP2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kP1;
    const uint8_t* const stride_end = end - 32;
    do {
      v1 = Round(v1, LoadU64(p));
      v2 = Round(v2, LoadU64(p + 8));
      v3 = Round(v3, LoadU64(p + 16));
      v4 = Round(v4, LoadU64(p + 24));
      p += 32;
    } while (p <= stride_end);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeLane(h, v1);
    h = MergeLane(h, v2);
    h = MergeLane(h, v3);
    h = MergeLane(h, v4);
  } else {
    h = seed + kP5;
  }
  h += static_cast<uint64_t>(len);
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, LoadU64(p));
    h = std::rotl(h, 27) * kP1 + kP4;
  }
  for (; p < end; ++p) {
    h ^= *p * kP5;
    h = std::rotl(h, 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace gus

#endif  // GUS_KERNELS_PAGE_CODEC_H_
