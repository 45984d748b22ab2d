// Exact unsigned division by a fixed divisor via a precomputed
// multiply-high + shift pair (Granlund/Montgomery style "magic numbers").
//
// The fixed-point recurrences divide by activity periods tens of millions
// of times per synthesis run, but the periods are static per pool member:
// each division by T can be compiled once into a 64x64->high-64 multiply
// plus two shifts (branch-free, ~4 cycles) instead of a hardware 64-bit
// division (20-40 cycles, unpipelined).  We use the round-up encoding
// with one uniform evaluation formula for every supported divisor so the
// vector lanes need no per-lane branches:
//
//     hi = mulhi_u64(x, mul)
//     q  = (((x - hi) >> 1) + hi) >> shift      ==  floor(x / d)
//
// Correctness: let l = ceil(log2 d) and M = 2^64 + mul = ceil(2^(64+l)/d)
// (proven to fit in 65 bits, i.e. mul < 2^64, because d is not a power of
// two so 2^(64+l)/d > 2^64 and < 2^65).  The formula computes
// floor(x*M / 2^(64+l)): mulhi gives hi = floor(x*mul/2^64), and the
// (x - hi)/2 + hi step reconstructs floor(x*(2^64 + mul)/2^65) without
// overflowing 64 bits.  Writing M*d = 2^(64+l) + e with 0 <= e < d gives
// x*M/2^(64+l) = x/d + x*e/(d*2^(64+l)); the error term is < 1/d for every
// x < 2^64 (since e < d <= 2^l), so the floor never crosses a multiple of
// d.  Hence the result is exact for ALL x in [0, 2^64).  Powers of two
// take mul = 0, shift = log2(d) - 1, degenerating the same formula into a
// plain shift.  d = 1 has NO encoding under this formula (shift would be
// -1); callers must guard (the analysis workspace runs the Reference
// kernel when any period falls outside the supported range).
// tests/util/magic_div_test.cpp exercises the divisor/dividend edges.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace mcs::util {

/// High 64 bits of the full 128-bit product a*b, as 32-bit-limb schoolbook
/// arithmetic on plain uint64 operations.  This form exists so the hot
/// lane loops can auto-vectorize: a loop through __int128 (or x86's mulq)
/// defeats the vectorizer, while four 32x32->64 limb products map onto
/// packed-multiply instructions.  No intermediate overflows: each limb
/// product is < 2^64 and the carry sum `mid` is < 3 * 2^32.
[[nodiscard]] constexpr std::uint64_t mulhi_u64_limbs(std::uint64_t a,
                                                      std::uint64_t b) noexcept {
  const std::uint64_t a_lo = a & 0xffffffffu, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffu, b_hi = b >> 32;
  const std::uint64_t ll = a_lo * b_lo;
  const std::uint64_t lh = a_lo * b_hi;
  const std::uint64_t hl = a_hi * b_lo;
  const std::uint64_t hh = a_hi * b_hi;
  const std::uint64_t mid = (ll >> 32) + (lh & 0xffffffffu) + (hl & 0xffffffffu);
  return hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
}

/// High 64 bits of the full 128-bit product a*b (fastest scalar form).
[[nodiscard]] constexpr std::uint64_t mulhi_u64(std::uint64_t a,
                                                std::uint64_t b) noexcept {
#if defined(__SIZEOF_INT128__)
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) >> 64);
#else
  return mulhi_u64_limbs(a, b);
#endif
}

/// Precomputed constants for exact floor division by a fixed d in
/// [2, 2^62].  Trivially copyable; the Fast analysis kernel stores the
/// (mul, shift) pairs in parallel arrays and evaluates lanes branch-free.
struct MagicDiv {
  std::uint64_t mul = 0;
  std::uint32_t shift = 0;

  static constexpr std::int64_t kMinDivisor = 2;
  static constexpr std::int64_t kMaxDivisor = std::int64_t{1} << 62;

  [[nodiscard]] static constexpr bool supports(std::int64_t d) noexcept {
    return d >= kMinDivisor && d <= kMaxDivisor;
  }

  /// floor(x / d) for any x in [0, 2^64), interpreted unsigned.
  [[nodiscard]] constexpr std::uint64_t divide(std::uint64_t x) const noexcept {
    const std::uint64_t hi = mulhi_u64(x, mul);
    return (((x - hi) >> 1) + hi) >> shift;
  }

  /// a mod d with a floored (always in [0, d)) result, for ANY int64 a —
  /// bit-identical to util::floor_mod(a, d) but division-free.  `d` must
  /// be the divisor this MagicDiv was made for.  Negative dividends use
  /// floor(a/d) = -ceil(-a/d) and ceil(-a/d) = floor((-a + d - 1)/d); -a
  /// is computed by unsigned negation (well-defined at INT64_MIN) and the
  /// remainder is reconstructed mod 2^64, where the true value fits in
  /// [0, d), so no signed overflow can occur anywhere.
  [[nodiscard]] constexpr std::int64_t floor_mod(std::int64_t a,
                                                 std::int64_t d) const noexcept {
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ud = static_cast<std::uint64_t>(d);
    if (a >= 0) {
      return static_cast<std::int64_t>(ua - ud * divide(ua));
    }
    const std::uint64_t na = std::uint64_t{0} - ua;  // == -a, mod 2^64
    const std::uint64_t q = divide(na + ud - 1);     // ceil(-a / d)
    return static_cast<std::int64_t>(ua + ud * q);
  }

  [[nodiscard]] static constexpr MagicDiv make(std::int64_t d) {
    if (!supports(d)) {
      throw std::invalid_argument("MagicDiv: divisor outside [2, 2^62]");
    }
    const auto ud = static_cast<std::uint64_t>(d);
    MagicDiv m;
    if ((ud & (ud - 1)) == 0) {
      // d = 2^k: with mul = 0 the formula is (x >> 1) >> (k - 1) = x >> k.
      std::uint32_t k = 0;
      while ((std::uint64_t{1} << k) != ud) ++k;
      m.shift = k - 1;
      return m;
    }
    // l = ceil(log2 d) = bit width of d (d is not a power of two).
    std::uint32_t l = 0;
    while (l < 64 && (ud >> l) != 0) ++l;
    m.shift = l - 1;
    // mul = M - 2^64 = ceil(2^64 * (2^l - d) / d); the numerator's high
    // limb 2^l - d is < d (because d > 2^(l-1)), so the quotient fits in
    // 64 bits.  Binary long division keeps this header __int128-free.
    const std::uint64_t hi = (std::uint64_t{1} << l) - ud;
    std::uint64_t rem = hi;
    std::uint64_t q = 0;
    for (int bit = 63; bit >= 0; --bit) {
      rem <<= 1;  // never overflows: rem < d <= 2^62
      if (rem >= ud) {
        rem -= ud;
        q |= std::uint64_t{1} << bit;
      }
    }
    m.mul = q + (rem != 0 ? 1 : 0);
    return m;
  }
};

}  // namespace mcs::util
