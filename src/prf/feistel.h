// Pseudo-random permutations (§II.B) via Luby–Rackoff Feistel networks with
// an HMAC round function.
//
//  * FeistelPrp      — PRP over fixed-width byte strings; realises the
//                      paper's ϖ (virtual-address PRP) and θ (the
//                      trapdoor-wrapping PRP of ASSIGN/REVOKE).
//  * SmallDomainPrp  — PRP over an arbitrary integer domain [0, n) via a
//                      numeric Feistel plus cycle-walking, evaluated point
//                      by point; the ORAM shuffle (src/oram) uses it.
//  * permutation_table — a whole keyed permutation of [0, n) at once (the
//                      table form of a small-domain PRP, Black–Rogaway
//                      2002); realises φ, which scrambles node positions
//                      inside the SSE array A.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/hash/hmac.h"

namespace hcpp::prf {

// Both PRPs precompute their HMAC key schedule at construction and are
// immutable afterwards, so instances are safe to share across pool workers.

class FeistelPrp {
 public:
  /// `width_bytes` >= 2. 8 Feistel rounds.
  FeistelPrp(Bytes key, size_t width_bytes);

  /// Permutes `in` (must be exactly width bytes).
  [[nodiscard]] Bytes forward(BytesView in) const;
  /// Inverse permutation.
  [[nodiscard]] Bytes inverse(BytesView in) const;

  [[nodiscard]] size_t width() const noexcept { return width_; }

 private:
  Bytes round_value(int round, BytesView half, size_t out_len) const;

  Bytes key_;
  hash::HmacKey mac_;
  size_t width_;
  static constexpr int kRounds = 8;
};

class SmallDomainPrp {
 public:
  /// Permutation over [0, domain_size), domain_size >= 2.
  SmallDomainPrp(Bytes key, uint64_t domain_size);

  [[nodiscard]] uint64_t forward(uint64_t x) const;
  [[nodiscard]] uint64_t inverse(uint64_t y) const;

  [[nodiscard]] uint64_t domain_size() const noexcept { return n_; }

 private:
  uint64_t round_once(uint64_t x) const;    // PRP over [0, 2^bits_)
  uint64_t unround_once(uint64_t y) const;  // its inverse

  Bytes key_;
  hash::HmacKey mac_;
  uint64_t n_;
  int bits_;       // ceil(log2 n), >= 2
  int left_bits_;  // bits_/2
  static constexpr int kRounds = 6;
};

/// The keyed permutation π of [0, n) as a table: `table[x]` = π(x). A
/// ChaCha20 DRBG seeded with HMAC-SHA256(key, label ‖ u64be(n)) drives a
/// Fisher–Yates shuffle whose index draws use rejection sampling, so every
/// one of the n! orderings is equally likely under a random key. The label
/// separates this use of `key` from its others. Costs n draws and 8n bytes;
/// callers that need π at most points should build it once and index it.
std::vector<uint64_t> permutation_table(BytesView key, std::string_view label,
                                        uint64_t n);

}  // namespace hcpp::prf
