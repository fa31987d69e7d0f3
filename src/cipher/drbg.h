// Deterministic random bit generator built on ChaCha20 keystream with
// SHA-256-based (re)seeding. Doubles as:
//   * the system CSPRNG (seeded from std::random_device), and
//   * a reproducible stream for tests and the paper's PRG-randomized upload
//     scheduler (§VI.C), which only needs a seedable PRG.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"

namespace hcpp::cipher {

class Drbg final : public RandomSource {
 public:
  /// Deterministic instance from an arbitrary seed.
  explicit Drbg(BytesView seed);
  /// OS-entropy-seeded instance.
  static Drbg system();

  void fill(std::span<uint8_t> out) override;

  /// Mixes fresh entropy into the state.
  void reseed(BytesView entropy);

 private:
  void refill();

  std::array<uint8_t, 32> key_{};
  std::array<uint8_t, 12> nonce_{};
  uint32_t counter_ = 0;
  // Up to four keystream blocks are generated per refill (the 4-block AVX2
  // kernel's granularity); the stream of bytes produced is identical to the
  // old one-block-at-a-time generator, including the key-ratchet timing at
  // the 32-bit counter wrap.
  std::array<uint8_t, 256> block_{};
  size_t block_fill_ = 0;  // valid bytes in block_
  size_t block_pos_ = 0;   // consumed bytes; == block_fill_ forces a refill
};

/// Forks `n` deterministic child streams off `rng`, one 32-byte seed each,
/// drawn serially in index order. Forking before work is dispatched makes
/// what child i produces independent of which thread later consumes it, so
/// pooled callers give the same bytes at every thread count (DESIGN.md §9).
std::vector<Drbg> fork_streams(RandomSource& rng, size_t n);

}  // namespace hcpp::cipher
