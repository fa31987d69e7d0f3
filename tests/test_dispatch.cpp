// Differential tests for the runtime-dispatched vectorized kernels: the
// same binary runs each case twice — HCPP_FORCE_GENERIC off (the host's
// fastest variant: MULX/ADX Montgomery, 4-way AVX2 ChaCha20) and on (the
// portable oracle) — and every output must be byte/limb-identical. On hosts
// without the CPU extensions both runs take the generic path and the tests
// degrade to self-consistency checks, so the suite passes everywhere.
#include <gtest/gtest.h>

#include <vector>

#include "src/cipher/chacha20.h"
#include "src/cipher/drbg.h"
#include "src/curve/params.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"
#include "src/mp/u512.h"

namespace hcpp {
namespace {

/// Scoped forced-generic switch; restores the previous value on destruction.
class ForceGenericGuard {
 public:
  explicit ForceGenericGuard(bool on) : prev_(mp::set_force_generic(on)) {}
  ~ForceGenericGuard() { mp::set_force_generic(prev_); }

 private:
  bool prev_;
};

// ---- ChaCha20: dispatched bulk kernel vs the one-block scalar core ---------

std::array<uint8_t, 32> test_key() {
  std::array<uint8_t, 32> k{};
  for (size_t i = 0; i < k.size(); ++i) k[i] = static_cast<uint8_t>(7 * i + 3);
  return k;
}

std::array<uint8_t, 12> test_nonce() {
  std::array<uint8_t, 12> n{};
  for (size_t i = 0; i < n.size(); ++i) n[i] = static_cast<uint8_t>(0xA0 + i);
  return n;
}

/// The independent oracle: keystream assembled one block at a time through
/// chacha20_block, which never dispatches to the SIMD path.
Bytes blockwise_keystream(const std::array<uint8_t, 32>& key,
                          const std::array<uint8_t, 12>& nonce,
                          uint32_t counter, size_t len) {
  Bytes out(len);
  std::array<uint8_t, 64> block{};
  size_t off = 0;
  while (off < len) {
    cipher::chacha20_block(key, nonce, counter++, block);
    size_t n = std::min<size_t>(64, len - off);
    std::copy_n(block.begin(), n, out.begin() + off);
    off += n;
  }
  return out;
}

// Lengths straddling the 4-block (256-byte) SIMD granularity: short tail
// only, exact single block, one short of the SIMD width, exactly one SIMD
// batch, batch + tail, several batches + odd tail.
const size_t kLengths[] = {13, 64, 192, 255, 256, 320, 517, 1024, 1037};

TEST(DispatchChaCha, XorMatchesBlockwiseOracleBothVariants) {
  auto key = test_key();
  auto nonce = test_nonce();
  cipher::Drbg rng(to_bytes("dispatch-chacha-xor"));
  for (bool forced : {false, true}) {
    ForceGenericGuard guard(forced);
    for (size_t len : kLengths) {
      Bytes plain = rng.bytes(len);
      Bytes expected = blockwise_keystream(key, nonce, 5, len);
      for (size_t i = 0; i < len; ++i) expected[i] ^= plain[i];
      Bytes data = plain;
      cipher::chacha20_xor(key, nonce, 5, data);
      EXPECT_EQ(data, expected) << "len=" << len << " forced=" << forced;
    }
  }
}

TEST(DispatchChaCha, KeystreamMatchesBlockwiseOracleBothVariants) {
  auto key = test_key();
  auto nonce = test_nonce();
  for (bool forced : {false, true}) {
    ForceGenericGuard guard(forced);
    for (size_t len : kLengths) {
      Bytes expected = blockwise_keystream(key, nonce, 0, len);
      Bytes got(len);
      cipher::chacha20_keystream(key, nonce, 0, got);
      EXPECT_EQ(got, expected) << "len=" << len << " forced=" << forced;
    }
  }
}

TEST(DispatchChaCha, CounterWrapMatchesScalarSemantics) {
  // Starting at 0xFFFFFFFE the 32-bit block counter wraps to 0 inside a
  // 4-block SIMD batch; the scalar loop wraps the same way (uint32_t ++).
  auto key = test_key();
  auto nonce = test_nonce();
  const size_t len = 6 * 64;
  Bytes expected = blockwise_keystream(key, nonce, 0xFFFFFFFEu, len);
  for (bool forced : {false, true}) {
    ForceGenericGuard guard(forced);
    Bytes got(len);
    cipher::chacha20_keystream(key, nonce, 0xFFFFFFFEu, got);
    EXPECT_EQ(got, expected) << "forced=" << forced;
    Bytes data(len, 0);
    cipher::chacha20_xor(key, nonce, 0xFFFFFFFEu, data);
    EXPECT_EQ(data, expected) << "forced=" << forced;
  }
}

TEST(DispatchChaCha, DrbgStreamIdenticalAcrossVariants) {
  // The DRBG's 4-block refill must not change the byte stream, including
  // across its key ratchet; pull an awkward mix of read sizes.
  const size_t kReads[] = {1, 31, 64, 200, 256, 333, 7};
  std::vector<Bytes> fast;
  {
    ForceGenericGuard guard(false);
    cipher::Drbg d(to_bytes("dispatch-drbg"));
    for (size_t n : kReads) fast.push_back(d.bytes(n));
  }
  {
    ForceGenericGuard guard(true);
    cipher::Drbg d(to_bytes("dispatch-drbg"));
    for (size_t i = 0; i < std::size(kReads); ++i) {
      EXPECT_EQ(d.bytes(kReads[i]), fast[i]) << "read #" << i;
    }
  }
}

TEST(DispatchChaCha, KernelNameReflectsForcedGeneric) {
  {
    ForceGenericGuard guard(true);
    EXPECT_STREQ(cipher::chacha20_kernel_name(), "generic");
    EXPECT_STREQ(mp::mont_kernel_name(), "generic");
  }
  ForceGenericGuard guard(false);
  // Unforced, the name must agree with what the CPU supports.
  if (mp::cpu_features().avx2) {
    EXPECT_STREQ(cipher::chacha20_kernel_name(), "avx2");
  } else {
    EXPECT_STREQ(cipher::chacha20_kernel_name(), "generic");
  }
  if (mp::cpu_features().bmi2 && mp::cpu_features().adx) {
    EXPECT_STREQ(mp::mont_kernel_name(), "mulx-adx");
  } else {
    EXPECT_STREQ(mp::mont_kernel_name(), "generic");
  }
}

// ---- Montgomery: MULX/ADX contexts vs forced-generic contexts --------------

mp::U512 random_residue(cipher::Drbg& rng, const mp::U512& m) {
  mp::U512 x;
  Bytes b = rng.bytes(64);
  x = mp::U512::from_bytes_be(b);
  return mp::mod(x, m);
}

struct WidthModulus {
  const char* name;
  mp::U512 m;
};

std::vector<WidthModulus> width_moduli() {
  return {
      {"test-256", curve::params(curve::ParamSet::kTest).p},
      {"production-512", curve::params(curve::ParamSet::kProduction).p},
  };
}

TEST(DispatchMont, MulSqrPowMatchForcedGeneric) {
  cipher::Drbg rng(to_bytes("dispatch-mont"));
  for (const WidthModulus& wc : width_moduli()) {
    SCOPED_TRACE(wc.name);
    ForceGenericGuard fast_env(false);
    mp::MontCtx fast(wc.m);
    mp::MontCtx slow = [&] {
      ForceGenericGuard slow_env(true);
      return mp::MontCtx(wc.m);
    }();
    EXPECT_STREQ(slow.kernel_name(), "generic");

    // Boundary operands first: 0, R mod m (Montgomery 1), m − (R mod m)
    // (Montgomery −1, all-high limbs), then randoms.
    std::vector<mp::U512> xs = {mp::U512{}, fast.one(),
                                mp::sub_mod(mp::U512{}, fast.one(), wc.m)};
    for (int i = 0; i < 24; ++i) xs.push_back(random_residue(rng, wc.m));
    for (size_t i = 0; i + 1 < xs.size(); ++i) {
      const mp::U512& a = xs[i];
      const mp::U512& b = xs[i + 1];
      EXPECT_EQ(fast.mul(a, b), slow.mul(a, b));
      EXPECT_EQ(fast.sqr(a), slow.sqr(a));
      EXPECT_EQ(fast.pow(a, b), slow.pow(a, b));
      EXPECT_EQ(fast.to_mont(a), slow.to_mont(a));
      EXPECT_EQ(fast.from_mont(a), slow.from_mont(a));
    }
  }
}

TEST(DispatchMont, Fp2KernelsMatchForcedGeneric) {
  cipher::Drbg rng(to_bytes("dispatch-mont-fp2"));
  for (const WidthModulus& wc : width_moduli()) {
    SCOPED_TRACE(wc.name);
    mp::MontCtx fast(wc.m);
    mp::MontCtx slow = [&] {
      ForceGenericGuard slow_env(true);
      return mp::MontCtx(wc.m);
    }();
    for (int i = 0; i < 32; ++i) {
      mp::U512 ar = random_residue(rng, wc.m);
      mp::U512 ai = random_residue(rng, wc.m);
      mp::U512 br = random_residue(rng, wc.m);
      mp::U512 bi = random_residue(rng, wc.m);
      if (i == 0) ar = mp::U512{};                                 // re zero
      if (i == 1) ai = mp::U512{};                                 // im zero
      if (i == 2) ar = mp::sub_mod(mp::U512{}, fast.one(), wc.m);  // Mont −1
      mp::U512 fr, fi, sr, si;
      fast.fp2_mul(fr, fi, ar, ai, br, bi);
      slow.fp2_mul(sr, si, ar, ai, br, bi);
      EXPECT_EQ(fr, sr);
      EXPECT_EQ(fi, si);
      fast.fp2_sqr(fr, fi, ar, ai);
      slow.fp2_sqr(sr, si, ar, ai);
      EXPECT_EQ(fr, sr);
      EXPECT_EQ(fi, si);
    }
  }
}

TEST(DispatchMont, BatchInvAndInvMatchForcedGeneric) {
  cipher::Drbg rng(to_bytes("dispatch-mont-inv"));
  for (const WidthModulus& wc : width_moduli()) {
    SCOPED_TRACE(wc.name);
    mp::MontCtx fast(wc.m);
    mp::MontCtx slow = [&] {
      ForceGenericGuard slow_env(true);
      return mp::MontCtx(wc.m);
    }();
    std::vector<mp::U512> xs;
    for (int i = 0; i < 16; ++i) {
      mp::U512 x = random_residue(rng, wc.m);
      if (x.is_zero()) x = fast.one();
      xs.push_back(x);
    }
    std::vector<mp::U512> fast_xs = xs;
    std::vector<mp::U512> slow_xs = xs;
    fast.batch_inv(fast_xs);
    slow.batch_inv(slow_xs);
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(fast_xs[i], slow_xs[i]) << "slot " << i;
      EXPECT_EQ(fast.inv(xs[i]), slow.inv(xs[i])) << "slot " << i;
    }
  }
}

}  // namespace
}  // namespace hcpp
