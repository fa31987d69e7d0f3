#pragma once
// MULX/ADX (BMI2 + ADX) variants of the unrolled production-width (n = 8)
// Montgomery kernels in mont.cpp. There are no n = 4 twins: at the 256-bit
// test width the portable kernel is faster (EXPERIMENTS.md, MULX A/B). This translation unit is compiled with -mbmi2 -madx
// (see src/CMakeLists.txt) and is only ever entered after mp::cpu_features()
// reports both extensions at runtime, so the library binary itself stays
// portable x86-64. Each entry point computes bit-for-bit the same result as
// the portable kernel of the same width — the differential suites in
// tests/test_dispatch.cpp pin that equivalence.
//
// On targets where the TU cannot be built with the required extensions,
// compiled() returns false and the entry points must not be called.

#include <cstddef>
#include <cstdint>

namespace hcpp::mp::mulx {

// True when this TU was built with BMI2+ADX code. Callers must additionally
// check the runtime CPU flags before dispatching here.
bool compiled() noexcept;

// CIOS Montgomery product r = a·b·R^{-1} mod m over 8 limbs.
void cios_mul8(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, uint64_t n0inv) noexcept;

// Lazy-reduction Fp2 product / square (same accumulator layout and bias
// constant mm2 = 2m^2 as the portable fp2_mul_impl / fp2_sqr_impl).
void fp2_mul8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
              const uint64_t* m, uint64_t n0inv, const uint64_t* mm2) noexcept;
void fp2_sqr8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept;

}  // namespace hcpp::mp::mulx
