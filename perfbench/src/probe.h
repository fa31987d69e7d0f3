// Layer probes: the benchmark times its own direct calls into each module's
// public functions, on inputs borrowed from the running workload (its
// patients' keys and files, its identities). Every probe reports the median
// of several repetitions.
#pragma once

#include "harness.h"
#include "src/curve/ec.h"

namespace hcpp::perfbench {

/// Unit costs the attribution model multiplies the traced op counts by.
struct UnitCosts {
  double pairing_us = 0;        // one-shot pairing, final exp included
  double pairing_fixed_us = 0;  // precomputed-line pairing, final exp incl.
  double miller_fixed_us = 0;   // precomputed-line Miller loop alone
  double point_mul_us = 0;
  double hash_to_point_us = 0;
  double store_put_us = 0;
  double ledger_append_us = 0;

  [[nodiscard]] double final_exp_us() const {
    return pairing_fixed_us > miller_fixed_us
               ? pairing_fixed_us - miller_fixed_us
               : 0.0;
  }
};

/// Median µs of one production pairing on fixed generator multiples — the
/// host-speed reading taken immediately before a workload runs.
double probe_pairing_us(const curve::CurveCtx& ctx);

/// Times every layer's unit operations on the workload's inputs and sets the
/// corresponding per-layer metrics (µs/ns units).
UnitCosts probe_layers(const ProbeInputs& in, Metrics& m);

}  // namespace hcpp::perfbench
