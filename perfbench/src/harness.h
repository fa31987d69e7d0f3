// Shared machinery of the HCPP benchmark: the closed-loop op recorder
// (latencies, failure accounting, traced counter deltas and spans), the
// metric report, and the run loop every workload goes through.
//
// Two kinds of run, selected by --trace:
//   * untraced (0): obs is compiled in but no registry is attached. Set-up is
//     repeated kSetupRepeats times (median reported), then the last
//     population runs the closed loop for --seconds. Prints the end-to-end
//     metrics.
//   * traced (1): the same workload and seed, set up twice. The first copy
//     runs --seconds/2 untraced (the overhead baseline), the second runs
//     --seconds/2 with an obs::Registry attached and every op bracketed by a
//     benchmark-side span carrying the library's counter deltas. Prints the
//     per-layer metrics, the round-count gate and the op-count fingerprint.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/entities.h"
#include "src/obs/metrics.h"

namespace hcpp::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // working files, under the build directory
};

[[nodiscard]] uint64_t now_ns();
[[nodiscard]] double median(std::vector<double> v);
/// Exact order statistic: the smallest sample with at least q of the samples
/// at or below it (q in (0, 1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Deterministic DRBG for one named stream of a seeded run.
[[nodiscard]] cipher::Drbg seeded_rng(uint64_t seed, std::string_view stream);

/// Snapshot of the library counters a traced op is charged with.
struct OpCounts {
  uint64_t pairings = 0;        // one-shot pairings (final exp included)
  uint64_t pairings_fixed = 0;  // precomputed-line Miller loops
  uint64_t product_terms = 0;   // multi-pairing terms
  uint64_t final_exps = 0;      // single final exponentiations
  uint64_t final_exps_batched = 0;
  uint64_t hash_to_points = 0;
  uint64_t point_muls = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t retries = 0;
  uint64_t store_puts = 0;
  uint64_t ledger_appends = 0;
  uint64_t coalesce_saved = 0;
  uint64_t mhi_tags_tested = 0;
  uint64_t mhi_hits = 0;

  static OpCounts read(const obs::Registry& reg);
  OpCounts& operator+=(const OpCounts& o);
  [[nodiscard]] OpCounts operator-(const OpCounts& o) const;
  /// All pairing evaluations, however computed.
  [[nodiscard]] uint64_t all_pairings() const {
    return pairings + pairings_fixed + product_terms;
  }
  /// All final exponentiations, batched or not.
  [[nodiscard]] uint64_t all_final_exps() const {
    return final_exps + final_exps_batched;
  }
};

/// Per op class: latencies, the traced counts, and the count-only
/// fingerprint of the first fingerprint_ops top-level ops.
struct ClassStats {
  std::vector<double> latency_ms;
  uint64_t ops = 0;
  OpCounts counts;       // traced runs: summed over every op of the class
  uint64_t fp_ops = 0;   // ops of this class inside the fingerprint prefix
  OpCounts fp_counts;
};

/// One benchmark-side span, kept in memory until the run ends.
struct SpanRec {
  std::string name;
  int32_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  OpCounts counts;
};

class Recorder {
 public:
  /// `reg` non-null = traced: counter deltas and spans are recorded.
  Recorder(obs::Registry* reg, uint64_t fingerprint_ops);

  /// Times one top-level op of class `cls` standing for `weight` workload
  /// operations. `body` returns how many of them failed their oracle; an
  /// exception fails all of them.
  void op(const std::string& cls, uint64_t weight,
          const std::function<uint64_t()>& body);
  /// Times a step nested inside the current op (latency and counts only;
  /// failures are charged to the enclosing op).
  template <typename F>
  auto sub(const std::string& cls, F&& body) {
    Open o = open(cls);
    struct Closer {
      Recorder* r;
      Open o;
      ~Closer() { r->close(o, false); }
    } closer{this, o};
    return body();
  }
  /// A check outside any op (end-of-run consistency oracles).
  void check(bool ok);

  [[nodiscard]] uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] uint64_t top_ops() const noexcept { return top_ops_; }
  [[nodiscard]] const std::map<std::string, ClassStats>& classes() const {
    return classes_;
  }
  [[nodiscard]] const ClassStats& cls(const std::string& name) const;
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  /// (end time, class) of every top-level op, in completion order.
  [[nodiscard]] const std::vector<std::pair<uint64_t, std::string>>& done()
      const {
    return done_;
  }

 private:
  struct Open {
    std::string cls;
    int32_t span = -1;
    uint64_t start_ns = 0;
    OpCounts at_open;
  };
  Open open(const std::string& cls);
  void close(const Open& o, bool top);

  obs::Registry* reg_;
  uint64_t fp_ops_;
  uint64_t top_ops_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<int32_t> stack_;
  std::vector<SpanRec> spans_;
  std::map<std::string, ClassStats> classes_;
  std::vector<std::pair<uint64_t, std::string>> done_;
  ClassStats empty_;
};

/// Inputs the layer probes (probe.h) borrow from a workload's population, so
/// every unit time is measured on the workload's own keys, files and
/// identities.
struct ProbeInputs {
  const core::AServer* aserver = nullptr;
  const core::SServer* server = nullptr;  // holds `patient`'s account
  const core::Patient* patient = nullptr;
  std::string physician_id;  // an identity the A-server provisions
  std::string role_id;       // an MHI role identity
  std::vector<std::string> keywords;  // keywords the workload searches
  std::string scratch_dir;   // for the store probe
};

/// Name → (value, unit) as the final JSON line reports it.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What a workload tells the run loop about itself.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the next op of the seeded stream through `rec`.
  virtual void step(Recorder& rec) = 0;
  /// End-of-run oracles (store consistency, undelivered hits).
  virtual void finish(Recorder& rec) = 0;
  /// Workload operations one top-level op of class `cls` completes (the
  /// ops_per_s numerator; 0 for classes that are not workload operations).
  [[nodiscard]] virtual uint64_t throughput_weight(
      const std::string& cls) const = 0;
  /// The op classes behind the end-to-end latencies, each reported at its
  /// quantile: `head` (op_ms, and the class the per-op layer counts are
  /// normalised by), `second` (op2_ms) and `third` (op3_ms).
  struct Classes {
    struct Latency {
      std::string cls;
      double q = 0.9;
    };
    Latency head, second, third;
  };
  [[nodiscard]] virtual Classes latency_classes() const = 0;
  /// Layer metrics only this workload can measure (par speedup, hub, burst
  /// and store ratios). The shared code fills every other layer metric and
  /// reports 0 for a ratio a workload does not set (its layer is unused).
  virtual void layers(const Recorder& rec, Metrics& m) = 0;
  [[nodiscard]] virtual ProbeInputs probe_inputs() = 0;
};

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(uint64_t seed,
                                            const std::string& dir)>;

struct WorkloadSpec {
  std::string name;
  WorkloadFactory make;
  uint64_t fingerprint_ops;  // deterministic traced prefix (count-only)
  /// Op classes the round-count gate must see in the traced run.
  std::vector<std::string> gated;
};

std::unique_ptr<Workload> make_routine(uint64_t seed, const std::string& dir);
std::unique_ptr<Workload> make_emergency(uint64_t seed,
                                         const std::string& dir);
std::unique_ptr<Workload> make_mhi_stream(uint64_t seed,
                                          const std::string& dir);

/// Runs one workload end to end and prints the report; returns the exit code.
int run(const Options& opt, const WorkloadSpec& spec);

/// Same file ids with the same contents, in any order.
bool same_files(std::vector<sse::PlainFile> got,
                std::vector<sse::PlainFile> want);
/// The subset of `files` carrying any of `keywords`.
std::vector<sse::PlainFile> files_with_any(
    const std::vector<sse::PlainFile>& files,
    const std::vector<std::string>& keywords);
/// Picks 1..max_k distinct keywords from `dict`.
std::vector<std::string> pick_keywords(const std::vector<std::string>& dict,
                                       size_t max_k, RandomSource& rng);
[[nodiscard]] uint64_t uniform(RandomSource& rng, uint64_t n);

}  // namespace hcpp::perfbench
