#pragma once
// Shared reporting for the bench binaries behind tools/run_benchmarks.sh:
// the ops/sec measurement loop, the report-path flag, and one JSON writer
// whose "context" block always carries the fields that make a number
// attributable — the source binary, the build type of the code under
// measurement (from this build's NDEBUG), hardware_concurrency, the CPU
// feature flags and the Montgomery / ChaCha20 kernels the dispatcher chose.
// The google-benchmark binaries get the same block through
// benchmark_main().
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace hcpp::bench {

double seconds_since(std::chrono::steady_clock::time_point t0);

/// Runs `body` (performing `ops` unit operations per call) for at least
/// `min_seconds` after one untimed warm-up (pool spin-up, cache population)
/// and returns ops/sec.
template <typename F>
double measure(double min_seconds, size_t ops, F&& body) {
  body();
  size_t total_ops = 0;
  auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    body();
    total_ops += ops;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return static_cast<double>(total_ops) / elapsed;
}

/// One measured workload. A nonzero `threads` marks a thread-scaling row,
/// reported as "<workload>/threads:<n>" with both parts as keys too.
struct Row {
  std::string workload;
  double ops_per_sec = 0.0;
  std::string unit;
  size_t threads = 0;
};

/// Prints the usage line — `flags`, then the report-path flag — and exits 2.
[[noreturn]] void usage(const char* argv0, const char* flags = "");
/// PATH if `arg` is the report-path flag, nullptr otherwise.
const char* json_out_arg(const char* arg);
/// Command line of a bench whose only flag is the report path: returns the
/// path (nullptr when absent); any other argument goes to usage().
const char* parse_json_out(int argc, char** argv);

/// Streaming, two-space-indented JSON writer; commas are placed
/// automatically and keys are ignored inside arrays. Reals are written with
/// a fixed number of decimals, so they always read back as floats.
class Json {
 public:
  Json& object(std::string_view key = {});
  Json& array(std::string_view key);
  Json& end();
  Json& integer(std::string_view key, uint64_t v);
  Json& real(std::string_view key, double v, int decimals);
  Json& string(std::string_view key, std::string_view v);
  Json& boolean(std::string_view key, bool v);
  /// Splices in the members of `object_json`, a rendered top-level object.
  Json& members(std::string_view object_json);
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  struct Frame {
    char close;  // '}' or ']'
    bool empty;  // nothing written into it yet
  };
  void separator();
  void open_value(std::string_view key);
  void open_container(std::string_view key, char bracket);

  std::string out_;
  std::vector<Frame> stack_;
};

/// The "benchmarks" array of ops/sec rows.
void write_rows(Json& j, std::span<const Row> rows);
/// The summary of histogram `name` in `reg` (empty if never observed).
obs::HistogramSummary histogram_summary(const obs::Registry& reg,
                                        const char* name);
/// {source_histogram, count, p50, p95, p99, max} of an obs histogram.
void write_histogram(Json& j, std::string_view key,
                     const char* source_histogram,
                     const obs::HistogramSummary& h);

/// Writes `path` as {"context": {common fields, then `context`'s}, then the
/// sections `body` writes}. Exits 1 if the file cannot be written.
void write_report(const char* path, const char* source,
                  const std::function<void(Json&)>& context,
                  const std::function<void(Json&)>& body);

/// main() of a google-benchmark binary: with --benchmark_out, the file
/// report's context block is the common one (plus the library's host
/// fields), so its library_build_type describes this build rather than the
/// prebuilt libbenchmark's.
int benchmark_main(const char* source, int argc, char** argv);

}  // namespace hcpp::bench
