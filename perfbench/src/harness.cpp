#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "probe.h"
#include "src/cipher/chacha20.h"
#include "src/curve/params.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"

namespace hcpp::perfbench {

namespace fs = std::filesystem;

namespace {

constexpr int kSetupRepeats = 9;

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

bool optimized_build() {
#if !defined(NDEBUG)
  return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return false;
#else
  return true;
#endif
#else
  return true;
#endif
}

void print_context(const Options& opt) {
  const mp::CpuFeatures& cf = mp::cpu_features();
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kProduction);
  std::printf(
      "# context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"cpu_features\": {\"bmi2\": %d, "
      "\"adx\": %d, \"avx2\": %d}, \"mont_kernel\": \"%s\", "
      "\"mont_kernel_production\": \"%s\", \"chacha_kernel\": \"%s\", "
      "\"build_type\": \"%s\", \"params\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      num(opt.seconds).c_str(), opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(), cf.bmi2, cf.adx, cf.avx2,
      mp::mont_kernel_name(), ctx.fp.mont.kernel_name(),
      cipher::chacha20_kernel_name(), HCPP_PERFBENCH_BUILD_TYPE,
      json_escape(ctx.name).c_str());
}

struct Measured {
  uint64_t t0 = 0;
  uint64_t t_end = 0;
  double wall_s = 0;
};

/// Closed loop: steps until `seconds` have passed and at least `min_ops`
/// top-level ops ran.
Measured measure(Workload& w, Recorder& rec, double seconds,
                 uint64_t min_ops) {
  const uint64_t t0 = now_ns();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  while (now_ns() - t0 < budget || rec.top_ops() < min_ops) w.step(rec);
  const uint64_t t_end = now_ns();
  return {t0, t_end, static_cast<double>(t_end - t0) / 1e9};
}

void print_classes(const Recorder& rec) {
  for (const auto& [name, cs] : rec.classes()) {
    const std::vector<double>& v = cs.latency_ms;
    if (v.empty()) continue;
    std::printf("# class %-16s n=%-6zu p10=%.4f p50=%.4f p90=%.4f p95=%.4f "
                "p99=%.4f max=%.4f ms\n",
                name.c_str(), v.size(), quantile(v, 0.10), median(v),
                quantile(v, 0.90), quantile(v, 0.95), quantile(v, 0.99),
                *std::max_element(v.begin(), v.end()));
  }
}

void print_result(bool correct, const Recorder& rec, uint64_t extra_attempted,
                  uint64_t extra_failed, const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(rec.attempted() + extra_attempted),
      static_cast<unsigned long long>(rec.failed() + extra_failed),
      m.json().c_str());
  std::fflush(stdout);
}

std::string counts_json(uint64_t ops, const OpCounts& c) {
  std::ostringstream o;
  o << "{\"ops\": " << ops << ", \"pairings\": " << c.all_pairings()
    << ", \"final_exps\": " << c.all_final_exps()
    << ", \"hash_to_points\": " << c.hash_to_points
    << ", \"point_muls\": " << c.point_muls << ", \"messages\": " << c.messages
    << ", \"store_puts\": " << c.store_puts
    << ", \"ledger_appends\": " << c.ledger_appends << "}";
  return o.str();
}

void write_spans(const std::string& path, const Recorder& rec) {
  std::ofstream f(path);
  f << "[\n";
  const auto& spans = rec.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    f << "{\"id\": " << i << ", \"name\": \"" << json_escape(s.name)
      << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns
      << ", \"counts\": " << counts_json(1, s.counts) << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << "]\n";
}

/// Σ par.<pool>.task_ns over the traced phase ÷ (threads × wall).
double par_busy_frac(const obs::Snapshot& delta, double wall_s) {
  double busy_ns = 0;
  for (const auto& [name, h] : delta.histograms) {
    if (name.rfind("par.", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".task_ns") == 0) {
      busy_ns += h.sum;
    }
  }
  double threads = std::max(1u, std::thread::hardware_concurrency());
  return busy_ns / (threads * wall_s * 1e9);
}

double per(uint64_t num_, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num_) / static_cast<double>(den);
}

/// Messages per op class in the paper's §V round counts, as recorded in
/// BENCH_protocols.json.
const std::map<std::string, uint64_t> kPaperRounds = {
    {"retrieve", 2},         {"family", 4},      {"pdevice_auth", 3},
    {"pdevice_retrieve", 4}, {"window", 1},      {"window_cold", 1},
    {"role_key", 2},
};

/// Completed workload operations per second: the weight of the top-level
/// ops finished by `t_end` over the measured wall time (see
/// perfbench/README.md for why no chunked quantile of the rate is used).
double ops_per_s(const Workload& w, const Recorder& rec, uint64_t t0,
                 uint64_t t_end) {
  double weight = 0;
  for (const auto& [end, cls] : rec.done()) {
    if (end <= t_end) weight += static_cast<double>(w.throughput_weight(cls));
  }
  return t_end > t0 ? weight / (static_cast<double>(t_end - t0) / 1e9) : 0.0;
}

/// Σ count × unit time ÷ mean op wall, for one op class.
double attributed_frac(const ClassStats& cs, const UnitCosts& u) {
  if (cs.ops == 0 || cs.latency_ms.empty()) return 0.0;
  const OpCounts& c = cs.counts;
  const double fe = u.final_exp_us();
  const double standalone_fe =
      c.final_exps > c.pairings ? static_cast<double>(c.final_exps - c.pairings)
                                : 0.0;
  // hash_to_point clears the cofactor with one counted point mul.
  const double muls = c.point_muls > c.hash_to_points
                          ? static_cast<double>(c.point_muls -
                                                c.hash_to_points)
                          : 0.0;
  double us = c.pairings * u.pairing_us + c.pairings_fixed * u.miller_fixed_us +
              c.product_terms * std::max(0.0, u.pairing_us - fe) +
              standalone_fe * fe + c.final_exps_batched * fe +
              muls * u.point_mul_us + c.hash_to_points * u.hash_to_point_us +
              c.store_puts * u.store_put_us +
              c.ledger_appends * u.ledger_append_us;
  double mean_ms = 0;
  for (double v : cs.latency_ms) mean_ms += v;
  mean_ms /= static_cast<double>(cs.latency_ms.size());
  return (us / static_cast<double>(cs.ops)) / (mean_ms * 1e3);
}

}  // namespace

// ---------------------------------------------------------------------------

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

cipher::Drbg seeded_rng(uint64_t seed, std::string_view stream) {
  Bytes b = to_bytes("hcpp-perfbench/");
  b.insert(b.end(), stream.begin(), stream.end());
  for (int i = 0; i < 8; ++i) {
    b.push_back(static_cast<uint8_t>(seed >> (8 * i)));
  }
  return cipher::Drbg(b);
}

uint64_t uniform(RandomSource& rng, uint64_t n) { return rng.u64() % n; }

std::vector<std::string> pick_keywords(const std::vector<std::string>& dict,
                                       size_t max_k, RandomSource& rng) {
  std::vector<std::string> pool = dict;
  size_t k = 1 + uniform(rng, std::min(max_k, pool.size()));
  std::vector<std::string> out;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + uniform(rng, pool.size() - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

std::vector<sse::PlainFile> files_with_any(
    const std::vector<sse::PlainFile>& files,
    const std::vector<std::string>& keywords) {
  std::vector<sse::PlainFile> out;
  for (const sse::PlainFile& f : files) {
    for (const std::string& kw : keywords) {
      if (std::find(f.keywords.begin(), f.keywords.end(), kw) !=
          f.keywords.end()) {
        out.push_back(f);
        break;
      }
    }
  }
  return out;
}

bool same_files(std::vector<sse::PlainFile> got,
                std::vector<sse::PlainFile> want) {
  auto by_id = [](const sse::PlainFile& a, const sse::PlainFile& b) {
    return a.id < b.id;
  };
  std::sort(got.begin(), got.end(), by_id);
  std::sort(want.begin(), want.end(), by_id);
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].content != want[i].content) {
      return false;
    }
  }
  return true;
}

// ---- OpCounts ---------------------------------------------------------------

OpCounts OpCounts::read(const obs::Registry& reg) {
  OpCounts c;
  c.pairings = reg.counter(obs::kPairing);
  c.pairings_fixed = reg.counter(obs::kPairingFixed);
  c.product_terms = reg.counter(obs::kPairingProductTerms);
  c.final_exps = reg.counter(obs::kFinalExp);
  c.final_exps_batched = reg.counter(obs::kFinalExpBatched);
  c.hash_to_points = reg.counter(obs::kHashToPoint);
  c.point_muls = reg.counter(obs::kPointMul);
  c.messages = reg.counter(obs::kNetMessages);
  c.bytes = reg.counter(obs::kNetBytes);
  c.retries = reg.counter(obs::kTransportRetries);
  c.store_puts = reg.counter(obs::kStorePuts);
  c.ledger_appends = reg.counter(obs::kLedgerAppends);
  c.coalesce_saved = reg.counter(obs::kCoalescePairingsSaved);
  c.mhi_tags_tested = reg.counter(obs::kMhiTagsTested);
  c.mhi_hits = reg.counter(obs::kMhiHits);
  return c;
}

#define HCPP_PERFBENCH_FIELDS(X)                                            \
  X(pairings) X(pairings_fixed) X(product_terms) X(final_exps)              \
  X(final_exps_batched) X(hash_to_points) X(point_muls) X(messages)         \
  X(bytes) X(retries) X(store_puts) X(ledger_appends) X(coalesce_saved)     \
  X(mhi_tags_tested) X(mhi_hits)

OpCounts& OpCounts::operator+=(const OpCounts& o) {
#define X(f) f += o.f;
  HCPP_PERFBENCH_FIELDS(X)
#undef X
  return *this;
}

OpCounts OpCounts::operator-(const OpCounts& o) const {
  OpCounts r;
#define X(f) r.f = f - o.f;
  HCPP_PERFBENCH_FIELDS(X)
#undef X
  return r;
}

// ---- Recorder ---------------------------------------------------------------

Recorder::Recorder(obs::Registry* reg, uint64_t fingerprint_ops)
    : reg_(reg), fp_ops_(fingerprint_ops) {}

Recorder::Open Recorder::open(const std::string& cls) {
  Open o;
  o.cls = cls;
  if (reg_ != nullptr) {
    o.span = static_cast<int32_t>(spans_.size());
    SpanRec s;
    s.name = cls;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(o.span);
    o.at_open = OpCounts::read(*reg_);
  }
  o.start_ns = now_ns();
  return o;
}

void Recorder::close(const Open& o, bool top) {
  const uint64_t end = now_ns();
  ClassStats& cs = classes_[o.cls];
  cs.latency_ms.push_back(static_cast<double>(end - o.start_ns) / 1e6);
  ++cs.ops;
  if (reg_ != nullptr) {
    OpCounts d = OpCounts::read(*reg_) - o.at_open;
    cs.counts += d;
    // The prefix is counted in top-level ops; a nested step closes while
    // top_ops_ still indexes the op that encloses it.
    if (top_ops_ < fp_ops_) {
      ++cs.fp_ops;
      cs.fp_counts += d;
    }
    SpanRec& s = spans_[static_cast<size_t>(o.span)];
    s.start_ns = o.start_ns;
    s.end_ns = end;
    s.counts = d;
    stack_.pop_back();
  }
  if (top) {
    ++top_ops_;
    done_.emplace_back(end, o.cls);
  }
}

void Recorder::op(const std::string& cls, uint64_t weight,
                  const std::function<uint64_t()>& body) {
  Open o = open(cls);
  uint64_t failed = 0;
  try {
    failed = std::min(body(), weight);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "op %s threw: %s\n", cls.c_str(), e.what());
    failed = weight;
  }
  close(o, true);
  attempted_ += weight;
  failed_ += failed;
}

void Recorder::check(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

const ClassStats& Recorder::cls(const std::string& name) const {
  auto it = classes_.find(name);
  return it == classes_.end() ? empty_ : it->second;
}

// ---- Metrics ----------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": {\"value\": " + num(vu.first) +
           ", \"unit\": \"" + json_escape(vu.second) + "\"}";
  }
  return out + "}";
}

// ---- run --------------------------------------------------------------------

int run(const Options& opt, const WorkloadSpec& spec) {
  print_context(opt);
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "refusing to measure: unoptimized or sanitizer build (%s)\n",
                 HCPP_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kProduction);
  std::printf("# host pairing_us_before_workload=%.3f\n",
              probe_pairing_us(ctx));

  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  auto fresh_dir = [&](const std::string& leaf) {
    std::string d = opt.work_dir + "/" + leaf;
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  };

  Metrics m;
  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < kSetupRepeats; ++i) {
      w.reset();
      std::string dir = fresh_dir("setup-" + std::to_string(i));
      const uint64_t t0 = now_ns();
      w = spec.make(opt.seed, dir);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    Recorder rec(nullptr, 0);
    const Measured run = measure(*w, rec, opt.seconds, 0);
    w->finish(rec);
    std::printf("# setup_s runs:");
    for (double s : setups) std::printf(" %.4f", s);
    std::printf("\n# measured %.3f s, %llu top-level ops\n", run.wall_s,
                static_cast<unsigned long long>(rec.top_ops()));
    print_classes(rec);
    m.set("setup_s", median(setups), "s");
    m.set("ops_per_s", ops_per_s(*w, rec, run.t0, run.t_end), "1/s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    // Each latency is gated at the quantile its workload names for it (see
    // perfbench/README.md for why it is not always the median); every
    // class's p10..p99 is in the report.
    const Workload::Classes lc = w->latency_classes();
    const std::pair<const char*, const Workload::Classes::Latency*> gated[] = {
        {"op_ms", &lc.head}, {"op2_ms", &lc.second}, {"op3_ms", &lc.third}};
    for (const auto& [metric, l] : gated) {
      m.set(metric, quantile(rec.cls(l->cls).latency_ms, l->q), "ms");
      std::printf("# %s = %s p%g\n", metric, l->cls.c_str(), l->q * 100);
    }
    w.reset();
    fs::remove_all(opt.work_dir);
    const bool ok = rec.failed() == 0;
    print_result(ok, rec, 0, 0, m);
    return ok ? 0 : 1;
  }

  // Traced run. Baseline copy first (untraced), then the traced copy.
  const double half = opt.seconds / 2;
  Recorder base(nullptr, 0);
  double base_ops_s = 0;
  {
    std::unique_ptr<Workload> w = spec.make(opt.seed, fresh_dir("base"));
    const Measured run = measure(*w, base, half, 0);
    w->finish(base);
    base_ops_s = ops_per_s(*w, base, run.t0, run.t_end);
  }
  obs::Registry reg;
  std::unique_ptr<Workload> w = spec.make(opt.seed, fresh_dir("traced"));
  obs::attach(&reg);
  const obs::Snapshot before = reg.snapshot();
  Recorder rec(&reg, spec.fingerprint_ops);
  const Measured run = measure(*w, rec, half, spec.fingerprint_ops);
  const double wall = run.wall_s;
  w->finish(rec);
  const obs::Snapshot delta = reg.snapshot().diff(before);
  obs::attach(nullptr);
  print_classes(rec);

  const ClassStats& head = rec.cls(w->latency_classes().head.cls);
  const OpCounts& hc = head.counts;
  m.set("curve.pairings_per_op", per(hc.all_pairings(), head.ops), "count");
  m.set("curve.final_exps_per_op", per(hc.all_final_exps(), head.ops),
        "count");
  m.set("curve.hash_to_point_per_op", per(hc.hash_to_points, head.ops),
        "count");
  m.set("curve.point_muls_per_op", per(hc.point_muls, head.ops), "count");
  m.set("sim.messages_per_op", per(hc.messages, head.ops), "count");
  m.set("sim.bytes_per_op", per(hc.bytes, head.ops), "B");
  m.set("sim.retries_per_op", per(hc.retries, head.ops), "count");
  m.set("store.puts_per_op", per(hc.store_puts, head.ops), "count");
  m.set("ledger.appends_per_op", per(hc.ledger_appends, head.ops), "count");
  m.set("coalesce.requests_per_drain",
        per(delta.counter(obs::kCoalesceRequests),
            delta.counter(obs::kCoalesceDrains)),
        "count");
  m.set("par.busy_frac", par_busy_frac(delta, wall), "ratio");

  for (const char* unused : {"sse.log_depth_mean",
                             "coalesce.pairings_saved_per_burst",
                             "mhi.tags_tested_per_window"}) {
    m.set(unused, 0.0, "count");
  }
  m.set("store.bytes_per_user_byte", 0.0, "ratio");
  m.set("mhi.hit_ratio", 0.0, "ratio");
  const UnitCosts units = probe_layers(w->probe_inputs(), m);
  w->layers(rec, m);
  m.set("model.attributed_frac", attributed_frac(head, units), "ratio");
  const double traced_ops_s = ops_per_s(*w, rec, run.t0, run.t_end);
  m.set("obs.overhead_frac",
        base_ops_s > 0 ? 1.0 - traced_ops_s / base_ops_s : 0.0, "ratio");
  for (const auto& [name, cs] : rec.classes()) {
    std::printf("# model %-18s attributed_frac=%.3f (n=%llu)\n", name.c_str(),
                attributed_frac(cs, units),
                static_cast<unsigned long long>(cs.ops));
  }

  // Paper round-count gate (§V): messages per op must equal the counts
  // BENCH_protocols.json records. Bytes are reported only.
  bool gate_ok = true;
  for (const std::string& name : spec.gated) {
    const ClassStats& cs = rec.cls(name);
    const uint64_t expect = kPaperRounds.at(name);
    const bool ok = cs.ops > 0 && cs.counts.messages == expect * cs.ops;
    gate_ok &= ok;
    std::printf("# round-gate %-16s messages/op=%.4f expected=%llu "
                "bytes/op=%.1f %s\n",
                name.c_str(), per(cs.counts.messages, cs.ops),
                static_cast<unsigned long long>(expect),
                per(cs.counts.bytes, cs.ops), ok ? "ok" : "MISMATCH");
  }

  std::string fp = "{";
  bool first = true;
  for (const auto& [name, cs] : rec.classes()) {
    if (cs.fp_ops == 0) continue;
    fp += std::string(first ? "" : ", ") + "\"" + name +
          "\": " + counts_json(cs.fp_ops, cs.fp_counts);
    first = false;
  }
  std::printf("# fingerprint {\"workload\": \"%s\", \"seed\": %llu, "
              "\"prefix_ops\": %llu, \"classes\": %s}}\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(spec.fingerprint_ops),
              fp.c_str());
  std::printf("# traced %.3f s, %llu top-level ops, %zu spans; baseline %.2f "
              "ops/s, traced %.2f ops/s\n",
              wall, static_cast<unsigned long long>(rec.top_ops()),
              rec.spans().size(), base_ops_s, traced_ops_s);

  w.reset();
  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  write_spans(opt.work_dir + "/spans-" + spec.name + "-" +
                  std::to_string(opt.seed) + ".json",
              rec);
  if (!gate_ok) std::fprintf(stderr, "paper round-count gate failed\n");
  const bool ok = gate_ok && rec.failed() == 0 && base.failed() == 0;
  print_result(ok, rec, base.attempted(), base.failed(), m);
  return ok ? 0 : 1;
}

}  // namespace hcpp::perfbench
