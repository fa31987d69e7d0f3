#include "bench/report.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "src/cipher/chacha20.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"

namespace hcpp::bench {

namespace {

constexpr char kJsonOut[] = "--json-out=";

#ifdef NDEBUG
constexpr char kBuildType[] = "release";
#else
constexpr char kBuildType[] = "debug";
#endif

void quote(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  out += '"';
}

// The common context fields (see report.h).
void write_common_context(Json& j, const char* source) {
  const mp::CpuFeatures& f = mp::cpu_features();
  j.string("source", source)
      .string("library_build_type", kBuildType)
      .integer("hardware_concurrency", std::thread::hardware_concurrency());
  j.object("cpu_features")
      .boolean("bmi2", f.bmi2)
      .boolean("adx", f.adx)
      .boolean("avx2", f.avx2)
      .end();
  j.string("mont_kernel", mp::mont_kernel_name())
      .string("chacha_kernel", cipher::chacha20_kernel_name());
}

// The prebuilt libbenchmark writes its own build type into its context
// block, taken from the LIBRARY's compile flags, so it says "debug" however
// this binary was built. This reporter writes the common context block
// instead, keeping the library's host fields.
class HonestJsonReporter : public benchmark::JSONReporter {
 public:
  explicit HonestJsonReporter(const char* source) : source_(source) {}

  bool ReportContext(const Context& context) override {
    char date[64];
    std::time_t now = std::time(nullptr);
    std::tm tm_buf{};
    localtime_r(&now, &tm_buf);
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%S%z", &tm_buf);
    const benchmark::CPUInfo& cpu = context.cpu_info;
    Json j;
    j.object().object("context");
    j.string("date", date).string("host_name", context.sys_info.name);
    if (Context::executable_name != nullptr) {
      j.string("executable", Context::executable_name);
    }
    j.integer("num_cpus", static_cast<uint64_t>(cpu.num_cpus));
    j.integer("mhz_per_cpu",
              static_cast<uint64_t>(cpu.cycles_per_second / 1e6 + 0.5));
    if (cpu.scaling != benchmark::CPUInfo::UNKNOWN) {
      j.boolean("cpu_scaling_enabled",
                cpu.scaling == benchmark::CPUInfo::ENABLED);
    }
    j.array("load_avg");
    for (double v : cpu.load_avg) j.real({}, v, 2);
    j.end();
    write_common_context(j, source_);
    j.end().array("benchmarks");
    GetOutputStream() << j.str() << '\n';
    return true;
  }

 private:
  const char* source_;
};

}  // namespace

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void usage(const char* argv0, const char* flags) {
  std::fprintf(stderr, "usage: %s %s[%sPATH]\n", argv0, flags, kJsonOut);
  std::exit(2);
}

const char* json_out_arg(const char* arg) {
  constexpr size_t n = sizeof(kJsonOut) - 1;
  return std::strncmp(arg, kJsonOut, n) == 0 ? arg + n : nullptr;
}

const char* parse_json_out(int argc, char** argv) {
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    path = json_out_arg(argv[i]);
    if (path == nullptr) usage(argv[0]);
  }
  return path;
}

void Json::separator() {
  Frame& f = stack_.back();
  out_ += f.empty ? "\n" : ",\n";
  f.empty = false;
  out_.append(2 * stack_.size(), ' ');
}

void Json::open_value(std::string_view key) {
  if (stack_.empty()) return;
  separator();
  if (stack_.back().close == '}') {
    quote(out_, key);
    out_ += ": ";
  }
}

void Json::open_container(std::string_view key, char bracket) {
  open_value(key);
  out_ += bracket;
  stack_.push_back({bracket == '{' ? '}' : ']', true});
}

Json& Json::object(std::string_view key) {
  open_container(key, '{');
  return *this;
}

Json& Json::array(std::string_view key) {
  open_container(key, '[');
  return *this;
}

Json& Json::end() {
  Frame f = stack_.back();
  stack_.pop_back();
  if (!f.empty) {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }
  out_ += f.close;
  return *this;
}

Json& Json::integer(std::string_view key, uint64_t v) {
  open_value(key);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::real(std::string_view key, double v, int decimals) {
  open_value(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  out_ += buf;
  return *this;
}

Json& Json::string(std::string_view key, std::string_view v) {
  open_value(key);
  quote(out_, v);
  return *this;
}

Json& Json::boolean(std::string_view key, bool v) {
  open_value(key);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::members(std::string_view object_json) {
  constexpr std::string_view kSpace = " \t\r\n";
  size_t open = object_json.find('{');
  size_t close = object_json.rfind('}');
  std::string_view inner = object_json.substr(open + 1, close - open - 1);
  size_t first = inner.find_first_not_of(kSpace);
  if (first == std::string_view::npos) return *this;
  inner = inner.substr(first, inner.find_last_not_of(kSpace) - first + 1);
  separator();
  out_ += inner;
  return *this;
}

void write_rows(Json& j, std::span<const Row> rows) {
  j.array("benchmarks");
  for (const Row& r : rows) {
    j.object();
    if (r.threads == 0) {
      j.string("name", r.workload);
    } else {
      j.string("name", r.workload + "/threads:" + std::to_string(r.threads))
          .string("workload", r.workload)
          .integer("threads", r.threads);
    }
    j.real("ops_per_sec", r.ops_per_sec, 2).string("unit", r.unit).end();
  }
  j.end();
}

obs::HistogramSummary histogram_summary(const obs::Registry& reg,
                                        const char* name) {
  obs::Snapshot snap = reg.snapshot();
  auto it = snap.histograms.find(name);
  return it != snap.histograms.end() ? it->second : obs::HistogramSummary{};
}

void write_histogram(Json& j, std::string_view key,
                     const char* source_histogram,
                     const obs::HistogramSummary& h) {
  j.object(key)
      .string("source_histogram", source_histogram)
      .integer("count", h.count)
      .real("p50", h.percentile(0.50), 1)
      .real("p95", h.percentile(0.95), 1)
      .real("p99", h.percentile(0.99), 1)
      .real("max", h.max, 1)
      .end();
}

void write_report(const char* path, const char* source,
                  const std::function<void(Json&)>& context,
                  const std::function<void(Json&)>& body) {
  Json j;
  j.object().object("context");
  write_common_context(j, source);
  if (context) context(j);
  j.end();
  if (body) body(j);
  j.end();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr || std::fputs(j.str().c_str(), f) < 0 ||
      std::fputc('\n', f) == EOF || std::fclose(f) != 0) {
    std::perror(path);
    std::exit(1);
  }
  std::printf("wrote %s\n", path);
}

int benchmark_main(const char* source, int argc, char** argv) {
  // Detect --benchmark_out before Initialize consumes it: passing a file
  // reporter without the flag is a hard error in the library, which still
  // opens the file and owns the stream.
  bool want_file = false;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind("--benchmark_out=", 0) == 0 || arg == "--benchmark_out") {
      want_file = true;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (want_file) {
    HonestJsonReporter file_reporter(source);
    benchmark::RunSpecifiedBenchmarks(nullptr, &file_reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace hcpp::bench
