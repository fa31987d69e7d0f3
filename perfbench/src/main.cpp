// hcpp_perfbench — the HCPP benchmark binary.
//
//   hcpp_perfbench --workload routine|emergency|mhi_stream --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints '#'-prefixed report lines (host context, per-class latencies with
// sample counts, the round-count gate and the op-count fingerprint) and, as
// its last line, one JSON object {correct, attempted, failed, metrics}.
// Exit code 0 only when every op passed its oracle.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

using namespace hcpp::perfbench;

namespace {

const WorkloadSpec kSpecs[] = {
    {"routine", make_routine, 256, {"retrieve"}},
    {"emergency", make_emergency, 48,
     {"family", "pdevice_auth", "pdevice_retrieve"}},
    {"mhi_stream", make_mhi_stream, 600, {"window", "window_cold", "role_key"}},
};

int usage() {
  std::fprintf(stderr,
               "usage: hcpp_perfbench --workload routine|emergency|mhi_stream "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--work-dir") {
      opt.work_dir = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.name != opt.workload) continue;
    if (opt.work_dir.empty()) opt.work_dir = ".bench_build/work-" + spec.name;
    try {
      return run(opt, spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
      return 1;
    }
  }
  return usage();
}
