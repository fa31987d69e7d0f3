#!/usr/bin/env bash
# Runs the bench suites and drops their JSON reports at the repo root:
#   BENCH_pairing.json    — bench_computation (pairing + primitive costs)
#   BENCH_protocols.json  — bench_protocols (messages and bytes per protocol
#                           phase, E3 / §V.B.2)
#   BENCH_metrics.json    — bench_protocols metrics-registry snapshot
#                           (crypto-op counters, transport stats, latency
#                           histograms with p50/p95/p99)
#   BENCH_throughput.json — bench_throughput (ops/sec for the parallel SSE
#                           build / SEARCH serving / collection AEAD / batch
#                           IBS paths at 1/2/4/8 threads; context records
#                           hardware_concurrency so flat scaling on small
#                           containers is self-explanatory)
#   BENCH_ledger.json     — bench_ledger (audit-ledger appends/s with and
#                           without the WAL, chain verify, recovery replay,
#                           Merkle proofs/s; proof-verify latency p50/p95/p99
#                           sourced from the obs histogram)
#   BENCH_load.json       — bench_load (closed/open-loop mixed traffic over
#                           the sharded persistent account store + SEARCH
#                           front-end: p50/p95/p99 per QPS point from the obs
#                           load.*_ns histograms — including the §12 UPDATE
#                           op in both loops — plus the post-run
#                           differential-oracle verdict). Population size
#                           defaults to 100000 accounts; BENCH_LOAD_ACCOUNTS
#                           shrinks it for smoke runs.
#   BENCH_sse.json        — bench_sse (index build serial + pooled, SEARCH,
#                           trapdoors, and the DESIGN.md §12 dynamic update
#                           layer: per-file ADD/DELETE vs full rebuild at
#                           1k/10k files, SEARCH with a pending update log,
#                           compaction fold — the E11 numbers)
#   BENCH_mhi.json        — bench_mhi (DESIGN.md §13 streaming MHI: cold vs
#                           cached PEKS tag encryption, scalar vs batched
#                           PEKS test at 64 candidate tags — the two
#                           amortization ratios land in a "speedups" block —
#                           plus end-to-end window encode/ingest rates and
#                           the standing-query match latency p50/p95/p99
#                           from the mhi.ingest_ns obs histogram)
#
# Usage: tools/run_benchmarks.sh [build-dir]
# Always configures the bench build directory with an explicit optimized
# CMAKE_BUILD_TYPE (BENCH_BUILD_TYPE, default Release; RelWithDebInfo also
# accepted) so numbers are never taken from an accidental debug build, and
# defaults to a dedicated build-bench/ directory so it cannot repurpose a
# developer's test build tree. Repetitions of the google-benchmark suites can
# be raised with BENCH_REPS (default 1); BENCH_SSE_FILTER narrows bench_sse
# for smoke runs.
#
# Every binary writes its report in-process through bench/report.h, whose
# context block records the source binary, library_build_type (from the
# bench build's NDEBUG — the prebuilt libbenchmark's own field describes the
# library, not the code measured), hardware_concurrency, the CPU feature
# flags and the kernel variants the runtime dispatcher selected (mont_kernel:
# generic|mulx-adx, chacha_kernel: generic|avx2).
#
# Fails fast: a missing binary after the build, or a bench exiting non-zero,
# aborts the whole run. The one exception is bench_load, whose non-zero exit
# (a failed differential oracle) is held until the report check below has
# deleted its refused report. After the run one check covers every report: a
# report whose library_build_type is not "release" is deleted and the script
# aborts, and so is a ledger or MHI report without latency samples or a load
# report whose differential oracle failed.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"
reps="${BENCH_REPS:-1}"
build_type="${BENCH_BUILD_TYPE:-Release}"

case "$build_type" in
  Release|RelWithDebInfo) ;;
  *)
    echo "error: BENCH_BUILD_TYPE must be Release or RelWithDebInfo," \
         "got '$build_type'" >&2
    exit 1
    ;;
esac

benches=(bench_computation bench_protocols bench_throughput bench_ledger
         bench_load bench_sse bench_mhi)
cmake -B "$build_dir" -S "$repo_root" -DHCPP_BENCH=ON \
  -DCMAKE_BUILD_TYPE="$build_type"
cmake --build "$build_dir" -j "$(nproc)" --target "${benches[@]}"

for bin in "${benches[@]}"; do
  if [[ ! -x "$build_dir/bench/$bin" ]]; then
    echo "error: $build_dir/bench/$bin still missing after the build" \
         "(HCPP_BENCH=OFF in the cache?)" >&2
    exit 1
  fi
done

bin="$build_dir/bench"
out="$repo_root"
sse_filter="${BENCH_SSE_FILTER:-}"

"$bin/bench_computation" --benchmark_repetitions="$reps" \
  --benchmark_out_format=json --benchmark_out="$out/BENCH_pairing.json" \
  >/dev/null
"$bin/bench_protocols" --json-out="$out/BENCH_protocols.json" \
  --metrics-out="$out/BENCH_metrics.json"
"$bin/bench_throughput" --json-out="$out/BENCH_throughput.json" >/dev/null
"$bin/bench_ledger" --json-out="$out/BENCH_ledger.json" >/dev/null
# Exits non-zero if the store diverged from the differential oracle, after
# writing its report; the script fails once the check has deleted it.
load_rc=0
"$bin/bench_load" --accounts="${BENCH_LOAD_ACCOUNTS:-100000}" \
  --json-out="$out/BENCH_load.json" || load_rc=$?
"$bin/bench_sse" ${sse_filter:+--benchmark_filter="$sse_filter"} \
  --benchmark_repetitions="$reps" \
  --benchmark_out_format=json --benchmark_out="$out/BENCH_sse.json" >/dev/null
# Exits non-zero, writing nothing, if the batched PEKS test diverges from the
# scalar oracle.
"$bin/bench_mhi" --json-out="$out/BENCH_mhi.json"

python3 - "$out" <<'EOF'
import json, os, sys
content = {  # report -> (check, why it is refused)
    "BENCH_ledger.json": (lambda r: r["proof_verify_latency_ns"]["count"] > 0, "no proof-verify latency samples; was the obs registry attached?"),
    "BENCH_load.json": (lambda r: r["oracle"]["pass"], "differential oracle failed; the store diverged from the expected contents"),
    "BENCH_mhi.json": (lambda r: r["ingest_latency_ns"]["count"] > 0, "no ingest latency samples; was the obs registry attached?"),
}
names = ("BENCH_pairing.json", "BENCH_protocols.json", "BENCH_metrics.json", "BENCH_throughput.json",
         "BENCH_ledger.json", "BENCH_load.json", "BENCH_sse.json", "BENCH_mhi.json")
failed = False
for name in names:
    path = os.path.join(sys.argv[1], name)
    with open(path) as f:
        report = json.load(f)
    build = report["context"].get("library_build_type", "missing")
    check, why = content.get(name, (lambda r: True, ""))
    if build != "release":
        why = f"library_build_type={build!r}; refusing to keep numbers from a non-optimized build"
    elif check(report):
        continue
    os.unlink(path)
    print(f"error: {name}: {why}", file=sys.stderr)
    failed = True
print(f"checked {len(names)} reports in {sys.argv[1]}" + (": refused some" if failed else ""))
sys.exit(failed)
EOF
if (( load_rc != 0 )); then
  echo "error: bench_load exited with status $load_rc" >&2
  exit "$load_rc"
fi
