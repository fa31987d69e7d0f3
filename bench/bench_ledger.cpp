// Audit-ledger costs (src/ledger): append throughput with and without the
// write-ahead log, full-chain verification, and O(log n) Merkle inclusion
// proofs. The proof-verify latency distribution comes from the library's own
// obs histogram (ledger.proof.verify_ns) rather than a bench-side timer, so
// the numbers are the ones a deployment's metrics endpoint would report.
//
// Plain main() harness (like bench_throughput): prints a table and, with
// --json-out, a JSON report (bench/report.h).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/ledger/ledger.h"
#include "src/obs/metrics.h"

using namespace hcpp;
using bench::Row;

namespace {

constexpr size_t kEntries = 4096;  // chain size the verify/proof runs use

ledger::AccessEvent make_event(uint64_t i) {
  ledger::AccessEvent ev;
  ev.kind = (i % 2 == 0) ? ledger::EventKind::kTrace
                         : ledger::EventKind::kAccess;
  ev.actor_id = "dr-" + std::to_string(i % 16);
  ev.subject = to_bytes("tp-" + std::to_string(i % 64));
  if (ev.kind == ledger::EventKind::kAccess) {
    ev.keywords = {"diabetes", "insulin"};
  }
  ev.t10 = 1'000 + i;
  ev.t11 = 2'000 + i;
  ev.sig = Bytes(96, static_cast<uint8_t>(i));
  return ev;
}

Row bench_append() {
  double ops = bench::measure(0.3, kEntries, [] {
    ledger::Ledger led("bench");
    for (uint64_t i = 0; i < kEntries; ++i) led.append(make_event(i));
  });
  return {"append", ops, "entries/s"};
}

Row bench_append_wal() {
  std::filesystem::path wal =
      std::filesystem::temp_directory_path() / "hcpp-bench-ledger-wal";
  double ops = bench::measure(0.3, kEntries, [&] {
    std::filesystem::remove(wal);
    ledger::Ledger led("bench");
    if (!led.attach_wal(wal.string())) std::abort();
    for (uint64_t i = 0; i < kEntries; ++i) led.append(make_event(i));
  });
  std::filesystem::remove(wal);
  return {"append_wal", ops, "entries/s"};
}

Row bench_verify_chain(const ledger::Ledger& led) {
  double ops = bench::measure(0.3, led.size(), [&] {
    if (!led.verify_chain().ok()) std::abort();
  });
  return {"verify_chain", ops, "entries/s"};
}

Row bench_recover(const std::string& wal_path) {
  double ops = bench::measure(0.3, kEntries, [&] {
    ledger::RecoveryReport rep;
    ledger::Ledger led = ledger::Ledger::recover(wal_path, "bench", &rep);
    if (rep.entries != kEntries) std::abort();
  });
  return {"recover", ops, "entries/s"};
}

Row bench_proofs(const ledger::Ledger& led) {
  Bytes root = led.merkle_root(led.size());
  double ops = bench::measure(0.3, 256, [&] {
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t seq = (i * 131) % led.size();
      ledger::InclusionProof proof = led.prove(seq, led.size());
      if (!ledger::Ledger::verify_proof(root, proof)) std::abort();
    }
  });
  return {"prove_and_verify", ops, "proofs/s"};
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_out = bench::parse_json_out(argc, argv);

  // A populated chain for the read-side workloads, plus a WAL image of it
  // for the recovery workload.
  ledger::Ledger led("bench");
  std::filesystem::path wal =
      std::filesystem::temp_directory_path() / "hcpp-bench-ledger-recover";
  std::filesystem::remove(wal);
  if (!led.attach_wal(wal.string())) std::abort();
  for (uint64_t i = 0; i < kEntries; ++i) led.append(make_event(i));

  std::vector<Row> rows;
  rows.push_back(bench_append());
  rows.push_back(bench_append_wal());
  rows.push_back(bench_verify_chain(led));
  rows.push_back(bench_recover(wal.string()));

  // Proof workload runs with a registry attached so the library's own
  // ledger.proof.verify_ns histogram captures the latency distribution.
  obs::Registry reg;
  obs::attach(&reg);
  rows.push_back(bench_proofs(led));
  obs::attach(nullptr);
  obs::HistogramSummary verify_lat =
      bench::histogram_summary(reg, obs::kLedgerProofVerifyNs);
  std::filesystem::remove(wal);

  std::printf("%-18s %14s  %s\n", "workload", "ops/sec", "unit");
  for (const Row& r : rows) {
    std::printf("%-18s %14.1f  %s\n", r.workload.c_str(), r.ops_per_sec,
                r.unit.c_str());
  }
  std::printf("proof verify latency (ns): p50=%.0f p95=%.0f p99=%.0f "
              "(%llu samples)\n",
              verify_lat.percentile(0.50), verify_lat.percentile(0.95),
              verify_lat.percentile(0.99),
              static_cast<unsigned long long>(verify_lat.count));

  if (json_out != nullptr) {
    bench::write_report(
        json_out, "bench_ledger",
        [](bench::Json& j) { j.integer("chain_entries", kEntries); },
        [&](bench::Json& j) {
          bench::write_rows(j, rows);
          bench::write_histogram(j, "proof_verify_latency_ns",
                                 obs::kLedgerProofVerifyNs, verify_lat);
        });
  }
  return 0;
}
