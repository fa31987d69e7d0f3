// Streaming MHI pipeline costs (DESIGN.md §13): the encrypt-side g_r cache,
// the batched PEKS test against a standing trapdoor, and the end-to-end
// MhiIngestor → MhiStreamHub window path. The headline numbers are the two
// amortization ratios the design claims:
//   * peks_encrypt_cached vs peks_encrypt_cold — the per-epoch
//     hash-to-point + pairing hoisted out of the tag loop;
//   * peks_test_batch vs peks_test_scalar — precomputed Miller loops plus
//     ONE batched final exponentiation across all candidate tags.
// Both fast paths are checked against their scalar oracles inline; a report
// is only written if the verdict vectors agree bit-for-bit. The standing-
// query match latency distribution comes from the library's own
// mhi.ingest_ns obs histogram, not a bench-side timer.
//
// Plain main() harness (like bench_ledger): prints a table and, with
// --json-out, a JSON report (bench/report.h).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/cipher/drbg.h"
#include "src/core/mhi_stream.h"
#include "src/curve/params.h"
#include "src/ibc/domain.h"
#include "src/obs/metrics.h"
#include "src/peks/peks.h"

using namespace hcpp;
using bench::Row;

namespace {

constexpr size_t kTags = 64;           // candidate tags per batched test
constexpr size_t kRegistrations = 4;   // standing physicians on the hub
constexpr size_t kWindowSamples = 16;  // vital-sign samples per window

const char* kDay = "2011-04-12";
const char* kDayKeyword = "day:2011-04-12";

peks::Variant variant_for(size_t i) {
  return (i % 2 == 0) ? peks::Variant::kBdop : peks::Variant::kRandomized;
}

/// Every 8th tag carries the day keyword the trapdoor searches for; the rest
/// carry distinct misses. Variants alternate so both comparison paths are in
/// the measured mix.
std::vector<peks::PeksCiphertext> make_tags(const ibc::PublicParams& pub,
                                            const std::string& role,
                                            RandomSource& rng) {
  peks::PeksEncryptor enc(pub);
  std::vector<peks::PeksCiphertext> tags;
  tags.reserve(kTags);
  for (size_t i = 0; i < kTags; ++i) {
    std::string kw =
        (i % 8 == 0) ? kDayKeyword : "vitals:kw-" + std::to_string(i);
    tags.push_back(enc.encrypt(role, kw, rng, variant_for(i)));
  }
  return tags;
}

Row bench_encrypt_cold(const ibc::PublicParams& pub, const std::string& role,
                       RandomSource& rng) {
  double ops = bench::measure(0.3, 4, [&] {
    for (size_t i = 0; i < 4; ++i) {
      peks::peks_encrypt(pub, role, "vitals:hr", rng, variant_for(i));
    }
  });
  return {"peks_encrypt_cold", ops, "tags/s"};
}

Row bench_encrypt_cached(const ibc::PublicParams& pub, const std::string& role,
                         RandomSource& rng) {
  peks::PeksEncryptor enc(pub);  // warm-up call fills the g_r cache
  double ops = bench::measure(0.3, 4, [&] {
    for (size_t i = 0; i < 4; ++i) {
      enc.encrypt(role, "vitals:hr", rng, variant_for(i));
    }
  });
  return {"peks_encrypt_cached", ops, "tags/s"};
}

Row bench_test_scalar(const curve::CurveCtx& ctx,
                      std::span<const peks::PeksCiphertext> tags,
                      const peks::Trapdoor& td,
                      std::vector<uint8_t>* verdicts_out) {
  std::vector<uint8_t> verdicts(tags.size(), 0);
  double ops = bench::measure(0.6, tags.size(), [&] {
    for (size_t i = 0; i < tags.size(); ++i) {
      verdicts[i] = peks::peks_test(ctx, tags[i], td) ? 1 : 0;
    }
  });
  *verdicts_out = verdicts;
  return {"peks_test_scalar", ops, "tests/s"};
}

Row bench_test_batch(const curve::CurveCtx& ctx,
                     std::span<const peks::PeksCiphertext> tags,
                     const peks::Trapdoor& td,
                     std::vector<uint8_t>* verdicts_out) {
  std::vector<uint8_t> verdicts;
  double ops = bench::measure(0.6, tags.size(), [&] {
    verdicts = peks::peks_test_batch(ctx, tags, td);
  });
  *verdicts_out = verdicts;
  return {"peks_test_batch", ops, "tests/s"};
}

Row bench_stream_encode(const ibc::PublicParams& pub, const std::string& role,
                        RandomSource& rng) {
  core::MhiIngestor ingestor(pub, role);
  core::MhiWindow win = core::generate_mhi_window(kDay, kWindowSamples, rng);
  std::vector<std::string> extra = {"vitals:anomalous"};
  double ops = bench::measure(0.3, 1, [&] {
    core::MhiIngestor::EncodedWindow enc = ingestor.encode(win, extra, rng);
    if (enc.peks_tags.size() != 2) std::abort();
  });
  return {"stream_encode", ops, "windows/s"};
}

Row bench_stream_ingest(const curve::CurveCtx& ctx,
                        const ibc::PublicParams& pub,
                        const curve::Point& role_key, const std::string& role,
                        RandomSource& rng) {
  // Standing registrations: one physician searching for the day keyword
  // (matches every window), the rest parked on keywords that never land.
  core::MhiStreamHub hub(ctx);
  hub.register_trapdoor("dr-0", role,
                        peks::peks_trapdoor(ctx, role_key, kDayKeyword));
  for (size_t i = 1; i < kRegistrations; ++i) {
    hub.register_trapdoor(
        "dr-" + std::to_string(i), role,
        peks::peks_trapdoor(ctx, role_key, "code:" + std::to_string(i)));
  }

  core::MhiIngestor ingestor(pub, role);
  core::MhiWindow win = core::generate_mhi_window(kDay, kWindowSamples, rng);
  std::vector<std::string> extra = {"vitals:anomalous"};
  core::MhiIngestor::EncodedWindow enc = ingestor.encode(win, extra, rng);
  std::vector<peks::PeksCiphertext> tags;
  for (const Bytes& t : enc.peks_tags) {
    tags.push_back(peks::PeksCiphertext::from_bytes(ctx, t));
  }

  double ops = bench::measure(0.3, 1, [&] {
    if (hub.ingest(role, tags, enc.ibe_blob) != 1) std::abort();
    (void)hub.drain_hits("dr-0");  // bound the queue during the run
  });
  return {"stream_ingest", ops, "windows/s"};
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_out = bench::parse_json_out(argc, argv);

  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kProduction);
  cipher::Drbg rng(to_bytes("bench-mhi"));
  ibc::Domain domain(ctx, rng);
  const std::string role =
      core::mhi_role_id(kDay, "emergency", "gainesville");
  curve::Point role_key = domain.extract(role);
  peks::Trapdoor td = peks::peks_trapdoor(ctx, role_key, kDayKeyword);
  std::vector<peks::PeksCiphertext> tags = make_tags(domain.pub(), role, rng);

  std::vector<Row> rows;
  rows.push_back(bench_encrypt_cold(domain.pub(), role, rng));
  rows.push_back(bench_encrypt_cached(domain.pub(), role, rng));
  std::vector<uint8_t> scalar_verdicts;
  std::vector<uint8_t> batch_verdicts;
  rows.push_back(bench_test_scalar(ctx, tags, td, &scalar_verdicts));
  rows.push_back(bench_test_batch(ctx, tags, td, &batch_verdicts));

  // Differential oracle gating the report: the batched path must agree with
  // the scalar path on every tag, and the expected matches must be present.
  if (batch_verdicts != scalar_verdicts) {
    std::fprintf(stderr,
                 "error: peks_test_batch diverged from the scalar oracle\n");
    return 1;
  }
  for (size_t i = 0; i < kTags; ++i) {
    if (scalar_verdicts[i] != (i % 8 == 0 ? 1 : 0)) {
      std::fprintf(stderr, "error: tag %zu has the wrong verdict\n", i);
      return 1;
    }
  }

  rows.push_back(bench_stream_encode(domain.pub(), role, rng));

  // The ingest workload runs with a registry attached so the library's own
  // mhi.ingest_ns histogram captures the standing-query match latency.
  obs::Registry reg;
  obs::attach(&reg);
  rows.push_back(bench_stream_ingest(ctx, domain.pub(), role_key, role, rng));
  obs::attach(nullptr);
  obs::HistogramSummary ingest_lat =
      bench::histogram_summary(reg, obs::kMhiIngestNs);

  double encrypt_speedup = rows[1].ops_per_sec / rows[0].ops_per_sec;
  double test_speedup = rows[3].ops_per_sec / rows[2].ops_per_sec;

  std::printf("%-20s %14s  %s\n", "workload", "ops/sec", "unit");
  for (const Row& r : rows) {
    std::printf("%-20s %14.1f  %s\n", r.workload.c_str(), r.ops_per_sec,
                r.unit.c_str());
  }
  std::printf("speedups: encrypt cached/cold=%.2fx, test batch/scalar=%.2fx "
              "(%zu tags)\n",
              encrypt_speedup, test_speedup, kTags);
  std::printf("ingest latency (ns): p50=%.0f p95=%.0f p99=%.0f "
              "(%llu samples)\n",
              ingest_lat.percentile(0.50), ingest_lat.percentile(0.95),
              ingest_lat.percentile(0.99),
              static_cast<unsigned long long>(ingest_lat.count));

  if (json_out != nullptr) {
    bench::write_report(
        json_out, "bench_mhi",
        [](bench::Json& j) {
          j.integer("candidate_tags", kTags)
              .integer("standing_registrations", kRegistrations);
        },
        [&](bench::Json& j) {
          bench::write_rows(j, rows);
          j.object("speedups")
              .real("peks_encrypt_cached_vs_cold", encrypt_speedup, 2)
              .real("peks_test_batch_vs_scalar", test_speedup, 2)
              .end();
          bench::write_histogram(j, "ingest_latency_ns", obs::kMhiIngestNs,
                                 ingest_lat);
        });
  }
  return 0;
}
