// E4 (§V.B.1 storage analysis): regenerates the paper's storage claims as a
// table — patient-side retrieval state is O(1) in the number of PHI files,
// server-side state is O(N) (the best known for privacy-preserving SSE, cf.
// Table 1 of [17]).
#include <cinttypes>
#include <cstdio>

#include "src/cipher/drbg.h"
#include "src/core/record.h"
#include "src/sse/sse.h"

using namespace hcpp;

namespace {

struct Row {
  size_t n_files;
  size_t patient_bytes;  // keys only — what the cell phone must hold
  size_t index_bytes;    // SI at the server
  size_t cipher_bytes;   // Λ at the server
};

Row sizes_at(size_t n_files) {
  cipher::Drbg rng(to_bytes("bench-storage-" + std::to_string(n_files)));
  auto files = core::generate_phi_collection(n_files, rng);
  sse::Keys keys = sse::Keys::generate(rng);
  sse::SecureIndex si = sse::build_index(files, keys, rng);
  sse::EncryptedCollection ec = sse::encrypt_collection(files, keys, rng);
  return Row{n_files, keys.to_bytes().size(), si.size_bytes(),
             ec.size_bytes()};
}

}  // namespace

int main() {
  std::printf(
      "E4 / §V.B.1 — storage scaling (paper claim: patient O(1), server "
      "O(N))\n");
  std::printf("%10s %18s %18s %18s %14s\n", "N files", "patient bytes",
              "server SI bytes", "server file bytes", "SI bytes/file");
  Row base = sizes_at(8);
  Row big = base;  // ends as the loop's 2048-file row
  for (size_t n : {8u, 32u, 128u, 512u, 2048u}) {
    Row r = (n == 8) ? base : sizes_at(n);
    std::printf("%10zu %18zu %18zu %18zu %14.1f\n", r.n_files,
                r.patient_bytes, r.index_bytes, r.cipher_bytes,
                static_cast<double>(r.index_bytes) /
                    static_cast<double>(r.n_files));
    big = r;
  }
  bool patient_constant = big.patient_bytes == base.patient_bytes;
  double server_ratio = static_cast<double>(big.index_bytes) /
                        static_cast<double>(base.index_bytes);
  std::printf("\npatient-side state constant across 8→2048 files: %s\n",
              patient_constant ? "YES (O(1), matches paper)" : "NO");
  std::printf(
      "server-side index grew %.1fx for a 256x larger collection "
      "(linear => ~256x): %s\n",
      server_ratio,
      (server_ratio > 100 && server_ratio < 600) ? "O(N), matches paper"
                                                 : "UNEXPECTED");
  return 0;
}
