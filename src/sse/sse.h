// Searchable symmetric encryption — the non-adaptive SSE-1 construction of
// Curtmola et al. [17] exactly as instantiated by the paper's Fig. 2, plus
// the ASSIGN/REVOKE privilege extension of §IV.C.
//
// Structures:
//   * Array A — one fixed-size slot per index node. The nodes of the linked
//     list L_i for keyword kw_i are scattered across A by the PRP φ_a; node
//     j is encrypted under the per-node key λ_{i,j-1} carried by node j-1
//     (the head key λ_{i,0} lives in the lookup table). Unused slots are
//     filled with random bytes, so the server sees a uniform array.
//   * Lookup table T — maps the virtual address ϖ_c(kw) to
//     (addr(L_{i,1}) ‖ λ_{i,0}) ⊕ f_b(kw): an O(1) lookup that only the
//     holder of a trapdoor can unmask.
//
// A trapdoor TD(kw) = (ϖ_c(kw), f_b(kw)) lets the server locate and walk
// exactly one list, learning only the matching (encrypted) file ids.
// Privileged entities (family, P-device) submit θ_d-wrapped trapdoors,
// where d is re-keyable via broadcast encryption — revoking an entity
// invalidates every trapdoor it can still produce.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/common/serialize.h"
#include "src/prf/feistel.h"
#include "src/prf/prf.h"

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::sse {

using FileId = uint64_t;

/// The patient's SSE secret bundle (§IV.A): a, b, c drive the index; d is
/// the (re-keyable) privilege key; s encrypts file bodies (the paper's E').
struct Keys {
  Bytes a, b, c, d, s;  // 32 bytes each

  static Keys generate(RandomSource& rng);
  [[nodiscard]] Bytes to_bytes() const;
  static Keys from_bytes(BytesView b);
};

/// A plaintext health-record file with its search keywords.
struct PlainFile {
  FileId id = 0;
  std::string name;
  Bytes content;
  std::vector<std::string> keywords;

  [[nodiscard]] Bytes to_bytes() const;
  static PlainFile from_bytes(BytesView b);
};

/// The secure index SI = (A, T).
struct SecureIndex {
  std::vector<Bytes> array_a;  // every slot exactly kNodeSize bytes
  std::unordered_map<std::string, Bytes> table_t;  // hex(vaddr) -> masked

  [[nodiscard]] Bytes to_bytes() const;
  static SecureIndex from_bytes(BytesView b);
  /// Serialized footprint — the O(N) server-side cost of §V.B.1.
  [[nodiscard]] size_t size_bytes() const;
};

/// The encrypted file collection Λ = E'_s(F).
struct EncryptedCollection {
  std::unordered_map<FileId, Bytes> files;

  [[nodiscard]] Bytes to_bytes() const;
  static EncryptedCollection from_bytes(BytesView b);
  [[nodiscard]] size_t size_bytes() const;
};

/// TD(kw) = (ϖ_c(kw), f_b(kw)). The raw encoding carries an integrity tag so
/// the server can reject garbage produced by unwrapping with a stale d.
struct Trapdoor {
  Bytes address;  // 16 bytes: ϖ_c(kw)
  Bytes mask;     // 40 bytes: f_b(kw)

  [[nodiscard]] Bytes to_bytes() const;  // fixed 60-byte encoding
  static std::optional<Trapdoor> from_bytes(BytesView b);  // checks the tag
};

inline constexpr size_t kNodeSize = 49;      // flag ‖ fid ‖ λ ‖ next
inline constexpr size_t kTrapdoorSize = 60;  // address ‖ mask ‖ tag

/// Builds SI per Fig. 2. `padding_factor` (finite, >= 1; anything else
/// throws std::invalid_argument) grows A beyond the exact node count to
/// blunt size leakage (§V discussion).
///
/// φ_a is computed once per build as a table
/// (`prf::permutation_table(a, "sse1/phi", |A|)`); node j of the i-th
/// keyword's list (keywords in sorted order) goes to A[φ(Σ_{k<i}|L_k| + j)].
/// Search never evaluates φ, so indexes built under an earlier φ stay
/// searchable.
///
/// With a pool, keyword lists are written and array A padded in parallel
/// shards; each shard draws its randomness from a DRBG stream forked off
/// `rng`, so the output is reproducible for a given seed and thread count,
/// and the node addresses and search results are identical across thread
/// counts (the index *bytes* differ — only the per-node keys and padding
/// randomness move). `pool == nullptr` or a pool of one is the exact serial
/// schedule.
SecureIndex build_index(std::span<const PlainFile> files, const Keys& keys,
                        RandomSource& rng, double padding_factor = 1.25,
                        par::ThreadPool* pool = nullptr);

/// Λ = E'_s(F): per-file AEAD of the serialized PlainFile. With a pool the
/// per-file encryptions run in parallel shards (forked nonce streams);
/// decrypted plaintexts are identical across thread counts.
EncryptedCollection encrypt_collection(std::span<const PlainFile> files,
                                       const Keys& keys, RandomSource& rng,
                                       par::ThreadPool* pool = nullptr);

/// Decrypts one file blob; throws cipher::AuthError on tampering.
PlainFile decrypt_file(const Keys& keys, BytesView blob);

/// Decrypts a whole collection (parallel per-file AEAD when given a pool),
/// sorted by file id. Tampered blobs are skipped, not fatal.
std::vector<PlainFile> decrypt_collection(const Keys& keys,
                                          const EncryptedCollection& ec,
                                          par::ThreadPool* pool = nullptr);

/// Owner-side trapdoor factory: hoists the ϖ_c PRP and f_b PRF (and their
/// HMAC key schedules) out of the per-keyword loop. Immutable after
/// construction — shareable across threads.
class TrapdoorGen {
 public:
  explicit TrapdoorGen(const Keys& keys);

  [[nodiscard]] Trapdoor make(std::string_view kw) const;
  /// ϖ_c(kw) — the 16-byte virtual address.
  [[nodiscard]] Bytes address(std::string_view kw) const;
  /// f_b(kw) — the 40-byte mask.
  [[nodiscard]] Bytes mask(std::string_view kw) const;

 private:
  prf::FeistelPrp prp_c_;  // ϖ_c
  prf::Prf f_b_;           // f_b
};

/// Owner-side trapdoor generation (one-shot; loops should use TrapdoorGen).
Trapdoor make_trapdoor(const Keys& keys, std::string_view kw);

/// Server-side SEARCH: O(1) table hit + walk of the matching list. Returns
/// the matching file ids (empty when the keyword is absent).
std::vector<FileId> search(const SecureIndex& index, const Trapdoor& td);

/// Batch SEARCH over a read-only index: result[i] = search(index, tds[i]).
/// The index is never written, so with a pool the walks run concurrently
/// without locks.
std::vector<std::vector<FileId>> search_many(const SecureIndex& index,
                                             std::span<const Trapdoor> tds,
                                             par::ThreadPool* pool = nullptr);

// ---- ASSIGN / REVOKE extension ------------------------------------------

/// θ_d(TD): the wrapped trapdoor a privileged entity submits.
Bytes wrap_trapdoor(BytesView d, const Trapdoor& td);

/// Server-side unwrap + validity check; nullopt when `d` is stale (i.e. the
/// submitter has been revoked) or the blob is malformed.
std::optional<Trapdoor> unwrap_trapdoor(BytesView d, BytesView wrapped);

/// Batch unwrap: one θ_d key schedule shared across the whole batch, spread
/// over the pool. result[i] is nullopt exactly when unwrap_trapdoor(d,
/// wrapped[i]) would be.
std::vector<std::optional<Trapdoor>> unwrap_trapdoors(
    BytesView d, std::span<const Bytes> wrapped,
    par::ThreadPool* pool = nullptr);

}  // namespace hcpp::sse
