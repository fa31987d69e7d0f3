// Wire messages for every HCPP protocol (§IV.B–E). Each request/response is
// HMAC-authenticated under the appropriate pairwise key (the paper's ν, ϖ, ρ)
// and carries a timestamp for the freshness/replay guard of [26]. Handlers
// receive the structs in-process; the canonical to_bytes() encoding is what
// the MAC covers and what the network simulator charges.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/common/serialize.h"
#include "src/ibc/ibe.h"
#include "src/ibc/ibs.h"
#include "src/sse/sse.h"

namespace hcpp::core {

/// Freshness window for all protocol timestamps.
inline constexpr uint64_t kFreshnessWindowNs = 120'000'000'000ull;  // 2 min

/// MAC label of the §IV.E.1 privileged retrieval (messages 3–4) — shared by
/// the live handler (emergency.cpp) and the batched SEARCH front-end
/// (SearchService::search_batch_privileged), which must authenticate the
/// same wire messages.
inline constexpr const char* kPrivilegedRetrieveLabel =
    "emergency-privileged-retrieval";

/// MAC = HMAC_key(label ‖ body ‖ timestamp).
Bytes protocol_mac(BytesView key, std::string_view label, BytesView body,
                   uint64_t timestamp_ns);
bool protocol_mac_ok(BytesView key, std::string_view label, BytesView body,
                     uint64_t timestamp_ns, BytesView mac);

/// Stamps a MAC-authenticated message with time `now` and its MAC.
template <typename Msg>
void stamp(Msg& msg, BytesView key, std::string_view label, uint64_t now) {
  msg.t = now;
  msg.mac = protocol_mac(key, label, msg.body(), msg.t);
}
/// True iff `msg` carries a valid MAC under `key`.
template <typename Msg>
bool mac_ok(const Msg& msg, BytesView key, std::string_view label) {
  return protocol_mac_ok(key, label, msg.body(), msg.t, msg.mac);
}

// ---- §IV.B private PHI storage: patient → S-server, one message ----------
struct StoreRequest {
  Bytes tp;                // TPp (serialized point)
  std::string collection;  // collection label (one patient may keep several)
  Bytes index;             // serialized sse::SecureIndex
  Bytes files;             // serialized sse::EncryptedCollection
  Bytes d;                 // current privilege key (server-held, §IV.C)
  Bytes be_blob;           // BE_U(d)
  uint64_t t = 0;          // t1
  Bytes mac;               // HMAC_ν

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
  /// Full encoding (body + timestamp + MAC) for transports that carry raw
  /// bytes — the onion overlay of §VI.B.
  [[nodiscard]] Bytes to_wire() const;
  static StoreRequest from_wire(BytesView b);
};

// ---- §IV.D common-case retrieval ------------------------------------------
struct RetrieveRequest {
  Bytes tp;
  std::string collection;
  std::vector<Bytes> trapdoors;  // TD(kw), possibly several keywords
  uint64_t t = 0;                // t4
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
  [[nodiscard]] Bytes to_wire() const;
  static RetrieveRequest from_wire(BytesView b);
};

struct RetrieveResponse {
  std::vector<std::pair<sse::FileId, Bytes>> files;  // Λ(kw)
  uint64_t t = 0;                                    // t5
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
  [[nodiscard]] Bytes to_wire() const;
  static RetrieveResponse from_wire(BytesView b);
};

/// Decrypts the Λ(kw) blobs of a retrieval response (§IV.D and the §IV.E
/// privileged path). A blob that fails authenticated decryption — tampered
/// in storage or in transit — is left out rather than aborting the
/// treatment flow, and counted under obs::kRetrieveBlobsSkipped so the
/// omission is visible.
std::vector<sse::PlainFile> decrypt_files(const sse::Keys& keys,
                                          const RetrieveResponse& resp);

// ---- §IV.E.1 family-based emergency retrieval -----------------------------
struct BeBlobRequest {
  Bytes tp;
  std::string collection;
  uint64_t t = 0;  // t6
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

struct BeBlobResponse {
  Bytes be_blob;  // BE_{U'}(d)
  uint64_t t = 0;  // t7
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

struct PrivilegedRetrieveRequest {
  Bytes tp;
  std::string collection;
  std::vector<Bytes> wrapped_trapdoors;  // TD_U(kw) = θ_d(TD(kw))
  uint64_t t = 0;                        // t8
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

// ---- Dynamic PHI update (DESIGN.md §12) -----------------------------------
/// O(delta) ADD/DELETE: forward-private update-log inserts plus the touched
/// file blobs — the whole-account re-upload of StoreRequest becomes an
/// append proportional to the change.
struct UpdateRequest {
  Bytes tp;
  std::string collection;
  /// (label, entry) pairs for the server's update log (sse::LogInsert).
  std::vector<std::pair<std::string, Bytes>> log_inserts;
  /// Freshly encrypted blobs for added files (per-file AEAD, not the whole
  /// collection).
  std::vector<std::pair<sse::FileId, Bytes>> files_upsert;
  /// File ids whose blobs the server should drop (DELETE tombstones make
  /// them unreachable via SEARCH; dropping the blob reclaims the bytes).
  std::vector<sse::FileId> files_remove;
  uint64_t t = 0;
  Bytes mac;  // HMAC_ν

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

/// COMPACT: replace the packed index with one rebuilt (fresh randomness)
/// from the owner's live file set and clear the update log. Counters reset
/// owner-side (epoch bump), so post-compaction trapdoors are purely static
/// until the next update.
struct CompactRequest {
  Bytes tp;
  std::string collection;
  Bytes index;  // serialized sse::SecureIndex
  uint64_t t = 0;
  Bytes mac;  // HMAC_ν

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

// ---- §IV.C REVOKE ----------------------------------------------------------
struct RevokeRequest {
  Bytes tp;
  std::string collection;
  Bytes sealed;    // E'_ν(d' ‖ BE'_{U'}(d'))
  uint64_t t = 0;  // t3
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

// ---- §IV.E.2 emergency authentication (physician ↔ A-server ↔ P-device) ---
struct EmergencyAuthRequest {
  std::string physician_id;
  Bytes tp;        // the patient pseudonym read off the P-device
  uint64_t t = 0;  // t10
  Bytes sig;       // IBS_Γi(id ‖ m' ‖ tp ‖ t10)

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

struct PasscodeToPhysician {
  Bytes enc_nonce;  // E'_ϖ(nonce)
  uint64_t t = 0;   // t11
  Bytes sig;        // IBS_ΓA(id ‖ tp ‖ enc ‖ t11)

  [[nodiscard]] Bytes body(std::string_view physician_id, BytesView tp) const;
  [[nodiscard]] size_t wire_size() const;
};

struct PasscodeToPDevice {
  std::string physician_id;
  Bytes ibe_blob;  // IBE_TPp(id ‖ nonce ‖ t11)
  uint64_t t = 0;  // t11
  Bytes sig;       // IBS_ΓA(id ‖ tp ‖ blob ‖ t11)
  /// Compact signed statement IBS_ΓA(rd_statement(id, tp, t11)) that the
  /// P-device stores inside its RD record, so the patient can later prove
  /// the transaction to third parties without keeping the bulky IBE blob.
  Bytes audit_sig;

  [[nodiscard]] Bytes body(BytesView tp) const;
  [[nodiscard]] size_t wire_size() const;
};

/// The statement the A-server's audit_sig covers.
Bytes rd_statement(std::string_view physician_id, BytesView tp, uint64_t t11);

// ---- §IV.E.2 MHI -----------------------------------------------------------
struct MhiStoreRequest {
  Bytes tp;
  std::string role_id;           // IDr = Date ‖ Duty ‖ ServiceArea
  std::vector<Bytes> peks_tags;  // PEKS_σ(IDr, kw), one per keyword
  Bytes ibe_blob;                // IBE_IDr(MHI window)
  uint64_t t = 0;                // t12
  Bytes mac;                     // HMAC_ν

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

struct RoleKeyRequest {
  std::string physician_id;
  std::string role_id;
  uint64_t t = 0;
  Bytes sig;  // IBS_Γi

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

struct MhiRetrieveRequest {
  std::string physician_id;
  std::string role_id;
  Bytes trapdoor;  // TDr(kw)
  uint64_t t = 0;  // t13
  Bytes mac;       // HMAC_ρ

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

struct MhiRetrieveResponse {
  std::vector<Bytes> ibe_blobs;  // matching IBE_IDr(MHI)
  uint64_t t = 0;                // t14
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

/// Standing-query registration (DESIGN.md §13): the on-duty physician parks
/// TDr(kw) on the S-server, which then tests it against every MHI window as
/// it lands instead of waiting for a retrieval poll.
struct MhiRegisterRequest {
  std::string physician_id;
  std::string role_id;
  Bytes trapdoor;  // TDr(kw)
  uint64_t t = 0;
  Bytes mac;  // HMAC_ρ

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

/// Drains the hits a standing registration has queued for this physician.
struct MhiHitsRequest {
  std::string physician_id;
  std::string role_id;
  uint64_t t = 0;
  Bytes mac;  // HMAC_ρ

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

struct MhiHitsResponse {
  std::vector<Bytes> ibe_blobs;  // matched IBE_IDr(window)s, oldest first
  uint64_t t = 0;
  Bytes mac;

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] size_t wire_size() const;
};

// ---- Accountability artifacts (§IV.E.2, §V.A) ------------------------------
/// TR, kept by the A-server: proof the physician requested emergency access.
struct TraceRecord {
  std::string physician_id;
  Bytes tp;
  uint64_t t10 = 0;
  uint64_t t11 = 0;
  Bytes physician_sig;  // the IBS from the request

  [[nodiscard]] Bytes body() const;
};

/// RD, kept by the P-device: proof of which physician searched what.
struct RdRecord {
  std::string physician_id;
  Bytes tp;
  std::vector<std::string> keywords;
  uint64_t t11 = 0;
  Bytes aserver_sig;  // the IBS from the passcode delivery

  [[nodiscard]] Bytes body() const;
  [[nodiscard]] Bytes to_bytes() const;
  static RdRecord from_bytes(BytesView b);
};

}  // namespace hcpp::core
