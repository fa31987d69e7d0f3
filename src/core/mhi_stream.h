// Streaming MHI pipeline (DESIGN.md §13): the continuous body-area-network
// workload of RSPP layered over §IV.E.2's one-shot MHI protocol. P-devices
// emit sensor windows at high rate; the S-server holds *standing* trapdoor
// registrations for the on-duty physicians and tests every window's PEKS
// tags as they land, queueing emergency hits for real-time delivery instead
// of waiting for a poll-time scan.
//
// Every pairing on the path is amortized:
//   * Ingest (MhiIngestor): g_r = ê(PK_r, Ppub) and the IBE base are cached
//     per role epoch, so a steady-state window costs Gt exponentiations and
//     fixed-base generator muls only — no pairing, no hash-to-point.
//   * Match (MhiStreamHub): each registration carries the trapdoor's Miller
//     line cache (peks::TrapdoorPrecomp), so a landing window pays one cheap
//     precomputed Miller loop per (registration, tag) pair and ONE batched
//     final exponentiation per ingest across all of them.
//   * Epoch rollover: IDr = Date‖Duty‖ServiceArea changes → expire_role()
//     drops stale registrations server-side and roll_epoch() rolls the
//     encrypt-side cache, so tags and trapdoors from different epochs never
//     cross-match (distinct H1 preimages).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/core/record.h"
#include "src/ibc/ibe.h"
#include "src/peks/peks.h"

namespace hcpp::core {

/// Composes the role identity IDr = Date ‖ Duty ‖ ServiceArea (§IV.E.2),
/// e.g. mhi_role_id("2011-04-12", "emergency", "gainesville").
std::string mhi_role_id(std::string_view date, std::string_view duty,
                        std::string_view service_area);

// ---------------------------------------------------------------------------
/// P-device side of the stream: encrypts windows for the current role epoch
/// with every per-epoch pairing hoisted out of the loop.
class MhiIngestor {
 public:
  MhiIngestor(const ibc::PublicParams& pub, std::string role_id);

  struct EncodedWindow {
    std::vector<Bytes> peks_tags;  // PEKS_σ(IDr, kw), serialized
    Bytes ibe_blob;                // IBE_IDr(window), serialized
  };

  /// IBE-encrypts `win` under the current epoch's role identity and tags it
  /// with PEKS over "day:<win.day>" plus `extra_keywords`. Bit-identical to
  /// the cold path (ibe_encrypt + peks_encrypt) for the same RNG stream.
  EncodedWindow encode(const MhiWindow& win,
                       std::span<const std::string> extra_keywords,
                       RandomSource& rng);

  /// Epoch rollover: subsequent windows are addressed to `new_role_id`; the
  /// stale epoch's cached pairing bases are dropped.
  void roll_epoch(const std::string& new_role_id);

  [[nodiscard]] const std::string& role_id() const noexcept {
    return role_id_;
  }
  /// Role epochs currently held in the PEKS g_r cache (1 after a roll).
  [[nodiscard]] size_t cached_roles() const noexcept {
    return peks_.cached_roles();
  }

 private:
  ibc::PublicParams pub_;
  std::string role_id_;
  peks::PeksEncryptor peks_;
  ibc::IbePrecomputed ibe_;  // ê(H1(IDr), Ppub) for the current epoch
};

// ---------------------------------------------------------------------------
/// One matched window queued for a standing registration's owner.
struct MhiHit {
  std::string role_id;
  Bytes ibe_blob;  // IBE_IDr(window) — only the role-key holder can open it
};

/// S-server side of the stream: standing trapdoor registrations per on-duty
/// physician, tested against every window as it lands.
class MhiStreamHub {
 public:
  explicit MhiStreamHub(const curve::CurveCtx& ctx) : ctx_(&ctx) {}

  /// Parks TDr(kw) for `physician_id`, building its Miller line cache once.
  /// A re-registration by the same physician for the same role replaces the
  /// previous trapdoor (standing queries are one-per-physician-per-role).
  void register_trapdoor(const std::string& physician_id,
                         const std::string& role_id,
                         const peks::Trapdoor& td);

  /// Epoch rollover: drops every standing registration for `role_id` (their
  /// trapdoors can never match another epoch's tags — see header comment),
  /// and the role's key slot with them. Returns how many were dropped.
  /// Queued hits survive until drained.
  size_t expire_role(const std::string& role_id);

  /// The slot the S-server keeps its pairwise key ρ for `role_id` in
  /// (SServer::role_key), empty until filled; the hub never reads it. It
  /// exists exactly while the role has standing registrations, so nullptr
  /// for any other role.
  [[nodiscard]] Bytes* role_key_slot(const std::string& role_id);
  /// Roles whose key slot is filled.
  [[nodiscard]] size_t role_keys_held() const noexcept;

  /// Tests one freshly-landed window against all standing registrations for
  /// its role. One precomputed Miller loop per (registration, tag) pair and
  /// ONE pool-sharded batched final exponentiation per call; a matching
  /// registration queues one MhiHit for its physician. Returns the number of
  /// hits queued.
  size_t ingest(const std::string& role_id,
                std::span<const peks::PeksCiphertext> tags,
                const Bytes& ibe_blob, par::ThreadPool* pool = nullptr);

  /// Hands over (and clears) the hits queued for `physician_id`. With a
  /// non-empty `role_id`, only that epoch's hits are drained — a fetch
  /// authenticated under one role key must not destroy hits whose blobs
  /// only another epoch's key could open.
  [[nodiscard]] std::vector<MhiHit> drain_hits(const std::string& physician_id,
                                               const std::string& role_id = "");
  [[nodiscard]] size_t pending_hits(const std::string& physician_id) const;
  [[nodiscard]] size_t registration_count() const noexcept;

  struct Stats {
    uint64_t windows_ingested = 0;
    uint64_t tags_tested = 0;  // (registration, tag) pairs evaluated
    uint64_t hits = 0;
    uint64_t expired_registrations = 0;
    size_t registrations = 0;  // currently standing
    size_t pending = 0;        // queued, not yet drained
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Registration {
    std::string physician_id;
    peks::TrapdoorPrecomp precomp;
  };

  struct Role {
    std::vector<Registration> regs;
    Bytes key;  // role_key_slot
  };

  const curve::CurveCtx* ctx_;
  std::map<std::string, Role> by_role_;
  std::map<std::string, std::vector<MhiHit>> hits_;  // physician → queue
  uint64_t windows_ingested_ = 0;
  uint64_t tags_tested_ = 0;
  uint64_t hits_total_ = 0;
  uint64_t expired_ = 0;
};

}  // namespace hcpp::core
