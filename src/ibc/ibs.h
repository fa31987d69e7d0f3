// Hess identity-based signatures ([28], SAC 2002) — the paper's IBS used by
// physicians to authenticate to the A-server and by the A-server to sign
// passcode deliveries and accountability traces.
//
//   Sign (private key Γ = s0·H1(ID)):
//     k ∈R Zq*,  u = ê(H1(ID), P)^k,  v = H3(m ‖ u),  W = v·Γ + k·H1(ID)
//     signature = (v, W)
//   Verify:
//     u' = ê(W, P) · ê(H1(ID), Ppub)^{−v},  accept iff H3(m ‖ u') == v
#pragma once

#include "src/ibc/domain.h"

namespace hcpp::par {
class ThreadPool;
}

namespace hcpp::ibc {

struct IbsSignature {
  mp::U512 v;      // scalar challenge
  curve::Point w;  // response point

  [[nodiscard]] Bytes to_bytes() const;
  static IbsSignature from_bytes(const curve::CurveCtx& ctx, BytesView b);
  [[nodiscard]] size_t size() const;
};

IbsSignature ibs_sign(const curve::CurveCtx& ctx,
                      const curve::Point& private_key, std::string_view id,
                      BytesView message, RandomSource& rng);

/// The challenge hash H3(m ‖ u) both sign and verify compute. Exposed so the
/// cross-request coalescer (core::PairingCoalescer) can finish verifications
/// whose pairing work was batched; must stay in lock-step with ibs_sign.
mp::U512 ibs_challenge(const curve::CurveCtx& ctx, BytesView message,
                       const curve::Gt& u);

bool ibs_verify(const PublicParams& pub, std::string_view id,
                BytesView message, const IbsSignature& sig);

/// Precomputed signing context for a fixed signer: hoists H1(ID) and
/// ê(H1(ID), P), so each signature costs one Gt exponentiation and two point
/// multiplications — no hash-to-point, no pairing. sign() consumes the same
/// randomness as ibs_sign and returns the same signature for the same DRBG
/// stream; ibs_sign stays as its differential oracle.
class IbsSigner {
 public:
  IbsSigner(const curve::CurveCtx& ctx, const curve::Point& private_key,
            std::string_view id);

  [[nodiscard]] IbsSignature sign(BytesView message, RandomSource& rng) const;

 private:
  const curve::CurveCtx* ctx_;
  curve::Point private_key_;  // Γ = s0·H1(ID)
  curve::Point q_id_;         // H1(ID)
  curve::Gt g_id_;            // ê(H1(ID), P)
};

/// Precomputed verification context for a fixed signer identity: hoists
/// ê(H1(ID), Ppub) so each verification costs a single pairing — the
/// "two pairings with precomputation" budget §V.B.3 assigns to the P-device
/// (one here plus one IBE decryption).
class IbsVerifier {
 public:
  IbsVerifier(const PublicParams& pub, std::string_view id);

  [[nodiscard]] bool verify(BytesView message, const IbsSignature& sig) const;

  [[nodiscard]] const curve::CurveCtx& ctx() const noexcept { return *ctx_; }
  /// H1(ID), for callers that derive other keys against the same identity.
  [[nodiscard]] const curve::Point& q_id() const noexcept { return q_id_; }
  /// ê(H1(ID), Ppub), for the cross-request coalescer (core/coalesce.h).
  [[nodiscard]] const curve::Gt& g_id() const noexcept { return g_id_; }

 private:
  const curve::CurveCtx* ctx_;
  std::string id_;
  curve::Point q_id_;
  curve::Gt g_id_;  // ê(H1(ID), Ppub)
};

/// One signature to check in a batch.
struct IbsBatchItem {
  std::string id;
  Bytes message;
  IbsSignature sig;
};

/// Batch verification: result[i] == ibs_verify(pub, items[i]...). Hess IBS
/// cannot be merged into one product check (each u' feeds its own H3), so
/// the batch wins come from structure instead: identities appearing more
/// than once get ê(H1(ID), Ppub) computed exactly once (IbsVerifier-style),
/// singletons fold their two pairings into one pairing_product (shared
/// squaring chain, one final exponentiation), and the per-item checks spread
/// across the pool — every input is const, so no locks.
std::vector<uint8_t> ibs_verify_batch(const PublicParams& pub,
                                      std::span<const IbsBatchItem> items,
                                      par::ThreadPool* pool = nullptr);

}  // namespace hcpp::ibc
