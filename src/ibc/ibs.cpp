#include "src/ibc/ibs.h"

#include <unordered_map>

#include "src/common/serialize.h"
#include "src/par/pool.h"

namespace hcpp::ibc {

mp::U512 ibs_challenge(const curve::CurveCtx& ctx, BytesView message,
                       const curve::Gt& u) {
  Bytes input = u.to_bytes();
  append(input, message);
  return curve::hash_to_scalar(ctx, input, "hcpp-ibs-h3");
}

namespace {
mp::U512 challenge(const curve::CurveCtx& ctx, BytesView message,
                   const curve::Gt& u) {
  return ibs_challenge(ctx, message, u);
}
}  // namespace

IbsSignature ibs_sign(const curve::CurveCtx& ctx,
                      const curve::Point& private_key, std::string_view id,
                      BytesView message, RandomSource& rng) {
  curve::Point q_id = Domain::public_key(ctx, id);
  mp::U512 k = curve::random_scalar(ctx, rng);
  // ê(H1(ID), P): the generator's cached Miller lines apply by symmetry.
  curve::Gt u = curve::generator_precomp(ctx).pairing_with(q_id).pow(k);
  IbsSignature sig;
  sig.v = challenge(ctx, message, u);
  // W = v·Γ + k·H1(ID)
  sig.w = curve::add(ctx, curve::mul(ctx, private_key, sig.v),
                     curve::mul(ctx, q_id, k));
  return sig;
}

bool ibs_verify(const PublicParams& pub, std::string_view id,
                BytesView message, const IbsSignature& sig) {
  const curve::CurveCtx& ctx = *pub.ctx;
  if (sig.w.infinity || sig.v.is_zero() || !(sig.v < ctx.q)) return false;
  curve::Point q_id = Domain::public_key(ctx, id);
  // u' = ê(W, P) · ê(H1(ID), Ppub)^{-v}
  curve::Gt e1 = curve::generator_precomp(ctx).pairing_with(sig.w);
  mp::U512 neg_v = mp::sub_mod(mp::U512{}, sig.v, ctx.q);
  curve::Gt e2 = curve::pairing(ctx, q_id, pub.p_pub).pow(neg_v);
  curve::Gt u = e1 * e2;
  return challenge(ctx, message, u) == sig.v;
}

IbsSigner::IbsSigner(const curve::CurveCtx& ctx,
                     const curve::Point& private_key, std::string_view id)
    : ctx_(&ctx),
      private_key_(private_key),
      q_id_(Domain::public_key(ctx, id)),
      g_id_(curve::generator_precomp(ctx).pairing_with(q_id_)) {}

IbsSignature IbsSigner::sign(BytesView message, RandomSource& rng) const {
  // Same draws and arithmetic as ibs_sign, with u = ê(H1(ID), P)^k taken
  // from the cached base.
  mp::U512 k = curve::random_scalar(*ctx_, rng);
  IbsSignature sig;
  sig.v = challenge(*ctx_, message, g_id_.pow(k));
  sig.w = curve::add(*ctx_, curve::mul(*ctx_, private_key_, sig.v),
                     curve::mul(*ctx_, q_id_, k));
  return sig;
}

IbsVerifier::IbsVerifier(const PublicParams& pub, std::string_view id)
    : ctx_(pub.ctx),
      id_(id),
      q_id_(Domain::public_key(*pub.ctx, id)),
      g_id_(curve::pairing(*pub.ctx, q_id_, pub.p_pub)) {}

bool IbsVerifier::verify(BytesView message, const IbsSignature& sig) const {
  if (sig.w.infinity || sig.v.is_zero() || !(sig.v < ctx_->q)) return false;
  curve::Gt e1 = curve::generator_precomp(*ctx_).pairing_with(sig.w);
  mp::U512 neg_v = mp::sub_mod(mp::U512{}, sig.v, ctx_->q);
  curve::Gt u = e1 * g_id_.pow(neg_v);
  return challenge(*ctx_, message, u) == sig.v;
}

std::vector<uint8_t> ibs_verify_batch(const PublicParams& pub,
                                      std::span<const IbsBatchItem> items,
                                      par::ThreadPool* pool) {
  const curve::CurveCtx& ctx = *pub.ctx;
  std::vector<uint8_t> out(items.size(), 0);
  if (items.empty()) return out;

  // Per-identity precomputation, shared read-only by every worker. q_id is
  // always worth caching (hash-to-point); g_id = ê(H1(ID), Ppub) only pays
  // for itself when the identity repeats — singletons fold that pairing into
  // their product check below instead.
  struct IdCtx {
    curve::Point q_id;
    size_t uses = 0;
    std::optional<curve::Gt> g_id;
  };
  std::unordered_map<std::string_view, IdCtx> ids;
  for (const IbsBatchItem& it : items) ++ids[it.id].uses;
  for (auto& [id, ic] : ids) {
    ic.q_id = Domain::public_key(ctx, id);
    if (ic.uses >= 2) ic.g_id = curve::pairing(ctx, ic.q_id, pub.p_pub);
  }

  auto verify_one = [&](size_t i) {
    const IbsBatchItem& it = items[i];
    const IbsSignature& sig = it.sig;
    if (sig.w.infinity || sig.v.is_zero() || !(sig.v < ctx.q)) return;
    const IdCtx& ic = ids.find(std::string_view(it.id))->second;
    mp::U512 neg_v = mp::sub_mod(mp::U512{}, sig.v, ctx.q);
    curve::Gt u;
    if (ic.g_id.has_value()) {
      // Repeated identity: fixed-argument ê(W, P) plus the cached base.
      u = curve::generator_precomp(ctx).pairing_with(sig.w) *
          ic.g_id->pow(neg_v);
    } else {
      // Singleton: ê(W, P) · ê(−v·H1(ID), Ppub) as one multi-pairing —
      // shared squaring chain, one final exponentiation.
      curve::PairingTerm terms[2] = {
          {sig.w, curve::generator(ctx)},
          {curve::mul(ctx, ic.q_id, neg_v), pub.p_pub},
      };
      u = curve::pairing_product(ctx, terms);
    }
    out[i] = challenge(ctx, it.message, u) == sig.v ? 1 : 0;
  };

  if (pool == nullptr || items.size() <= 1) {
    for (size_t i = 0; i < items.size(); ++i) verify_one(i);
  } else {
    pool->parallel_for(items.size(), verify_one);
  }
  return out;
}

Bytes IbsSignature::to_bytes() const {
  io::Writer wr;
  wr.raw(v.to_bytes_be());
  wr.bytes(curve::point_to_bytes(w));
  return wr.take();
}

IbsSignature IbsSignature::from_bytes(const curve::CurveCtx& ctx,
                                      BytesView b) {
  io::Reader r(b);
  IbsSignature sig;
  sig.v = mp::U512::from_bytes_be(r.raw(64));
  sig.w = curve::point_from_bytes(ctx, r.bytes());
  return sig;
}

size_t IbsSignature::size() const {
  // Mirrors to_bytes(): the raw 64-byte v, then the u32-length-prefixed
  // point encoding.
  return 64 + 4 + curve::point_encoded_size(w);
}

}  // namespace hcpp::ibc
