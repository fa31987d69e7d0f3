// §IV.C ASSIGN (local, sealed under the pre-shared μ) and REVOKE (one
// authenticated message re-keying d and replacing BE_U(d) at the S-server).
// REVOKE rides the retrying transport; against a replicated hospital one
// re-keying is fanned out to every replica so no office keeps honoring the
// revoked member's trapdoors.
#include "src/core/privilege.h"

#include "src/cipher/aead.h"
#include "src/common/serialize.h"
#include "src/core/call.h"
#include "src/core/cluster.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {
constexpr const char* kAssignLabel = "privilege-assign";
constexpr const char* kRevokeLabel = "privilege-revoke";
}  // namespace

bool assign_privilege(Patient& patient, Family& family, BytesView mu) {
  Bytes sealed = patient.make_sealed_bundle(kFamilySlot, mu,
                                            /*include_gamma=*/false);
  // Local patient-LAN link; charged so E3 reports the full ASSIGN cost.
  patient.net().transmit(patient.name(), family.name(), sealed.size(),
                         kAssignLabel);
  return family.receive_bundle(sealed, mu);
}

bool assign_privilege(Patient& patient, PDevice& device, BytesView mu) {
  Bytes sealed = patient.make_sealed_bundle(kPDeviceSlot, mu,
                                            /*include_gamma=*/true);
  patient.net().transmit(patient.name(), device.id(), sealed.size(),
                         kAssignLabel);
  return device.receive_bundle(sealed, mu);
}

RevokeRequest Patient::build_revoke_request(size_t slot) {
  if (be_group_ == nullptr) throw std::logic_error("Patient: setup() first");
  be_group_->revoke(slot);
  Bytes d_new = rng_.bytes(32);
  Bytes be_new = be_group_->encrypt(d_new, rng_);
  keys_.d = d_new;

  io::Writer inner;
  inner.bytes(d_new);
  inner.bytes(be_new);
  Bytes nu = shared_key_nu();
  RevokeRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  req.sealed = cipher::aead_encrypt(nu, inner.data(), {}, rng_);
  stamp(req, nu, kRevokeLabel, net_->clock().now());
  return req;
}

Result<void> Patient::try_revoke_member(SServer& server, size_t slot) {
  obs::Span span("protocol:revoke");
  RevokeRequest req = build_revoke_request(slot);
  return Caller{*net_, name_}.call(server, &SServer::handle_revoke, req,
                                   kRevokeLabel, "revocation");
}

bool Patient::revoke_member(SServer& server, size_t slot) {
  return try_revoke_member(server, slot).ok();
}

Result<size_t> Patient::revoke_member(SServerGroup& group, size_t slot) {
  obs::Span span("protocol:revoke");
  // Re-key once; every replica gets the same sealed update. Replicas a
  // retry couldn't reach stay on the old d until the next sync_replicas().
  RevokeRequest req = build_revoke_request(slot);
  return group.write(req.tp, [&](SServer& s) {
    return Caller{*net_, name_}.call(s, &SServer::handle_revoke, req,
                                     kRevokeLabel, "revocation");
  });
}

bool SServer::handle_revoke(const RevokeRequest& req) {
  obs::Span span("sserver:revoke");
  std::optional<Authenticated> auth = authenticate(req, kRevokeLabel);
  if (!auth.has_value() || auth->acct == nullptr) return false;
  Account* acct = auth->acct;
  try {
    Bytes inner = cipher::aead_decrypt(auth->nu, req.sealed, {});
    io::Reader r(inner);
    acct->d = r.bytes();
    acct->be_blob = r.bytes();
  } catch (const std::exception&) {
    return false;
  }
  // REVOKE touches only d / BE_U(d) — one base-record rewrite, no file or
  // log records.
  store_put_base(account_key(req.tp, req.collection), *acct);
  compact_store_if_sparse();
  return true;
}

}  // namespace hcpp::core
