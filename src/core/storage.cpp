// §IV.B private PHI storage: one authenticated upload of (TPp, SI, Λ) plus
// the privilege material (d, BE_U(d)) the ASSIGN/REVOKE extension needs.
// Uploads ride the retrying transport: lost or duplicated messages are
// retried / suppressed transparently, and the caller sees a typed Result.
// One request builder serves the single-server, group (SServerGroup::write)
// and onion variants.
#include "src/core/call.h"
#include "src/core/cluster.h"
#include "src/core/entities.h"
#include "src/obs/trace.h"
#include "src/sim/onion.h"

namespace hcpp::core {

namespace {
constexpr const char* kLabel = "phi-storage";
}  // namespace

StoreRequest Patient::build_store_request() {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  // Home-PC side: secure index (over keyword aliases, §VI.B), logical
  // keyword index, encrypted collection. `aliased` carries the search
  // keywords; `files_` is what gets encrypted and returned to searchers.
  ki_ = KeywordIndex::build(files_, sserver_id_);
  std::vector<sse::PlainFile> aliased =
      apply_keyword_aliases(files_, alias_count_);
  StoreRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  req.index = sse::build_index(aliased, keys_, rng_).to_bytes();
  req.files = sse::encrypt_collection(files_, keys_, rng_).to_bytes();
  req.d = keys_.d;
  req.be_blob = be_group_->encrypt(keys_.d, rng_);
  stamp(req, shared_key_nu(), kLabel, net_->clock().now());
  return req;
}

Result<void> Patient::try_store_phi(SServer& server) {
  obs::Span span("protocol:store");
  StoreRequest req = build_store_request();
  return restart_update_chains(Caller{*net_, name_}.call(
      server, &SServer::handle_store, req, kLabel, "PHI upload"));
}

bool Patient::store_phi(SServer& server) {
  return try_store_phi(server).ok();
}

Result<size_t> Patient::store_phi(SServerGroup& group) {
  obs::Span span("protocol:store");
  // One prepared upload, the same MAC to every replica: each replica keeps
  // its own replay cache, and the transport keys idempotency by (receiver,
  // MAC), so the fan-out is safe.
  StoreRequest req = build_store_request();
  return restart_update_chains(group.write(req.tp, [&](SServer& s) {
    return Caller{*net_, name_}.call(s, &SServer::handle_store, req, kLabel,
                                     "PHI upload");
  }));
}

bool Patient::store_phi_anonymous(SServer& server, sim::OnionNetwork& onion) {
  StoreRequest req = build_store_request();
  Bytes reply = onion.round_trip(
      name_, sserver_id_, req.to_wire(),
      [&server](BytesView wire) -> Bytes {
        try {
          bool ok = server.handle_store(StoreRequest::from_wire(wire));
          return Bytes{static_cast<uint8_t>(ok ? 1 : 0)};
        } catch (const std::exception&) {
          return Bytes{0};
        }
      },
      rng_);
  bool ok = reply.size() == 1 && reply[0] == 1;
  if (ok) restart_update_chains(Result<void>{});
  return ok;
}

bool SServer::handle_store(const StoreRequest& req) {
  obs::Span span("sserver:store");
  std::optional<Authenticated> auth = authenticate(req, kLabel);
  if (!auth.has_value()) return false;
  Account acct;
  try {
    acct.index = std::make_shared<const sse::SecureIndex>(
        sse::SecureIndex::from_bytes(req.index));
    acct.files = sse::EncryptedCollection::from_bytes(req.files);
  } catch (const std::exception&) {
    return false;
  }
  acct.d = req.d;
  acct.be_blob = req.be_blob;
  acct.nu = std::move(auth->nu);  // ν outlives a re-upload of the account
  std::string key = account_key(req.tp, req.collection);
  // A re-upload supersedes the old account's file/log sub-records; erase
  // them by the old in-memory image (no store-wide scan).
  if (auth->acct != nullptr) store_erase_all(key, *auth->acct);
  Account& stored = accounts_[key] = std::move(acct);
  store_put_all(key, stored);
  compact_store_if_sparse();
  return true;
}

}  // namespace hcpp::core
