// §IV.E.2 MHI storage and retrieval: the P-device pre-computes
// IBE_IDr(MHI) ‖ PEKS_σ(IDr, kw) offline and uploads it; during an
// emergency, the authenticated on-duty physician obtains Γr from the
// A-server, computes TDr(kw), and the S-server returns the matching
// role-encrypted windows. All exchanges ride the retrying transport.
#include "src/cipher/aead.h"
#include "src/core/call.h"
#include "src/core/entities.h"
#include "src/obs/trace.h"

namespace hcpp::core {

namespace {
constexpr const char* kStoreLabel = "mhi-storage";
constexpr const char* kRetrieveLabel = "mhi-retrieval";
constexpr const char* kRoleKeyLabel = "mhi-role-key";
constexpr const char* kRegisterLabel = "mhi-register";
constexpr const char* kHitsLabel = "mhi-hits";

/// Uploads one encrypted, PEKS-tagged window. Like PHI storage it is one
/// message: the ack is not charged.
Result<void> send_window(Caller& caller, SServer& server,
                         const PrivilegeBundle& pb, const std::string& role_id,
                         std::vector<Bytes> peks_tags, Bytes ibe_blob) {
  MhiStoreRequest req;
  req.tp = pb.tp;
  req.role_id = role_id;
  req.peks_tags = std::move(peks_tags);
  req.ibe_blob = std::move(ibe_blob);
  stamp(req, pb.nu, kStoreLabel, caller.net.clock().now());
  return caller.call(server, &SServer::handle_mhi_store, req, kStoreLabel,
                     "MHI window");
}

/// Authenticates a ρ-keyed MHI response and decrypts its role-encrypted
/// windows with Γr. One precomputation of Γr's Miller lines amortizes across
/// the batch: each blob's pairing ê(Γr, U) is line evaluations only.
/// Undecryptable entries are skipped.
template <typename Resp>
Result<std::vector<MhiWindow>> open_windows(const curve::CurveCtx& ctx,
                                            const curve::Point& role_key,
                                            BytesView rho, const char* label,
                                            const Resp& resp,
                                            uint32_t attempts) {
  if (!mac_ok(resp, rho, label)) {
    return permanent_error(ErrorCode::kBadResponse, attempts,
                           "MHI response failed authentication");
  }
  std::vector<MhiWindow> windows;
  ibc::IbeDecryptor decryptor(ctx, role_key);
  for (const Bytes& blob : resp.ibe_blobs) {
    try {
      ibc::IbeCiphertext ct = ibc::IbeCiphertext::from_bytes(ctx, blob);
      windows.push_back(MhiWindow::from_bytes(decryptor.decrypt(ct)));
    } catch (const std::exception&) {
      // skip undecryptable entries
    }
  }
  return windows;
}
}  // namespace

Result<void> PDevice::try_store_mhi(
    const AServer& authority, SServer& server, const std::string& role_id,
    std::span<const std::string> extra_keywords) {
  if (!bundle_.has_value()) {
    return permanent_error(ErrorCode::kPrecondition, 0,
                           "P-device holds no privilege bundle");
  }
  obs::Span span("protocol:mhi_store");
  // Every window is attempted even after a failure — partial MHI coverage
  // beats none in an emergency. The worst outcome (a refusal over a
  // timeout) is returned, with the attempts of every window.
  Caller caller{*net_, id_};
  std::optional<ProtocolError> worst;
  for (const MhiWindow& win : mhi_) {
    Bytes ibe_blob =
        ibc::ibe_encrypt(authority.pub(), role_id, win.to_bytes(), rng_)
            .to_bytes();
    std::vector<std::string> kws;
    kws.push_back("day:" + win.day);
    for (const std::string& kw : extra_keywords) kws.push_back(kw);
    std::vector<Bytes> tags;
    for (const std::string& kw : kws) {
      tags.push_back(
          peks::peks_encrypt(authority.pub(), role_id, kw, rng_).to_bytes());
    }
    Result<void> r = send_window(caller, server, *bundle_, role_id,
                                 std::move(tags), std::move(ibe_blob));
    if (!r.ok() && (!worst.has_value() || worst->transient())) {
      worst = r.error();
    }
  }
  if (!worst.has_value()) return {};
  worst->attempts = caller.attempts;
  return *worst;
}

bool PDevice::store_mhi(const AServer& authority, SServer& server,
                        const std::string& role_id,
                        std::span<const std::string> extra_keywords) {
  return try_store_mhi(authority, server, role_id, extra_keywords).ok();
}

Bytes SServer::rho_for(const std::string& role_id) const {
  return nu_deriver_.with_point(ibc::Domain::public_key(*ctx_, role_id));
}

Bytes SServer::role_key(const std::string& role_id) {
  // Standing registrations are the role's hot state (expire_role drops the
  // key with them); a role without any keeps ρ with its stored windows.
  Bytes* slot = mhi_hub_.role_key_slot(role_id);
  if (slot == nullptr) {
    auto bucket = mhi_store_.find(role_id);
    if (bucket == mhi_store_.end()) return rho_for(role_id);
    slot = &bucket->second.rho;
  }
  if (slot->empty()) *slot = rho_for(role_id);
  return *slot;
}

size_t SServer::role_key_count() const noexcept {
  size_t n = mhi_hub_.role_keys_held();
  for (const auto& [role_id, bucket] : mhi_store_) {
    if (!bucket.rho.empty()) ++n;
  }
  return n;
}

bool SServer::handle_mhi_store(const MhiStoreRequest& req) {
  obs::Span span("sserver:mhi_store");
  if (!authenticate(req, kStoreLabel)) return false;
  MhiEntry entry;
  try {
    for (const Bytes& tag : req.peks_tags) {
      entry.tags.push_back(peks::PeksCiphertext::from_bytes(*ctx_, tag));
    }
  } catch (const std::exception&) {
    return false;
  }
  entry.ibe_blob = req.ibe_blob;
  // Feed the streaming hub before shelving: standing registrations for this
  // role see the window the moment it lands (DESIGN.md §13).
  mhi_hub_.ingest(req.role_id, entry.tags, entry.ibe_blob, mhi_pool_);
  mhi_store_[req.role_id].entries.push_back(std::move(entry));
  return true;
}

Result<curve::Point> Physician::try_request_role_key(
    AServer& authority, const std::string& role_id) {
  RoleKeyRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  req.t = net_->clock().now();
  req.sig = signer().sign(req.body(), rng_).to_bytes();
  Result<curve::Point> key =
      Caller{*net_, id_}.call(authority, &AServer::handle_role_key_request,
                              req, kRoleKeyLabel, "role-key request");
  if (key.ok()) roles_.insert_or_assign(role_id, RoleLink{key.value(), {}});
  return key;
}

Bytes Physician::role_rho(const SServer& server, const std::string& role_id,
                          const curve::Point& role_key) {
  auto it = roles_.find(role_id);
  if (it == roles_.end() || !(it->second.key == role_key)) {
    return ibc::shared_key_with_id(*ctx_, role_key, server.service_id());
  }
  auto [rho, fresh] = it->second.rho.try_emplace(server.service_id());
  if (fresh) {
    rho->second = ibc::shared_key_with_id(*ctx_, role_key, server.service_id());
  }
  return rho->second;
}

std::optional<curve::Point> Physician::request_role_key(
    AServer& authority, const std::string& role_id) {
  Result<curve::Point> r = try_request_role_key(authority, role_id);
  if (!r.ok()) return std::nullopt;
  return r.value();
}

std::optional<curve::Point> AServer::handle_role_key_request(
    const RoleKeyRequest& req) {
  if (!authenticate(req)) return std::nullopt;
  if (!is_on_duty(req.physician_id)) return std::nullopt;
  return domain_.extract(req.role_id);
}

Result<std::vector<MhiWindow>> Physician::try_retrieve_mhi(
    SServer& server, const std::string& role_id, const curve::Point& role_key,
    std::string_view keyword) {
  obs::Span span("protocol:mhi_retrieve");
  // ρ = ê(Γr, PK_S) = ê(PK_r, Γ_S) — the role-based pairwise key, derived
  // against the *service* identity so any group replica can answer.
  Bytes rho = role_rho(server, role_id, role_key);
  MhiRetrieveRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  req.trapdoor = peks::peks_trapdoor(*ctx_, role_key, keyword).to_bytes();
  stamp(req, rho, kRetrieveLabel, net_->clock().now());
  Caller caller{*net_, id_};
  Result<MhiRetrieveResponse> resp =
      caller.call(server, &SServer::handle_mhi_retrieve, req, kRetrieveLabel,
                  "MHI retrieval");
  if (!resp.ok()) return resp.error();
  return open_windows(*ctx_, role_key, rho, kRetrieveLabel, resp.value(),
                      caller.attempts);
}

std::vector<MhiWindow> Physician::retrieve_mhi(SServer& server,
                                               const std::string& role_id,
                                               const curve::Point& role_key,
                                               std::string_view keyword) {
  return try_retrieve_mhi(server, role_id, role_key, keyword).value_or({});
}

std::optional<MhiRetrieveResponse> SServer::handle_mhi_retrieve(
    const MhiRetrieveRequest& req) {
  obs::Span span("sserver:mhi_retrieve");
  Bytes rho = role_key(req.role_id);
  if (!admit(req, rho, kRetrieveLabel)) return std::nullopt;
  peks::Trapdoor td;
  try {
    td = peks::Trapdoor::from_bytes(*ctx_, req.trapdoor);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  MhiRetrieveResponse resp;
  // Only this role's bucket is scanned, and the whole bucket is tested as
  // one batch: the trapdoor's Miller lines are cached once, each tag costs a
  // precomputed Miller loop, and one pool-sharded final_exp_batch finishes
  // every (entry, tag) pair.
  auto bucket = mhi_store_.find(req.role_id);
  if (bucket != mhi_store_.end() && !bucket->second.entries.empty()) {
    const std::vector<MhiEntry>& entries = bucket->second.entries;
    std::vector<peks::PeksCiphertext> flat;
    for (const MhiEntry& entry : entries) {
      flat.insert(flat.end(), entry.tags.begin(), entry.tags.end());
    }
    peks::TrapdoorPrecomp pre(*ctx_, td);
    std::vector<uint8_t> match = pre.test_batch(flat, mhi_pool_);
    size_t k = 0;
    for (const MhiEntry& entry : entries) {
      bool hit = false;
      for (size_t i = 0; i < entry.tags.size(); ++i, ++k) {
        if (match[k]) hit = true;
      }
      if (hit) resp.ibe_blobs.push_back(entry.ibe_blob);
    }
  }
  stamp(resp, rho, kRetrieveLabel, net_->clock().now());
  return resp;
}

// ---- Streaming MHI (DESIGN.md §13) -----------------------------------------

Result<void> PDevice::try_stream_mhi(
    const AServer& authority, SServer& server, const std::string& role_id,
    const MhiWindow& window, std::span<const std::string> extra_keywords) {
  if (!bundle_.has_value()) {
    return permanent_error(ErrorCode::kPrecondition, 0,
                           "P-device holds no privilege bundle");
  }
  obs::Span span("protocol:mhi_stream");
  if (!mhi_ingestor_) {
    mhi_ingestor_.emplace(authority.pub(), role_id);
  } else if (mhi_ingestor_->role_id() != role_id) {
    mhi_ingestor_->roll_epoch(role_id);
  }
  MhiIngestor::EncodedWindow enc =
      mhi_ingestor_->encode(window, extra_keywords, rng_);
  Caller caller{*net_, id_};
  return send_window(caller, server, *bundle_, role_id,
                     std::move(enc.peks_tags), std::move(enc.ibe_blob));
}

bool PDevice::stream_mhi(const AServer& authority, SServer& server,
                         const std::string& role_id, const MhiWindow& window,
                         std::span<const std::string> extra_keywords) {
  return try_stream_mhi(authority, server, role_id, window, extra_keywords)
      .ok();
}

bool SServer::handle_mhi_register(const MhiRegisterRequest& req) {
  obs::Span span("sserver:mhi_register");
  Bytes rho = role_key(req.role_id);
  if (!admit(req, rho, kRegisterLabel)) return false;
  peks::Trapdoor td;
  try {
    td = peks::Trapdoor::from_bytes(*ctx_, req.trapdoor);
  } catch (const std::exception&) {
    return false;
  }
  mhi_hub_.register_trapdoor(req.physician_id, req.role_id, td);
  // The role now has hub state to keep the ρ this request proved with.
  Bytes* slot = mhi_hub_.role_key_slot(req.role_id);
  if (slot->empty()) *slot = std::move(rho);
  return true;
}

std::optional<MhiHitsResponse> SServer::handle_mhi_hits(
    const MhiHitsRequest& req) {
  obs::Span span("sserver:mhi_hits");
  Bytes rho = role_key(req.role_id);
  if (!admit(req, rho, kHitsLabel)) return std::nullopt;
  MhiHitsResponse resp;
  for (MhiHit& hit : mhi_hub_.drain_hits(req.physician_id, req.role_id)) {
    resp.ibe_blobs.push_back(std::move(hit.ibe_blob));
  }
  stamp(resp, rho, kHitsLabel, net_->clock().now());
  return resp;
}

Result<void> Physician::try_register_mhi(SServer& server,
                                         const std::string& role_id,
                                         const curve::Point& role_key,
                                         std::string_view keyword) {
  obs::Span span("protocol:mhi_register");
  Bytes rho = role_rho(server, role_id, role_key);
  MhiRegisterRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  req.trapdoor = peks::peks_trapdoor(*ctx_, role_key, keyword).to_bytes();
  stamp(req, rho, kRegisterLabel, net_->clock().now());
  return Caller{*net_, id_}.call(server, &SServer::handle_mhi_register, req,
                                 kRegisterLabel, "MHI registration");
}

bool Physician::register_mhi(SServer& server, const std::string& role_id,
                             const curve::Point& role_key,
                             std::string_view keyword) {
  return try_register_mhi(server, role_id, role_key, keyword).ok();
}

Result<std::vector<MhiWindow>> Physician::try_fetch_mhi_hits(
    SServer& server, const std::string& role_id,
    const curve::Point& role_key) {
  obs::Span span("protocol:mhi_hits");
  Bytes rho = role_rho(server, role_id, role_key);
  MhiHitsRequest req;
  req.physician_id = id_;
  req.role_id = role_id;
  stamp(req, rho, kHitsLabel, net_->clock().now());
  Caller caller{*net_, id_};
  Result<MhiHitsResponse> resp = caller.call(
      server, &SServer::handle_mhi_hits, req, kHitsLabel, "MHI hit drain");
  if (!resp.ok()) return resp.error();
  return open_windows(*ctx_, role_key, rho, kHitsLabel, resp.value(),
                      caller.attempts);
}

std::vector<MhiWindow> Physician::fetch_mhi_hits(SServer& server,
                                                 const std::string& role_id,
                                                 const curve::Point& role_key) {
  return try_fetch_mhi_hits(server, role_id, role_key).value_or({});
}

}  // namespace hcpp::core
