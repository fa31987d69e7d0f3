// §IV.E emergency health-information retrieval.
//
// Family-based approach (§IV.E.1), 4 messages:
//   1. family → S-server : TPp, m (BE-blob request), t6, HMAC_ν
//   2. S-server → family : BE_{U'}(d), t7, HMAC_ν
//   3. family → S-server : TPp, TD_U(kw) = θ_d(TD(kw)), t8, HMAC_ν
//   4. S-server → family : Λ(kw), t9, HMAC_ν
//
// P-device approach (§IV.E.2): the physician authenticates to the A-server
// with IBS as the on-duty emergency caregiver; the A-server returns the
// one-time passcode under E'_ϖ and simultaneously pushes it to the P-device
// under IBE_TPp; the physician types (ID, nonce) into the device, which then
// runs the same privileged retrieval and logs an RD record.
//
// All exchanges ride the retrying transport: an ambulance on a lossy link
// retries with backoff instead of failing the rescue, and replicated
// deployments (SServerGroup / AServerCluster) fail over to the next office
// when one times out.
#include <algorithm>

#include "src/cipher/aead.h"
#include "src/core/accountability.h"
#include "src/core/call.h"
#include "src/core/cluster.h"
#include "src/core/coalesce.h"
#include "src/core/entities.h"
#include "src/obs/trace.h"
#include "src/par/pool.h"

namespace hcpp::core {

namespace {

constexpr const char* kBeLabel = "emergency-be-request";
constexpr const char* kPrivLabel = kPrivilegedRetrieveLabel;
constexpr const char* kAuthLabel = "emergency-auth";

/// Messages 1–4 of the family-based approach against one server, shared by
/// Family and PDevice. Two transport-routed rounds; under no faults this is
/// exactly the paper's four messages.
Result<std::vector<sse::PlainFile>> privileged_retrieve(
    sim::Network& net, const std::string& actor, SServer& server,
    const PrivilegeBundle& pb, std::span<const std::string> keywords) {
  obs::Span span("protocol:privileged_retrieve");
  Caller caller{net, actor};
  // Round 1 (messages 1–2): fetch the current broadcast-encrypted d.
  BeBlobRequest req1;
  req1.tp = pb.tp;
  req1.collection = pb.collection;
  stamp(req1, pb.nu, kBeLabel, net.clock().now());
  Result<BeBlobResponse> resp1 = caller.call(
      server, &SServer::handle_be_request, req1, kBeLabel, "BE-blob request");
  if (!resp1.ok()) return resp1.error();
  if (!mac_ok(resp1.value(), pb.nu, kBeLabel)) {
    return permanent_error(ErrorCode::kBadResponse, caller.attempts,
                           "BE-blob response failed authentication");
  }
  std::optional<Bytes> d = be::decrypt(pb.member_keys, resp1.value().be_blob);
  if (!d.has_value()) {
    // Not in the current broadcast cover: this member was revoked. No retry
    // or failover can help — every replica will serve the same BE_{U'}(d).
    return permanent_error(ErrorCode::kRevoked, caller.attempts,
                           "member keys outside the current BE cover");
  }

  // Round 2 (messages 3–4): θ_d-wrapped trapdoors. The privileged entity has
  // no rotation state, so it derives the alias slot from the timestamp —
  // successive emergencies still spread across aliases (§VI.B).
  PrivilegedRetrieveRequest req2;
  req2.tp = pb.tp;
  req2.collection = pb.collection;
  size_t alias_slot = static_cast<size_t>(net.clock().now() / 1000) %
                      std::max<uint32_t>(1, pb.alias_count);
  sse::TrapdoorGen gen(pb.keys);  // one key schedule for the keyword batch
  std::optional<sse::Updater> up;  // for keywords updated before the ASSIGN
  for (const std::string& kw : keywords) {
    std::string alias = keyword_alias(kw, alias_slot);
    auto cit = pb.update_state.counters.find(alias);
    if (cit != pb.update_state.counters.end() && cit->second > 0) {
      // The bundle's chain position covers updates up to the ASSIGN; later
      // ones are underivable (forward privacy working as specified).
      if (!up.has_value()) up.emplace(pb.keys, pb.update_state);
      req2.wrapped_trapdoors.push_back(
          sse::wrap_dyn_trapdoor(*d, up->trapdoor(alias)));
    } else {
      req2.wrapped_trapdoors.push_back(
          sse::wrap_trapdoor(*d, gen.make(alias)));
    }
  }
  stamp(req2, pb.nu, kPrivLabel, net.clock().now());
  Result<RetrieveResponse> resp2 =
      caller.call(server, &SServer::handle_privileged_retrieve, req2,
                  kPrivLabel, "privileged retrieval");
  if (!resp2.ok()) return resp2.error();
  if (!mac_ok(resp2.value(), pb.nu, kPrivLabel)) {
    return permanent_error(ErrorCode::kBadResponse, caller.attempts,
                           "privileged response failed authentication");
  }
  return decrypt_files(pb.keys, resp2.value());
}

ProtocolError no_bundle() {
  return permanent_error(ErrorCode::kPrecondition, 0,
                         "family member holds no privilege bundle");
}

}  // namespace

// ---- S-server handlers -------------------------------------------------------

std::optional<BeBlobResponse> SServer::handle_be_request(
    const BeBlobRequest& req) {
  obs::Span span("sserver:be_request");
  std::optional<Authenticated> auth = authenticate(req, kBeLabel);
  if (!auth.has_value() || auth->acct == nullptr) return std::nullopt;
  BeBlobResponse resp;
  resp.be_blob = auth->acct->be_blob;
  stamp(resp, auth->nu, kBeLabel, net_->clock().now());
  return resp;
}

std::optional<RetrieveResponse> SServer::handle_privileged_retrieve(
    const PrivilegedRetrieveRequest& req) {
  obs::Span span("sserver:privileged_retrieve");
  std::optional<Authenticated> auth = authenticate(req, kPrivLabel);
  if (!auth.has_value() || auth->acct == nullptr) return std::nullopt;
  const Account* acct = auth->acct;

  obs::Span lookup("sse:lookup");
  // Batch θ_d^{-1}: one Feistel key schedule per trapdoor width across the
  // whole request. The embedded validity tag rejects stale-d submissions
  // per trapdoor; dynamic (100-byte) widths also walk the update log.
  RetrieveResponse resp;
  for (sse::FileId id : sse::search_wrapped_mixed(
           *acct->index, acct->log, acct->d, req.wrapped_trapdoors)) {
    auto it = acct->files.files.find(id);
    if (it != acct->files.files.end()) resp.files.emplace_back(id, it->second);
  }
  stamp(resp, auth->nu, kPrivLabel, net_->clock().now());
  return resp;
}

// ---- Family ------------------------------------------------------------------

Result<std::vector<sse::PlainFile>> Family::try_emergency_retrieve(
    SServer& server, std::span<const std::string> keywords) {
  if (!bundle_.has_value()) return no_bundle();
  return privileged_retrieve(*net_, name_, server, *bundle_, keywords);
}

std::vector<sse::PlainFile> Family::emergency_retrieve(
    SServer& server, std::span<const std::string> keywords) {
  return try_emergency_retrieve(server, keywords).value_or({});
}

Result<std::vector<sse::PlainFile>> Family::emergency_retrieve(
    SServerGroup& group, std::span<const std::string> keywords) {
  if (!bundle_.has_value()) return no_bundle();
  return group.read(bundle_->tp, [&](SServer& s) {
    return privileged_retrieve(*net_, name_, s, *bundle_, keywords);
  });
}

// ---- A-server: emergency authentication (§IV.E.2 steps 1–3) -------------------

std::optional<AServer::EmergencyAuthOutcome> AServer::handle_emergency_auth(
    const EmergencyAuthRequest& req) {
  obs::Span span("aserver:emergency_auth");
  if (!authenticate(req)) return std::nullopt;
  const PhysicianLink* link = physician_link(req.physician_id);
  if (link == nullptr) return std::nullopt;  // not on duty
  const uint64_t t11 = net_->clock().now();
  std::optional<EmergencyAuthOutcome> out =
      issue_passcode(req, *link, passcode_issuer(), rng_, t11);
  if (out.has_value()) commit_trace(req, t11);
  return out;
}

std::vector<std::optional<AServer::EmergencyAuthOutcome>>
AServer::handle_emergency_auth_batch(std::span<const EmergencyAuthRequest> reqs,
                                     par::ThreadPool* pool) {
  obs::Span span("aserver:emergency_auth_batch");
  std::vector<std::optional<EmergencyAuthOutcome>> out(reqs.size());
  if (reqs.empty()) return out;

  // Signature decoding is serial and in arrival order. On-duty physicians'
  // links are built here too, before any pool work reads them.
  PairingCoalescer co(pub());
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> ticket(reqs.size(), kNone);
  std::vector<const PhysicianLink*> link(reqs.size(), nullptr);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const EmergencyAuthRequest& req = reqs[i];
    try {
      ibc::IbsSignature sig =
          ibc::IbsSignature::from_bytes(domain_.ctx(), req.sig);
      link[i] = physician_link(req.physician_id);
      ticket[i] = link[i] != nullptr
                      ? co.add_ibs_verify(link[i]->verifier, req.body(), sig)
                      : co.add_ibs_verify(req.physician_id, req.body(), sig);
    } catch (const std::exception&) {
    }
  }

  // Admit: one drain fuses and final-exponentiates every verification
  // pairing (coalesce.h). Only verified requests then reach the replay
  // cache, serially and in arrival order, so a duplicate inside the batch is
  // refused exactly as it would have been arriving one request later, and a
  // forged copy never burns the genuine request's tag.
  PairingCoalescer::Drained drained = co.drain(pool);
  std::vector<size_t> admitted;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (ticket[i] == kNone || !drained.ibs_ok[ticket[i]]) continue;
    if (!fresh(reqs[i])) continue;
    if (link[i] == nullptr) continue;  // not on duty
    admitted.push_back(i);
  }
  if (admitted.empty()) return out;

  // Issue on the pool, each admitted request from its own child stream
  // forked in arrival order: the bytes do not depend on the thread count.
  std::vector<cipher::Drbg> streams =
      cipher::fork_streams(rng_, admitted.size());
  const PasscodeIssuer& issuer = passcode_issuer();
  const uint64_t t11 = net_->clock().now();
  auto issue = [&](size_t k) {
    const size_t i = admitted[k];
    out[i] = issue_passcode(reqs[i], *link[i], issuer, streams[k], t11);
  };
  if (pool == nullptr) {
    for (size_t k = 0; k < admitted.size(); ++k) issue(k);
  } else {
    pool->parallel_for(admitted.size(), issue);
  }

  // Commit, serially in arrival order.
  for (size_t i : admitted) {
    if (out[i].has_value()) commit_trace(reqs[i], t11);
  }
  return out;
}

std::optional<AServer::EmergencyAuthOutcome> AServer::issue_passcode(
    const EmergencyAuthRequest& req, const PhysicianLink& link,
    const PasscodeIssuer& issuer, RandomSource& rng, uint64_t t11) const {
  curve::Point tp;
  try {
    tp = curve::point_from_bytes(domain_.ctx(), req.tp);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  // Small-subgroup guard: the passcode IBE keys to ê(TP, Ppub)^r.
  if (!curve::in_prime_subgroup(domain_.ctx(), tp)) return std::nullopt;

  Bytes nonce = rng.bytes(16);
  EmergencyAuthOutcome out;

  // Step 2: passcode to the physician under the pairwise key ϖ.
  out.to_physician.enc_nonce = cipher::aead_encrypt(link.varpi, nonce, {}, rng);
  out.to_physician.t = t11;
  out.to_physician.sig =
      issuer.signer.sign(out.to_physician.body(req.physician_id, req.tp), rng)
          .to_bytes();

  // Step 3: passcode to the P-device under IBE_TPp.
  io::Writer inner;
  inner.str(req.physician_id);
  inner.bytes(nonce);
  inner.u64(t11);
  out.to_pdevice.physician_id = req.physician_id;
  out.to_pdevice.ibe_blob =
      issuer.ibe.encrypt_to_point(tp, inner.data(), rng).to_bytes();
  out.to_pdevice.t = t11;
  out.to_pdevice.sig =
      issuer.signer.sign(out.to_pdevice.body(req.tp), rng).to_bytes();
  out.to_pdevice.audit_sig =
      issuer.signer.sign(rd_statement(req.physician_id, req.tp, t11), rng)
          .to_bytes();
  return out;
}

void AServer::commit_trace(const EmergencyAuthRequest& req, uint64_t t11) {
  // TR: the accountability trace (§IV.E.2) — the loose log the legacy audit
  // reads, plus the tamper-evident hash-chained mirror the ledger audit
  // verifies against the anchored checkpoints.
  traces_.push_back({req.physician_id, req.tp, req.t, t11, req.sig});
  trace_ledger_.append(event_from_trace(traces_.back()));
}

// ---- Physician -----------------------------------------------------------------

Result<Physician::PasscodeResult> Physician::try_request_passcode(
    AServer& authority, BytesView patient_tp) {
  obs::Span span("protocol:emergency_auth");
  EmergencyAuthRequest req;
  req.physician_id = id_;
  req.tp = Bytes(patient_tp.begin(), patient_tp.end());
  req.t = net_->clock().now();
  req.sig = signer().sign(req.body(), rng_).to_bytes();

  Caller caller{*net_, id_};
  Result<AServer::EmergencyAuthOutcome> out =
      caller.call(authority, &AServer::handle_emergency_auth, req, kAuthLabel,
                  "emergency authentication");
  if (!out.ok()) return out.error();
  AServer::EmergencyAuthOutcome& outcome = out.value();
  // Step 3 "takes place simultaneously": the A-server's push to the
  // P-device, charged as the protocol's third message.
  net_->transmit(authority.id(), "p-device", outcome.to_pdevice.wire_size(),
                 kAuthLabel);

  // Verify the answering office's signature before trusting the passcode.
  // The office is addressed by parameter (not by the enrolment-time
  // authority) so that any §VI.D replica can serve the request.
  try {
    ibc::IbsSignature sig = ibc::IbsSignature::from_bytes(
        *ctx_, outcome.to_physician.sig);
    const OfficeLink& office = office_link(authority);
    if (!office.verifier.verify(outcome.to_physician.body(id_, req.tp),
                                sig)) {
      return permanent_error(ErrorCode::kBadResponse, caller.attempts,
                             "office signature failed verification");
    }
    Bytes nonce = cipher::aead_decrypt(office.varpi,
                                       outcome.to_physician.enc_nonce, {});
    return PasscodeResult{std::move(nonce), std::move(outcome.to_pdevice)};
  } catch (const std::exception&) {
    return permanent_error(ErrorCode::kBadResponse, caller.attempts,
                           "passcode message failed to decrypt");
  }
}

std::optional<Physician::PasscodeResult> Physician::request_passcode(
    AServer& authority, BytesView patient_tp) {
  Result<PasscodeResult> r = try_request_passcode(authority, patient_tp);
  if (!r.ok()) return std::nullopt;
  return std::move(r.value());
}

Result<Physician::PasscodeResult> Physician::request_passcode(
    AServerCluster& cluster, BytesView patient_tp, size_t* serving_office) {
  // §VI.D automatic failover: dial the next local office when one times out.
  // Permanent refusals (not on duty, bad signature) are authoritative — every
  // office shares the registry, so trying another cannot change the answer.
  return fail_over(cluster.size(), obs::kAClusterFailover,
                   "every local A-server office timed out", [&](size_t i) {
                     Result<PasscodeResult> r =
                         try_request_passcode(cluster.replica(i), patient_tp);
                     if (r.ok() && serving_office != nullptr) {
                       *serving_office = i;
                     }
                     return r;
                   });
}

// ---- P-device ---------------------------------------------------------------

bool PDevice::deliver_passcode(const AServer& authority,
                               const PasscodeToPDevice& msg) {
  if (!emergency_mode_ || !bundle_.has_value() || bundle_->gamma.empty()) {
    return false;
  }
  const curve::CurveCtx& ctx = authority.ctx();
  try {
    ibc::IbsSignature sig =
        ibc::IbsSignature::from_bytes(ctx, msg.sig);
    if (!office_verifier(authority).verify(msg.body(bundle_->tp), sig)) {
      return false;
    }
    curve::Point gamma = curve::point_from_bytes(ctx, bundle_->gamma);
    ibc::IbeCiphertext ct =
        ibc::IbeCiphertext::from_bytes(ctx, msg.ibe_blob);
    Bytes inner = ibc::ibe_decrypt(ctx, gamma, ct);
    io::Reader r(inner);
    std::string physician_id = r.str();
    Bytes nonce = r.bytes();
    uint64_t t11 = r.u64();
    if (physician_id != msg.physician_id || t11 != msg.t) return false;
    pending_physician_ = physician_id;
    pending_nonce_ = nonce;
    session_t11_ = t11;
    session_aserver_sig_ = msg.audit_sig;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool PDevice::enter_passcode(const std::string& physician_id,
                             BytesView nonce) {
  if (!pending_nonce_.has_value() || !pending_physician_.has_value()) {
    return false;
  }
  bool ok = (physician_id == *pending_physician_) &&
            ct_equal(*pending_nonce_, nonce);
  // One attempt per delivered passcode, success or not.
  pending_nonce_.reset();
  pending_physician_.reset();
  if (ok) session_physician_ = physician_id;
  return ok;
}

template <typename Read>
Result<std::vector<sse::PlainFile>> PDevice::session_retrieve(
    std::span<const std::string> keywords, Read&& read) {
  if (!session_physician_.has_value() || !bundle_.has_value()) {
    return permanent_error(ErrorCode::kPrecondition, 0,
                           "no passcode session open on the P-device");
  }
  // §VI.A countermeasure: accessing the retrieval secrets alerts the
  // patient's phone.
  ++alerts_;
  // Only dictionary keywords are searchable (§IV.E.2: "if the keywords
  // result in a match in the dictionary").
  std::vector<std::string> valid;
  for (const std::string& kw : keywords) {
    if (bundle_->ki.contains(kw)) valid.push_back(kw);
  }
  Result<std::vector<sse::PlainFile>> result{std::vector<sse::PlainFile>{}};
  if (!valid.empty()) result = read(std::span<const std::string>(valid));
  // RD: record which physician searched what (§IV.E.2) — kept even when the
  // network failed the retrieval, because the secrets were touched. The
  // ledger append also queues the patient notification ("your data was just
  // accessed") behind rd_ledger().drain_notifications().
  rd_log_.push_back({*session_physician_, bundle_->tp, valid, session_t11_,
                     session_aserver_sig_});
  rd_ledger_.append(event_from_rd(rd_log_.back()));
  session_physician_.reset();  // one retrieval per passcode session
  return result;
}

Result<std::vector<sse::PlainFile>> PDevice::try_emergency_retrieve(
    SServer& server, std::span<const std::string> keywords) {
  return session_retrieve(keywords, [&](std::span<const std::string> valid) {
    return privileged_retrieve(*net_, id_, server, *bundle_, valid);
  });
}

std::vector<sse::PlainFile> PDevice::emergency_retrieve(
    SServer& server, std::span<const std::string> keywords) {
  return try_emergency_retrieve(server, keywords).value_or({});
}

Result<std::vector<sse::PlainFile>> PDevice::emergency_retrieve(
    SServerGroup& group, std::span<const std::string> keywords) {
  return session_retrieve(keywords, [&](std::span<const std::string> valid) {
    return group.read(bundle_->tp, [&](SServer& s) {
      return privileged_retrieve(*net_, id_, s, *bundle_, valid);
    });
  });
}

}  // namespace hcpp::core
