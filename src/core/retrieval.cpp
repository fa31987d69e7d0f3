// §IV.D common-case PHI retrieval: one round — trapdoors up, Λ(kw) down.
// The S-server performs the O(1) SEARCH and never sees keywords or
// plaintext; the patient decrypts on the cell phone and hands the plaintext
// to the physician out of band. One round body (retrieve_from) serves a
// single server and every SServerGroup placement (routed by
// SServerGroup::read); the onion variant differs only in its wire carriage.
#include "src/core/call.h"
#include "src/core/cluster.h"
#include "src/core/entities.h"
#include "src/obs/trace.h"
#include "src/sim/onion.h"

namespace hcpp::core {

namespace {
constexpr const char* kLabel = "phi-retrieval";
}  // namespace

std::vector<Bytes> Patient::make_trapdoor_blobs(
    std::span<const std::string> keywords) {
  if (ctx_ == nullptr) throw std::logic_error("Patient: setup() first");
  std::vector<Bytes> out;
  out.reserve(keywords.size());
  sse::TrapdoorGen gen(keys_);  // one ϖ_c/f_b key schedule for the batch
  std::optional<sse::Updater> up;  // built lazily: only updated keywords pay
  for (const std::string& kw : keywords) {
    // Rotate through aliases so repeated same-keyword searches look
    // unrelated to the server (§VI.B).
    std::string alias = next_alias(kw);
    auto it = update_state_.counters.find(alias);
    if (it != update_state_.counters.end() && it->second > 0) {
      // Updated keyword: the 100-byte dynamic trapdoor lets the server walk
      // the update chain in addition to the static list.
      if (!up.has_value()) up.emplace(keys_, update_state_);
      out.push_back(up->trapdoor(alias).to_bytes());
    } else {
      // Never-updated keyword: legacy 60-byte static trapdoor, so
      // update-free deployments stay byte-identical on the wire.
      out.push_back(gen.make(alias).to_bytes());
    }
  }
  return out;
}

RetrieveRequest Patient::retrieve_request(
    const std::vector<Bytes>& trapdoors) const {
  RetrieveRequest req;
  req.tp = tp_bytes();
  req.collection = collection_;
  req.trapdoors = trapdoors;
  stamp(req, shared_key_nu(), kLabel, net_->clock().now());
  return req;
}

Result<std::vector<sse::PlainFile>> Patient::retrieve_from(
    SServer& server, const std::vector<Bytes>& trapdoors) {
  RetrieveRequest req = retrieve_request(trapdoors);
  Caller caller{*net_, name_};
  Result<RetrieveResponse> resp =
      caller.call(server, &SServer::handle_retrieve, req, kLabel, "retrieval");
  if (!resp.ok()) return resp.error();
  if (!mac_ok(resp.value(), shared_key_nu(), kLabel)) {
    return permanent_error(ErrorCode::kBadResponse, caller.attempts,
                           "response failed authentication");
  }
  return decrypt_files(keys_, resp.value());
}

Result<std::vector<sse::PlainFile>> Patient::try_retrieve(
    SServer& server, std::span<const std::string> keywords) {
  obs::Span span("protocol:retrieve");
  return retrieve_from(server, make_trapdoor_blobs(keywords));
}

std::vector<sse::PlainFile> Patient::retrieve(
    SServer& server, std::span<const std::string> keywords) {
  return try_retrieve(server, keywords).value_or({});
}

Result<std::vector<sse::PlainFile>> Patient::retrieve(
    SServerGroup& group, std::span<const std::string> keywords) {
  obs::Span span("protocol:retrieve");
  // One alias rotation step, stamped afresh for each server it reaches.
  std::vector<Bytes> trapdoors = make_trapdoor_blobs(keywords);
  return group.read(tp_bytes(), [&](SServer& s) { return retrieve_from(s, trapdoors); });
}

std::vector<sse::PlainFile> Patient::retrieve_anonymous(
    SServer& server, sim::OnionNetwork& onion,
    std::span<const std::string> keywords) {
  RetrieveRequest req = retrieve_request(make_trapdoor_blobs(keywords));
  Bytes reply = onion.round_trip(
      name_, sserver_id_, req.to_wire(),
      [&server](BytesView wire) -> Bytes {
        try {
          std::optional<RetrieveResponse> resp =
              server.handle_retrieve(RetrieveRequest::from_wire(wire));
          return resp.has_value() ? resp->to_wire() : Bytes{};
        } catch (const std::exception&) {
          return Bytes{};
        }
      },
      rng_);
  if (reply.empty()) return {};
  RetrieveResponse resp;
  try {
    resp = RetrieveResponse::from_wire(reply);
  } catch (const std::exception&) {
    return {};
  }
  if (!mac_ok(resp, shared_key_nu(), kLabel)) return {};
  return decrypt_files(keys_, resp);
}

std::optional<RetrieveResponse> SServer::handle_retrieve(
    const RetrieveRequest& req) {
  obs::Span span("sserver:retrieve");
  std::optional<Authenticated> auth = authenticate(req, kLabel);
  if (!auth.has_value() || auth->acct == nullptr) return std::nullopt;
  const Account* acct = auth->acct;

  // Mixed-width batch: 60-byte static trapdoors walk the packed index only;
  // 100-byte dynamic ones additionally walk the account's update log.
  RetrieveResponse resp;
  for (sse::FileId id :
       sse::search_mixed(*acct->index, acct->log, req.trapdoors)) {
    auto it = acct->files.files.find(id);
    if (it != acct->files.files.end()) resp.files.emplace_back(id, it->second);
  }
  stamp(resp, auth->nu, kLabel, net_->clock().now());
  return resp;
}

}  // namespace hcpp::core
