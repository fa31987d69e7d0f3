// §IV.E emergency flows: family-based and P-device-based retrieval, access
// control (on-duty check, passcode), fail-open, and the §VI.A alerting
// countermeasure.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/cluster.h"
#include "src/core/setup.h"
#include "src/obs/metrics.h"
#include "src/sim/transport.h"

namespace hcpp::core {
namespace {

DeploymentConfig small_config(uint64_t seed) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 10;
  cfg.seed = seed;
  return cfg;
}

TEST(FamilyEmergency, RetrievesMatchingFiles) {
  Deployment d = Deployment::create(small_config(1));
  const KeywordIndex& ki = d.patient->keyword_index();
  const auto& [kw, expected] = *ki.entries.begin();
  std::vector<std::string> kws = {kw};
  std::vector<sse::PlainFile> got = d.family->emergency_retrieve(*d.sserver,
                                                                 kws);
  std::vector<sse::FileId> got_ids;
  for (const sse::PlainFile& f : got) got_ids.push_back(f.id);
  std::sort(got_ids.begin(), got_ids.end());
  std::vector<sse::FileId> want = expected;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got_ids, want);
}

TEST(FamilyEmergency, FourMessagesOnTheWire) {
  Deployment d = Deployment::create(small_config(2));
  d.net->reset_stats();
  std::vector<std::string> kws = {d.all_keywords().front()};
  (void)d.family->emergency_retrieve(*d.sserver, kws);
  uint64_t total = d.net->stats("emergency-be-request").messages +
                   d.net->stats("emergency-privileged-retrieval").messages;
  EXPECT_EQ(total, 4u);  // §IV.E.1's four-message exchange
}

TEST(FamilyEmergency, WithoutBundleReturnsNothing) {
  Deployment d = Deployment::create(small_config(3));
  Family stranger(*d.net, "stranger");
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(stranger.emergency_retrieve(*d.sserver, kws).empty());
}

TEST(PDeviceEmergency, FullFlowSucceeds) {
  Deployment d = Deployment::create(small_config(4));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  std::vector<sse::PlainFile> got =
      d.pdevice->emergency_retrieve(*d.sserver, kws);
  EXPECT_FALSE(got.empty());
  // RD was recorded and the patient got an alert.
  ASSERT_EQ(d.pdevice->records().size(), 1u);
  EXPECT_EQ(d.pdevice->records()[0].physician_id, d.on_duty->id());
  EXPECT_EQ(d.pdevice->records()[0].keywords, kws);
  EXPECT_EQ(d.pdevice->alert_count(), 1);
  // TR was recorded at the A-server.
  ASSERT_EQ(d.aserver->traces().size(), 1u);
  EXPECT_EQ(d.aserver->traces()[0].physician_id, d.on_duty->id());
}

TEST(PDeviceEmergency, OffDutyPhysicianDenied) {
  Deployment d = Deployment::create(small_config(5));
  d.pdevice->press_emergency_button();
  auto pass = d.off_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  EXPECT_FALSE(pass.has_value());
  EXPECT_TRUE(d.aserver->traces().empty());
}

TEST(PDeviceEmergency, UnknownPhysicianDenied) {
  Deployment d = Deployment::create(small_config(6));
  // Enrolled in the domain but never signed in as on duty.
  Physician mallory(*d.net, *d.aserver, "dr-mallory");
  d.pdevice->press_emergency_button();
  EXPECT_FALSE(
      mallory.request_passcode(*d.aserver, d.patient->tp_bytes()).has_value());
}

TEST(PDeviceEmergency, WrongPasscodeRejectedAndBurnsAttempt) {
  Deployment d = Deployment::create(small_config(7));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  Bytes wrong = pass->nonce;
  wrong[0] ^= 1;
  EXPECT_FALSE(d.pdevice->enter_passcode(d.on_duty->id(), wrong));
  // The passcode is one-shot: even the right value fails now.
  EXPECT_FALSE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
}

TEST(PDeviceEmergency, PasscodeBoundToPhysicianIdentity) {
  Deployment d = Deployment::create(small_config(8));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  // A different physician typing the stolen nonce is rejected.
  EXPECT_FALSE(d.pdevice->enter_passcode("dr-off-duty", pass->nonce));
}

TEST(PDeviceEmergency, RequiresEmergencyMode) {
  Deployment d = Deployment::create(small_config(9));
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  // Button never pressed: the device ignores the delivery.
  EXPECT_FALSE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
}

TEST(PDeviceEmergency, SessionIsOneShot) {
  Deployment d = Deployment::create(small_config(10));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_FALSE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
  // Second retrieval without a fresh passcode fails.
  EXPECT_TRUE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
}

TEST(PDeviceEmergency, NonDictionaryKeywordsFiltered) {
  Deployment d = Deployment::create(small_config(11));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {"not-in-dictionary",
                                  d.all_keywords().front()};
  std::vector<sse::PlainFile> got =
      d.pdevice->emergency_retrieve(*d.sserver, kws);
  EXPECT_FALSE(got.empty());
  // The RD records only the dictionary-validated keyword.
  ASSERT_EQ(d.pdevice->records().size(), 1u);
  EXPECT_EQ(d.pdevice->records()[0].keywords,
            std::vector<std::string>{d.all_keywords().front()});
}

TEST(PDeviceEmergency, RevokedDeviceFailsOpenClosed) {
  // §VI.A: patient notices the loss and revokes; the stolen device can still
  // obtain passcodes but the S-server rejects its stale-d trapdoors.
  Deployment d = Deployment::create(small_config(12));
  ASSERT_TRUE(d.patient->revoke_member(*d.sserver, kPDeviceSlot));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_TRUE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
}

TEST(AServerFailover, ReplicaServesWhenPrimaryIsDown) {
  // §VI.D: the A-server role split across local offices; the transport dials
  // the next office automatically when one is DoS'd (no first_available
  // polling). Replicas share the domain, so the passcode a replica issues
  // still decrypts at the P-device.
  sim::Network net;
  cipher::Drbg rng(to_bytes("failover"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 3, rng);
  cluster.set_on_duty("dr-er", true);

  SServer sserver(net, cluster.replica(0), "hosp");
  Patient patient(net, "pat", rng);
  patient.setup(cluster.replica(0), "hosp");
  patient.add_files(generate_phi_collection(6, patient.rng()));
  ASSERT_TRUE(patient.store_phi(sserver));
  PDevice pdevice(net, "pdev", rng);
  Bytes mu = rng.bytes(32);
  ASSERT_TRUE(assign_privilege(patient, pdevice, mu));
  Physician er(net, cluster.replica(0), "dr-er");

  // Attack: offices 0 and 1 go down. Keep the per-office budget small so
  // the failover walk is quick.
  cluster.set_up(0, false);
  cluster.set_up(1, false);
  sim::RetryPolicy quick;
  quick.max_attempts = 2;
  net.transport().set_policy(quick);

  pdevice.press_emergency_button();
  size_t office = 99;
  Result<Physician::PasscodeResult> pass =
      er.request_passcode(cluster, patient.tp_bytes(), &office);
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(office, 2u);
  ASSERT_TRUE(pdevice.deliver_passcode(cluster.replica(office),
                                       pass.value().for_device));
  ASSERT_TRUE(pdevice.enter_passcode("dr-er", pass.value().nonce));
  std::vector<std::string> kws = {
      patient.keyword_index().dictionary().front()};
  EXPECT_FALSE(pdevice.emergency_retrieve(sserver, kws).empty());
  // The trace landed at the replica and the cluster-wide view finds it.
  EXPECT_EQ(cluster.all_traces().size(), 1u);
  EXPECT_EQ(cluster.all_traces()[0].physician_id, "dr-er");
}

TEST(AServerFailover, ReplicasShareDutyRegistry) {
  sim::Network net;
  cipher::Drbg rng(to_bytes("failover-duty"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  AServerCluster cluster(net, ctx, "state-a", 3, rng);
  cluster.set_on_duty("dr-x", true);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.replica(i).is_on_duty("dr-x"));
  }
  cluster.set_on_duty("dr-x", false);
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_FALSE(cluster.replica(i).is_on_duty("dr-x"));
  }
}

TEST(PDeviceEmergency, FailOpenWhenFamilyAbsent) {
  // The fail-open requirement (§III.C): the P-device path succeeds with no
  // patient and no family participation at all.
  Deployment d = Deployment::create(small_config(13));
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
  std::vector<std::string> all = d.all_keywords();
  std::vector<sse::PlainFile> got =
      d.pdevice->emergency_retrieve(*d.sserver, all);
  EXPECT_EQ(got.size(), d.patient->files().size());
}

// ---- Per-identity precomputation: noise-free op-count gate ---------------

/// One full P-device incident: button, passcode, delivery, entry, retrieval.
bool pdevice_incident(Deployment& d, Physician& dr) {
  d.pdevice->press_emergency_button();
  auto pass = dr.request_passcode(*d.aserver, d.patient->tp_bytes());
  if (!pass.has_value() ||
      !d.pdevice->deliver_passcode(*d.aserver, pass->for_device) ||
      !d.pdevice->enter_passcode(dr.id(), pass->nonce)) {
    return false;
  }
  std::vector<std::string> kws = {d.all_keywords().front()};
  return !d.pdevice->emergency_retrieve(*d.sserver, kws).empty();
}

uint64_t all_pairings(const obs::Registry& reg) {
  return reg.counter(obs::kPairing) + reg.counter(obs::kPairingFixed) +
         reg.counter(obs::kPairingProductTerms);
}

TEST(EmergencyPrecomp, WarmIncidentCostsFivePairingsNoHashToPoint) {
  // §V.B.3 budget: once every party holds its per-identity state, an
  // incident pays 3 fixed ê(W, P) verifications and the passcode IBE
  // encrypt and decrypt — the S-server's ν is bound to the account — and
  // hashes no identity to a point.
  Deployment d = Deployment::create(small_config(21));
  Physician second(*d.net, *d.aserver, "dr-second");
  d.aserver->set_on_duty(second.id(), true);
  Physician* doctors[] = {d.on_duty.get(), &second};
  for (Physician* dr : doctors) ASSERT_TRUE(pdevice_incident(d, *dr));

  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  for (Physician* dr : doctors) {
    const uint64_t pairings = all_pairings(reg);
    const uint64_t h2p = reg.counter(obs::kHashToPoint);
    EXPECT_TRUE(pdevice_incident(d, *dr)) << dr->id();
    EXPECT_EQ(all_pairings(reg) - pairings, 5u) << dr->id();
    EXPECT_EQ(reg.counter(obs::kHashToPoint) - h2p, 0u) << dr->id();
  }
  obs::attach(previous);
}

TEST(EmergencyPrecomp, WarmIncidentPaysOneFreshPairing) {
  // Of the five, only the P-device's passcode decrypt pairs from scratch:
  // the A-server's passcode IBE evaluates its cached Ppub lines, beside the
  // three fixed ê(W, P) verifications.
  Deployment d = Deployment::create(small_config(26));
  ASSERT_TRUE(pdevice_incident(d, *d.on_duty));

  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  EXPECT_TRUE(pdevice_incident(d, *d.on_duty));
  obs::attach(previous);
  EXPECT_EQ(reg.counter(obs::kPairing), 1u);
  EXPECT_EQ(reg.counter(obs::kPairingFixed), 4u);
  EXPECT_EQ(reg.counter(obs::kPairingProductTerms), 0u);
}

TEST(EmergencyPrecomp, UnregisteredPhysicianIdsAddNoCacheEntries) {
  Deployment d = Deployment::create(small_config(22));
  ASSERT_TRUE(pdevice_incident(d, *d.on_duty));
  const size_t cached = d.aserver->physician_cache_size();
  EXPECT_EQ(cached, 1u);
  cipher::Drbg rng(to_bytes("unregistered-ids"));
  std::vector<EmergencyAuthRequest> batch;
  for (int i = 0; i < 100; ++i) {
    // Validly signed by an enrolled identity that is not on duty: the cold
    // path verifies it and the on-duty check refuses it.
    std::string id = "dr-stranger-" + std::to_string(i);
    EmergencyAuthRequest req;
    req.physician_id = id;
    req.tp = d.patient->tp_bytes();
    req.t = d.net->clock().now() + static_cast<uint64_t>(i);
    req.sig = ibc::ibs_sign(d.aserver->ctx(), d.aserver->provision(id), id,
                            req.body(), rng)
                  .to_bytes();
    if (i % 2 == 0) {
      EXPECT_FALSE(d.aserver->handle_emergency_auth(req).has_value());
    } else {
      batch.push_back(std::move(req));
    }
  }
  for (const auto& out : d.aserver->handle_emergency_auth_batch(batch)) {
    EXPECT_FALSE(out.has_value());
  }
  EXPECT_EQ(d.aserver->physician_cache_size(), cached);
  // Going off duty drops the entry; the physician is then refused.
  d.aserver->set_on_duty(d.on_duty->id(), false);
  EXPECT_EQ(d.aserver->physician_cache_size(), 0u);
  EXPECT_FALSE(pdevice_incident(d, *d.on_duty));
  EXPECT_EQ(d.aserver->physician_cache_size(), 0u);
}

// ---- A forged copy does not burn the genuine request's replay tag ----------
//
// The A-server keys its replay cache by the request's IBS bytes. A copy of a
// genuine request carrying the same signature over an altered body must be
// refused without entering the cache, so the genuine request that follows
// is still accepted.

EmergencyAuthRequest signed_auth_request(Deployment& d, cipher::Drbg& rng) {
  const std::string id = d.on_duty->id();
  EmergencyAuthRequest req;
  req.physician_id = id;
  req.tp = d.patient->tp_bytes();
  req.t = d.net->clock().now();
  req.sig = ibc::ibs_sign(d.aserver->ctx(), d.aserver->provision(id), id,
                          req.body(), rng)
                .to_bytes();
  return req;
}

EmergencyAuthRequest forged_copy(const EmergencyAuthRequest& genuine) {
  EmergencyAuthRequest forged = genuine;
  forged.tp.back() ^= 1;  // altered body, genuine signature bytes
  return forged;
}

TEST(ReplayTag, ForgedEmergencyAuthLeavesGenuineAccepted) {
  Deployment d = Deployment::create(small_config(23));
  cipher::Drbg rng(to_bytes("forged-auth"));
  EmergencyAuthRequest genuine = signed_auth_request(d, rng);
  EXPECT_FALSE(
      d.aserver->handle_emergency_auth(forged_copy(genuine)).has_value());
  EXPECT_TRUE(d.aserver->handle_emergency_auth(genuine).has_value());
  // The genuine request did enter the cache: its replay is refused.
  EXPECT_FALSE(d.aserver->handle_emergency_auth(genuine).has_value());
}

TEST(ReplayTag, ForgedEmergencyAuthInBatchLeavesGenuineAccepted) {
  Deployment d = Deployment::create(small_config(24));
  cipher::Drbg rng(to_bytes("forged-auth-batch"));
  EmergencyAuthRequest genuine = signed_auth_request(d, rng);
  std::vector<EmergencyAuthRequest> batch = {forged_copy(genuine), genuine};
  std::vector<std::optional<AServer::EmergencyAuthOutcome>> got =
      d.aserver->handle_emergency_auth_batch(batch);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_FALSE(got[0].has_value());
  EXPECT_TRUE(got[1].has_value());
}

TEST(ReplayTag, ForgedRoleKeyRequestLeavesGenuineAccepted) {
  Deployment d = Deployment::create(small_config(25));
  cipher::Drbg rng(to_bytes("forged-role-key"));
  const std::string id = d.on_duty->id();
  RoleKeyRequest genuine;
  genuine.physician_id = id;
  genuine.role_id = "2011-04-12|emergency|gainesville";
  genuine.t = d.net->clock().now();
  genuine.sig = ibc::ibs_sign(d.aserver->ctx(), d.aserver->provision(id), id,
                              genuine.body(), rng)
                    .to_bytes();
  RoleKeyRequest forged = genuine;
  forged.role_id = "2011-04-12|oncology|gainesville";
  EXPECT_FALSE(d.aserver->handle_role_key_request(forged).has_value());
  EXPECT_TRUE(d.aserver->handle_role_key_request(genuine).has_value());
  EXPECT_FALSE(d.aserver->handle_role_key_request(genuine).has_value());
}

// ---- Tampered blobs are skipped, and counted -------------------------------

/// Flips one byte in the middle of the stored blob of `file` by round-tripping
/// the S-server's durable state.
void tamper_stored_blob(Deployment& d, sse::FileId file) {
  auto snaps = d.sserver->snapshot_accounts();
  const AccountSnapshot& snap = snaps.at(
      SServer::account_key(d.patient->tp_bytes(), d.patient->collection()));
  const Bytes& blob = snap.files->files.at(file);
  Bytes state = d.sserver->export_state();
  auto at = std::search(state.begin(), state.end(), blob.begin(), blob.end());
  ASSERT_NE(at, state.end());
  at[static_cast<std::ptrdiff_t>(blob.size() / 2)] ^= 0x01;
  ASSERT_TRUE(d.sserver->import_state(state));
}

std::vector<sse::FileId> sorted_ids(const std::vector<sse::PlainFile>& files) {
  std::vector<sse::FileId> ids;
  for (const sse::PlainFile& f : files) ids.push_back(f.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(TamperedBlob, RetrievalSkipsAndCountsIt) {
  Deployment d = Deployment::create(small_config(23));
  const KeywordIndex& ki = d.patient->keyword_index();
  auto entry = std::find_if(ki.entries.begin(), ki.entries.end(),
                            [](const auto& e) { return e.second.size() >= 2; });
  ASSERT_NE(entry, ki.entries.end());
  const std::vector<sse::FileId>& ids = entry->second;
  tamper_stored_blob(d, ids.front());

  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  std::vector<std::string> kws = {entry->first};
  std::vector<sse::FileId> want(ids.begin() + 1, ids.end());
  std::sort(want.begin(), want.end());
  // Family path (§IV.E.1 privileged retrieval).
  EXPECT_EQ(sorted_ids(d.family->emergency_retrieve(*d.sserver, kws)), want);
  EXPECT_EQ(reg.counter(obs::kRetrieveBlobsSkipped), 1u);
  // Owner path (§IV.D) goes through the same decryption helper.
  EXPECT_EQ(sorted_ids(d.patient->retrieve(*d.sserver, kws)), want);
  EXPECT_EQ(reg.counter(obs::kRetrieveBlobsSkipped), 2u);
  obs::attach(previous);
}

}  // namespace
}  // namespace hcpp::core
