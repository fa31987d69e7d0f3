// Cross-request pairing coalescing (core/coalesce.h): the drained results
// must be byte-identical to the one-at-a-time paths they replace —
// SharedKeyDeriver::with_point for ν/ϖ derivations and ibs_verify for Hess
// signatures — including rejects, duplicates and mixed batches, with and
// without a thread pool. Also covers the two batched front-ends wired onto
// the coalescer: SearchService::search_batch_privileged and
// AServer::handle_emergency_auth_batch.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/coalesce.h"
#include "src/core/search_service.h"
#include "src/core/setup.h"
#include "src/mp/prime.h"
#include "src/par/pool.h"

namespace hcpp::core {
namespace {

DeploymentConfig small_config(uint64_t seed) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 10;
  cfg.seed = seed;
  return cfg;
}

cipher::Drbg test_rng(std::string_view tag) {
  return cipher::Drbg(to_bytes(tag));
}

// ---- shared-key coalescing --------------------------------------------------

TEST(CoalesceSharedKeys, MatchesWithPointIncludingDuplicates) {
  Deployment d = Deployment::create(small_config(11));
  const ibc::SharedKeyDeriver& deriver = d.sserver->nu_deriver();
  const curve::CurveCtx& ctx = *deriver.ctx();

  std::vector<curve::Point> peers = {
      curve::point_from_bytes(ctx, d.patient->tp_bytes()),
      ibc::Domain::public_key(ctx, "peer-a"),
      ibc::Domain::public_key(ctx, "peer-b"),
      curve::point_from_bytes(ctx, d.patient->tp_bytes()),  // duplicate
      ibc::Domain::public_key(ctx, "peer-a"),               // duplicate
  };
  PairingCoalescer co(ctx);
  for (size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ(co.add_shared_key(deriver, peers[i]), i);
  }
  EXPECT_EQ(co.pending(), peers.size());
  PairingCoalescer::Drained got = co.drain();
  EXPECT_EQ(co.pending(), 0u);
  ASSERT_EQ(got.shared_keys.size(), peers.size());
  for (size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ(got.shared_keys[i], deriver.with_point(peers[i])) << i;
  }
  // Two duplicated requests -> two pairings skipped outright.
  EXPECT_EQ(got.pairings_saved, 2u);
}

TEST(CoalesceSharedKeys, PooledDrainMatchesSerial) {
  Deployment d = Deployment::create(small_config(12));
  const ibc::SharedKeyDeriver& deriver = d.sserver->nu_deriver();
  const curve::CurveCtx& ctx = *deriver.ctx();
  std::vector<curve::Point> peers;
  for (int i = 0; i < 7; ++i) {
    peers.push_back(ibc::Domain::public_key(ctx, "peer-" + std::to_string(i)));
  }
  PairingCoalescer serial(ctx);
  PairingCoalescer pooled(ctx);
  for (const curve::Point& p : peers) {
    serial.add_shared_key(deriver, p);
    pooled.add_shared_key(deriver, p);
  }
  par::ThreadPool pool(2, "test-coalesce");
  EXPECT_EQ(serial.drain(nullptr).shared_keys,
            pooled.drain(&pool).shared_keys);
}

TEST(CoalesceSharedKeys, RejectsForeignOrEmptyDeriver) {
  Deployment d = Deployment::create(small_config(13));
  const curve::CurveCtx& ctx = *d.sserver->nu_deriver().ctx();
  PairingCoalescer co(ctx);
  ibc::SharedKeyDeriver empty;
  EXPECT_THROW(co.add_shared_key(empty, curve::generator(ctx)),
               std::invalid_argument);
  EXPECT_THROW(co.add_ibs_verify("id", Bytes{}, ibc::IbsSignature{}),
               std::logic_error);  // key-only coalescer
}

// ---- IBS coalescing ---------------------------------------------------------

TEST(CoalesceIbs, MatchesIbsVerifyOnMixedBatch) {
  Deployment d = Deployment::create(small_config(14));
  const ibc::PublicParams& pub = d.aserver->pub();
  const curve::CurveCtx& ctx = *pub.ctx;
  cipher::Drbg rng = test_rng("coalesce-ibs");

  struct Item {
    std::string id;
    Bytes message;
    ibc::IbsSignature sig;
  };
  std::vector<Item> items;
  for (int i = 0; i < 6; ++i) {
    // Two signers alternating: the cold form hashes each one every time.
    std::string id = (i % 2 == 0) ? "dr-even" : "dr-odd";
    Bytes msg = to_bytes("message-" + std::to_string(i));
    ibc::IbsSignature sig =
        ibc::ibs_sign(ctx, d.aserver->provision(id), id, msg, rng);
    items.push_back({std::move(id), std::move(msg), sig});
  }
  items[1].message.push_back(0x42);          // tampered message
  items[2].sig.v = mp::U512::from_u64(7);    // forged challenge
  items[3].sig.w = curve::Point{};           // infinity response point
  items[4].sig.v = mp::U512{};               // zero challenge
  {
    Item wrong = items[5];
    wrong.id = "dr-imposter";                // valid sig, wrong identity
    items.push_back(std::move(wrong));
  }

  PairingCoalescer co(pub);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(co.add_ibs_verify(items[i].id, items[i].message, items[i].sig),
              i);
  }
  PairingCoalescer::Drained got = co.drain();
  ASSERT_EQ(got.ibs_ok.size(), items.size());
  size_t valid = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    bool expect =
        ibc::ibs_verify(pub, items[i].id, items[i].message, items[i].sig);
    EXPECT_EQ(got.ibs_ok[i] != 0, expect) << "item " << i;
    valid += expect ? 1 : 0;
  }
  EXPECT_GE(valid, 2u);  // items 0 and 5 stayed untouched
  // Every non-malformed signature fused its two pairings into one product;
  // items 3 and 4 are rejected without pairing work.
  EXPECT_EQ(got.pairings_saved, items.size() - 2);
}

TEST(CoalesceIbs, PrecomputedVerifierFormMatchesIbsVerify) {
  // The verifier-backed form (ê(W, P) only, times the cached
  // ê(H1(ID), Ppub)^{−v}) mixed with cold entries in one drain, serial and
  // pooled, against the ibs_verify oracle.
  Deployment d = Deployment::create(small_config(24));
  const ibc::PublicParams& pub = d.aserver->pub();
  const curve::CurveCtx& ctx = *pub.ctx;
  cipher::Drbg rng = test_rng("coalesce-verifier");
  ibc::IbsVerifier dr_a(pub, "dr-a");

  struct Item {
    std::string id;
    Bytes message;
    ibc::IbsSignature sig;
    bool cached;  // queue through dr_a's verifier
  };
  std::vector<Item> items;
  for (int i = 0; i < 4; ++i) {
    Bytes msg = to_bytes("auth-" + std::to_string(i));
    items.push_back({"dr-a", msg,
                     ibc::ibs_sign(ctx, d.aserver->provision("dr-a"), "dr-a",
                                   msg, rng),
                     i != 3});
  }
  items[1].message.push_back(0x42);  // wrong message
  items[2].sig.w = curve::add(ctx, items[2].sig.w, curve::generator(ctx));
  {
    Bytes msg = to_bytes("auth-by-b");
    // Signed by dr-b, checked against dr-a's verifier: wrong identity.
    items.push_back({"dr-a", msg,
                     ibc::ibs_sign(ctx, d.aserver->provision("dr-b"), "dr-b",
                                   msg, rng),
                     true});
  }

  par::ThreadPool pool(2, "test-coalesce-verifier");
  for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr), &pool}) {
    PairingCoalescer co(pub);
    for (const Item& it : items) {
      if (it.cached) {
        co.add_ibs_verify(dr_a, it.message, it.sig);
      } else {
        co.add_ibs_verify(it.id, it.message, it.sig);
      }
    }
    PairingCoalescer::Drained got = co.drain(p);
    ASSERT_EQ(got.ibs_ok.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(got.ibs_ok[i] != 0,
                ibc::ibs_verify(pub, items[i].id, items[i].message,
                                items[i].sig))
          << "item " << i << (p != nullptr ? " pooled" : " serial");
    }
    EXPECT_EQ(got.ibs_ok[0], 1);
    EXPECT_EQ(got.ibs_ok[3], 1);
  }
}

TEST(CoalesceIbs, PooledDrainMatchesSerialAndKeysMix) {
  Deployment d = Deployment::create(small_config(15));
  const ibc::PublicParams& pub = d.aserver->pub();
  const curve::CurveCtx& ctx = *pub.ctx;
  const ibc::SharedKeyDeriver& deriver = d.sserver->nu_deriver();
  cipher::Drbg rng = test_rng("coalesce-mixed");

  PairingCoalescer serial(pub);
  PairingCoalescer pooled(pub);
  for (int i = 0; i < 4; ++i) {
    std::string id = "mixed-" + std::to_string(i);
    Bytes msg = to_bytes("m" + std::to_string(i));
    ibc::IbsSignature sig =
        ibc::ibs_sign(ctx, d.aserver->provision(id), id, msg, rng);
    serial.add_ibs_verify(id, msg, sig);
    pooled.add_ibs_verify(id, msg, sig);
    curve::Point peer = ibc::Domain::public_key(ctx, id);
    serial.add_shared_key(deriver, peer);
    pooled.add_shared_key(deriver, peer);
  }
  par::ThreadPool pool(3, "test-coalesce");
  PairingCoalescer::Drained a = serial.drain(nullptr);
  PairingCoalescer::Drained b = pooled.drain(&pool);
  EXPECT_EQ(a.shared_keys, b.shared_keys);
  EXPECT_EQ(a.ibs_ok, b.ibs_ok);
  for (uint8_t ok : a.ibs_ok) EXPECT_EQ(ok, 1);
}

// ---- SearchService::search_batch_privileged --------------------------------

PrivilegedRetrieveRequest make_priv_request(const Deployment& d,
                                            const PrivilegeBundle& pb,
                                            std::span<const std::string> kws,
                                            uint64_t t_offset) {
  // White-box construction of §IV.E.1 message 3 (emergency.cpp shape): the
  // current privilege key d comes straight off the server snapshot instead
  // of the BE round, which is not under test here.
  auto snaps = d.sserver->snapshot_accounts();
  const AccountSnapshot& acct =
      snaps.at(SServer::account_key(pb.tp, pb.collection));
  PrivilegedRetrieveRequest req;
  req.tp = pb.tp;
  req.collection = pb.collection;
  sse::TrapdoorGen gen(pb.keys);
  for (const std::string& kw : kws) {
    req.wrapped_trapdoors.push_back(
        sse::wrap_trapdoor(acct.d, gen.make(keyword_alias(kw, 0))));
  }
  req.t = d.net->clock().now() + t_offset;
  req.mac = protocol_mac(pb.nu, kPrivilegedRetrieveLabel, req.body(), req.t);
  return req;
}

std::vector<sse::FileId> file_ids(const RetrieveResponse& resp) {
  std::vector<sse::FileId> ids;
  for (const auto& [id, blob] : resp.files) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SearchBatchPrivileged, MatchesLiveHandlerAndRejectsBadRequests) {
  Deployment d = Deployment::create(small_config(16));
  ASSERT_TRUE(d.family->has_bundle());
  const PrivilegeBundle& pb = d.family->bundle();
  std::vector<std::string> kws = {d.all_keywords().front()};

  // Live handler first (its own timestamp, so no replay interference).
  PrivilegedRetrieveRequest single = make_priv_request(d, pb, kws, 0);
  std::optional<RetrieveResponse> live =
      d.sserver->handle_privileged_retrieve(single);
  ASSERT_TRUE(live.has_value());

  SearchService svc(nullptr);
  svc.publish(*d.sserver);
  PrivilegedRetrieveRequest good = make_priv_request(d, pb, kws, 1);
  PrivilegedRetrieveRequest good2 = make_priv_request(d, pb, kws, 2);
  PrivilegedRetrieveRequest bad_mac = make_priv_request(d, pb, kws, 3);
  bad_mac.mac[0] ^= 1;
  PrivilegedRetrieveRequest bad_tp = make_priv_request(d, pb, kws, 4);
  bad_tp.tp[1] ^= 1;  // no longer a valid curve point encoding
  bad_tp.mac = protocol_mac(pb.nu, kPrivilegedRetrieveLabel, bad_tp.body(),
                            bad_tp.t);
  PrivilegedRetrieveRequest unknown = make_priv_request(d, pb, kws, 5);
  unknown.collection = "no-such-collection";
  unknown.mac = protocol_mac(pb.nu, kPrivilegedRetrieveLabel, unknown.body(),
                             unknown.t);

  std::vector<PrivilegedRetrieveRequest> reqs = {good, good2, bad_mac,
                                                 bad_tp, unknown};
  std::vector<std::optional<RetrieveResponse>> got =
      svc.search_batch_privileged(*d.sserver, reqs);
  ASSERT_EQ(got.size(), reqs.size());
  ASSERT_TRUE(got[0].has_value());
  ASSERT_TRUE(got[1].has_value());  // same pseudonym: ν paired only once
  EXPECT_EQ(file_ids(*got[0]), file_ids(*live));
  EXPECT_EQ(file_ids(*got[1]), file_ids(*live));
  // The batch responses authenticate under the same ν as the live ones.
  EXPECT_TRUE(protocol_mac_ok(pb.nu, kPrivilegedRetrieveLabel,
                              got[0]->body(), got[0]->t, got[0]->mac));
  EXPECT_FALSE(got[2].has_value());
  EXPECT_FALSE(got[3].has_value());
  EXPECT_FALSE(got[4].has_value());
}

TEST(SearchBatchPrivileged, ReplayInsideBatchIsRejected) {
  Deployment d = Deployment::create(small_config(17));
  const PrivilegeBundle& pb = d.family->bundle();
  std::vector<std::string> kws = {d.all_keywords().front()};
  SearchService svc(nullptr);
  svc.publish(*d.sserver);
  PrivilegedRetrieveRequest req = make_priv_request(d, pb, kws, 0);
  std::vector<PrivilegedRetrieveRequest> reqs = {req, req};  // same MAC
  std::vector<std::optional<RetrieveResponse>> got =
      svc.search_batch_privileged(*d.sserver, reqs);
  EXPECT_TRUE(got[0].has_value());
  EXPECT_FALSE(got[1].has_value());  // replay cache, arrival order
}

TEST(SearchBatchPrivileged, PooledMatchesSerial) {
  Deployment d = Deployment::create(small_config(18));
  const PrivilegeBundle& pb = d.family->bundle();
  std::vector<std::string> kws = {d.all_keywords().front()};
  par::ThreadPool pool(2, "test-search-batch");
  SearchService serial(nullptr);
  SearchService pooled(&pool);
  serial.publish(*d.sserver);
  pooled.publish(*d.sserver);
  std::vector<PrivilegedRetrieveRequest> reqs_a, reqs_b;
  for (uint64_t i = 0; i < 3; ++i) {
    reqs_a.push_back(make_priv_request(d, pb, kws, i));
    reqs_b.push_back(make_priv_request(d, pb, kws, 100 + i));
  }
  std::vector<std::optional<RetrieveResponse>> a =
      serial.search_batch_privileged(*d.sserver, reqs_a);
  std::vector<std::optional<RetrieveResponse>> b =
      pooled.search_batch_privileged(*d.sserver, reqs_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].has_value());
    ASSERT_TRUE(b[i].has_value());
    EXPECT_EQ(file_ids(*a[i]), file_ids(*b[i]));
  }
}

// ---- AServer::handle_emergency_auth_batch ----------------------------------

EmergencyAuthRequest make_auth_request(Deployment& d, const std::string& id,
                                       cipher::Drbg& rng, uint64_t t_offset) {
  EmergencyAuthRequest req;
  req.physician_id = id;
  req.tp = d.patient->tp_bytes();
  req.t = d.net->clock().now() + t_offset;
  req.sig = ibc::ibs_sign(d.aserver->ctx(), d.aserver->provision(id), id,
                          req.body(), rng)
                .to_bytes();
  return req;
}

TEST(EmergencyAuthBatch, MatchesSingleHandlerOutcomes) {
  Deployment d = Deployment::create(small_config(19));
  cipher::Drbg rng = test_rng("auth-batch");
  const std::string on = d.on_duty->id();
  const std::string off = d.off_duty->id();

  EmergencyAuthRequest ok1 = make_auth_request(d, on, rng, 0);
  EmergencyAuthRequest ok2 = make_auth_request(d, on, rng, 1);
  EmergencyAuthRequest off_duty = make_auth_request(d, off, rng, 2);
  EmergencyAuthRequest bad_sig = make_auth_request(d, on, rng, 3);
  bad_sig.sig[4] ^= 1;
  EmergencyAuthRequest replay = ok1;

  const size_t traces_before = d.aserver->traces().size();
  std::vector<EmergencyAuthRequest> reqs = {ok1, ok2, off_duty, bad_sig,
                                            replay};
  std::vector<std::optional<AServer::EmergencyAuthOutcome>> got =
      d.aserver->handle_emergency_auth_batch(reqs);
  ASSERT_EQ(got.size(), reqs.size());
  EXPECT_TRUE(got[0].has_value());
  EXPECT_TRUE(got[1].has_value());
  EXPECT_FALSE(got[2].has_value());  // verified IBS but not on duty
  EXPECT_FALSE(got[3].has_value());  // signature rejected
  EXPECT_FALSE(got[4].has_value());  // replay of ok1 inside the batch
  // Each accepted request appended a TR trace, like the single handler.
  EXPECT_EQ(d.aserver->traces().size(), traces_before + 2);

  // The batched outcome drives the real passcode flow end to end.
  d.pdevice->press_emergency_button();
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, got[0]->to_pdevice));
}

TEST(EmergencyAuthBatch, PooledDrainSameAcceptance) {
  Deployment d = Deployment::create(small_config(20));
  cipher::Drbg rng = test_rng("auth-batch-pool");
  std::vector<EmergencyAuthRequest> reqs;
  for (uint64_t i = 0; i < 4; ++i) {
    reqs.push_back(make_auth_request(d, d.on_duty->id(), rng, i));
  }
  par::ThreadPool pool(2, "test-auth-batch");
  std::vector<std::optional<AServer::EmergencyAuthOutcome>> got =
      d.aserver->handle_emergency_auth_batch(reqs, &pool);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].has_value()) << i;
  }
}

/// An on-curve point outside the order-q subgroup.
curve::Point small_subgroup_point(const curve::CurveCtx& ctx) {
  cipher::Drbg rng = test_rng("auth-batch-small-subgroup");
  curve::Point low_order = curve::Point::at_infinity();
  for (int tries = 0; tries < 64 && low_order.infinity; ++tries) {
    field::Fp x(&ctx.fp, mp::random_below(ctx.p, rng));
    auto y = (x.sqr() * x + x).sqrt();
    if (!y.has_value()) continue;
    low_order = curve::mul(ctx, curve::Point{x, *y, false}, ctx.q);
  }
  return low_order;
}

/// The mixed batch of MatchesSingleHandlerOutcomes plus a validly signed
/// request whose TP fails the subgroup guard. Same bytes for every
/// deployment of one seed.
std::vector<EmergencyAuthRequest> mixed_batch(Deployment& d) {
  cipher::Drbg rng = test_rng("auth-batch-mixed");
  const std::string on = d.on_duty->id();
  EmergencyAuthRequest ok1 = make_auth_request(d, on, rng, 0);
  EmergencyAuthRequest ok2 = make_auth_request(d, on, rng, 1);
  EmergencyAuthRequest off_duty =
      make_auth_request(d, d.off_duty->id(), rng, 2);
  EmergencyAuthRequest bad_sig = make_auth_request(d, on, rng, 3);
  bad_sig.sig[4] ^= 1;
  EmergencyAuthRequest bad_tp;
  bad_tp.physician_id = on;
  bad_tp.tp = curve::point_to_bytes(small_subgroup_point(d.aserver->ctx()));
  bad_tp.t = d.net->clock().now() + 4;
  bad_tp.sig = ibc::ibs_sign(d.aserver->ctx(), d.aserver->provision(on), on,
                             bad_tp.body(), rng)
                   .to_bytes();
  return {ok1, ok2, off_duty, bad_sig, ok1, bad_tp};
}

/// Every byte of an outcome (empty for a refusal).
Bytes outcome_bytes(const std::optional<AServer::EmergencyAuthOutcome>& o) {
  io::Writer w;
  if (!o.has_value()) return w.take();
  w.bytes(o->to_physician.enc_nonce);
  w.u64(o->to_physician.t);
  w.bytes(o->to_physician.sig);
  w.str(o->to_pdevice.physician_id);
  w.bytes(o->to_pdevice.ibe_blob);
  w.u64(o->to_pdevice.t);
  w.bytes(o->to_pdevice.sig);
  w.bytes(o->to_pdevice.audit_sig);
  return w.take();
}

TEST(EmergencyAuthBatch, OutcomesIdenticalAtEveryThreadCount) {
  // Issue runs on the pool from per-request streams forked in arrival
  // order, so outcomes, the TR log and the TR ledger must not depend on
  // whether (or on how many threads) the batch ran pooled.
  struct Run {
    std::vector<Bytes> outcomes;
    std::vector<Bytes> traces;
    Bytes ledger_head;
  };
  auto run_with = [](par::ThreadPool* pool) {
    Deployment d = Deployment::create(small_config(27));
    std::vector<EmergencyAuthRequest> reqs = mixed_batch(d);
    Run r;
    for (const auto& o : d.aserver->handle_emergency_auth_batch(reqs, pool)) {
      r.outcomes.push_back(outcome_bytes(o));
    }
    for (const TraceRecord& t : d.aserver->traces()) {
      r.traces.push_back(t.body());
    }
    r.ledger_head = d.aserver->trace_ledger().head_hash();
    return r;
  };
  par::ThreadPool one(1, "test-auth-batch-1");
  par::ThreadPool four(4, "test-auth-batch-4");
  const Run serial = run_with(nullptr);
  for (par::ThreadPool* pool : {&one, &four}) {
    const Run pooled = run_with(pool);
    EXPECT_EQ(pooled.outcomes, serial.outcomes) << pool->size();
    EXPECT_EQ(pooled.traces, serial.traces) << pool->size();
    EXPECT_EQ(pooled.ledger_head, serial.ledger_head) << pool->size();
  }

  // The acceptance pattern is MatchesSingleHandlerOutcomes' plus the
  // subgroup guard's refusal, and the single handler agrees request by
  // request on a same-seed deployment.
  const std::vector<bool> want = {true, true, false, false, false, false};
  ASSERT_EQ(serial.outcomes.size(), want.size());
  Deployment d = Deployment::create(small_config(27));
  std::vector<EmergencyAuthRequest> reqs = mixed_batch(d);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(!serial.outcomes[i].empty(), want[i]) << i;
    EXPECT_EQ(d.aserver->handle_emergency_auth(reqs[i]).has_value(), want[i])
        << i;
  }
  EXPECT_EQ(serial.traces.size(), 2u);
  EXPECT_EQ(d.aserver->traces().size(), 2u);
}

}  // namespace
}  // namespace hcpp::core
