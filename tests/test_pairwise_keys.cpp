// Pairwise-key lifetimes (DESIGN.md §7.3): the S-server binds ν to the
// stored account and ρ to the role's live MHI state, and the physician keeps
// ρ next to the role key it obtained, so a warm request pays no pairing. A
// pseudonym or role without server state takes the cold derivation every
// time and adds nothing; the subgroup guard still refuses what it refused
// before. The cold derivations stay the oracles.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/search_service.h"
#include "src/core/setup.h"
#include "src/mp/prime.h"
#include "src/obs/metrics.h"
#include "src/sse/sse.h"

namespace hcpp::core {
namespace {

namespace fs = std::filesystem;

DeploymentConfig config(uint64_t seed) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = seed;
  return cfg;
}

struct Pairings {
  uint64_t all = 0;
  uint64_t fixed = 0;
};

/// The pairings of every kind run while `fn` runs.
template <typename Fn>
Pairings pairings_during(Fn&& fn) {
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  fn();
  obs::attach(previous);
  return {reg.counter(obs::kPairing) + reg.counter(obs::kPairingFixed) +
              reg.counter(obs::kPairingProductTerms),
          reg.counter(obs::kPairingFixed)};
}

std::vector<std::string> first_keyword(const Deployment& d) {
  return {d.all_keywords().front()};
}

/// Opens a P-device retrieval session through the on-duty physician.
void open_pdevice_session(Deployment& d) {
  d.pdevice->press_emergency_button();
  auto pass = d.on_duty->request_passcode(*d.aserver, d.patient->tp_bytes());
  ASSERT_TRUE(pass.has_value());
  ASSERT_TRUE(d.pdevice->deliver_passcode(*d.aserver, pass->for_device));
  ASSERT_TRUE(d.pdevice->enter_passcode(d.on_duty->id(), pass->nonce));
}

/// An on-curve point outside the order-q subgroup.
curve::Point small_subgroup_point(const curve::CurveCtx& ctx) {
  cipher::Drbg rng(to_bytes("pairwise-small-subgroup"));
  curve::Point low_order = curve::Point::at_infinity();
  for (int tries = 0; tries < 64 && low_order.infinity; ++tries) {
    field::Fp x(&ctx.fp, mp::random_below(ctx.p, rng));
    auto y = (x.sqr() * x + x).sqrt();
    if (!y.has_value()) continue;
    low_order = curve::mul(ctx, curve::Point{x, *y, false}, ctx.q);
  }
  return low_order;
}

// ---- ν bound to the account ---------------------------------------------

TEST(PairwiseKeys, WarmNuKeyedRequestsCostNoPairing) {
  Deployment d = Deployment::create(config(31));
  const std::vector<std::string> kws = first_keyword(d);
  open_pdevice_session(d);

  EXPECT_EQ(pairings_during([&] {
              EXPECT_FALSE(d.patient->retrieve(*d.sserver, kws).empty());
            }).all,
            0u);
  const sse::FileId added = d.patient->files().back().id + 1;
  EXPECT_EQ(pairings_during([&] {
              EXPECT_TRUE(d.patient->update_phi(
                  *d.sserver, {{added, "added", to_bytes("x"), {"kw-new"}}}));
            }).all,
            0u);
  EXPECT_EQ(pairings_during([&] {
              EXPECT_TRUE(d.patient->revoke_member(*d.sserver, 5));
            }).all,
            0u);
  EXPECT_EQ(pairings_during([&] {
              EXPECT_FALSE(d.family->emergency_retrieve(*d.sserver, kws).empty());
            }).all,
            0u);
  EXPECT_EQ(pairings_during([&] {
              EXPECT_FALSE(d.pdevice->emergency_retrieve(*d.sserver, kws).empty());
            }).all,
            0u);
  EXPECT_EQ(pairings_during([&] {
              EXPECT_TRUE(d.patient->compact_phi(*d.sserver));
            }).all,
            0u);
  // A re-store keeps the account's ν.
  EXPECT_EQ(pairings_during([&] {
              EXPECT_TRUE(d.patient->store_phi(*d.sserver));
            }).all,
            0u);
}

TEST(PairwiseKeys, ImportedServerDerivesNuOnceThenReusesIt) {
  Deployment d = Deployment::create(config(32));
  const std::vector<std::string> kws = first_keyword(d);
  ASSERT_TRUE(d.sserver->import_state(d.sserver->export_state()));

  Pairings first = pairings_during([&] {
    EXPECT_FALSE(d.patient->retrieve(*d.sserver, kws).empty());
  });
  EXPECT_EQ(first.all, 1u);
  EXPECT_EQ(first.fixed, 1u);
  EXPECT_EQ(pairings_during([&] {
              EXPECT_FALSE(d.patient->retrieve(*d.sserver, kws).empty());
            }).all,
            0u);
}

TEST(PairwiseKeys, RehydratedServerDerivesNuOnceThenReusesIt) {
  fs::path dir = fs::temp_directory_path() / "hcpp-pairwise-rehydrate";
  fs::remove_all(dir);
  Deployment d = Deployment::create(config(33));
  const std::vector<std::string> kws = first_keyword(d);
  ASSERT_TRUE(d.sserver->attach_store(dir.string()));

  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.attach_store(dir.string()));
  // The family's first round derives ν; its second round reuses it.
  Pairings first = pairings_during([&] {
    EXPECT_FALSE(d.family->emergency_retrieve(restored, kws).empty());
  });
  EXPECT_EQ(first.all, 1u);
  EXPECT_EQ(first.fixed, 1u);
  EXPECT_EQ(pairings_during([&] {
              EXPECT_FALSE(d.patient->retrieve(restored, kws).empty());
            }).all,
            0u);
  EXPECT_TRUE(restored.store_consistent());
  fs::remove_all(dir);
}

TEST(PairwiseKeys, PseudonymWithoutAccountPaysColdPathAndAddsNoState) {
  Deployment d = Deployment::create(config(34));
  // A valid pseudonym in the prime subgroup that never stored anything.
  Patient stranger(*d.net, "stranger", *d.rng);
  stranger.setup(*d.aserver, d.sserver->id());
  stranger.add_files({{1, "f", to_bytes("body"), {"kw"}}});
  const std::vector<std::string> kws = {"kw"};
  const size_t accounts = d.sserver->account_count();

  for (int i = 0; i < 3; ++i) {
    Pairings p = pairings_during([&] {
      EXPECT_FALSE(stranger.try_retrieve(*d.sserver, kws).ok());
    });
    EXPECT_EQ(p.all, 1u) << i;
    EXPECT_EQ(p.fixed, 1u) << i;
  }
  EXPECT_EQ(d.sserver->account_count(), accounts);
  EXPECT_EQ(d.sserver->snapshot_accounts().size(), accounts);
  EXPECT_EQ(d.sserver->role_key_count(), 0u);
}

TEST(PairwiseKeys, MalformedAndSmallSubgroupPseudonymsStayRefused) {
  Deployment d = Deployment::create(config(35));
  const curve::CurveCtx& ctx = d.aserver->ctx();
  const curve::Point low_order = small_subgroup_point(ctx);
  ASSERT_FALSE(low_order.infinity);
  ASSERT_FALSE(curve::in_prime_subgroup(ctx, low_order));

  // The small-subgroup requests carry the MAC a server without the guard
  // would accept, so only the guard refuses them.
  const Bytes poisoned = ibc::shared_key_with_point(
      ctx, d.aserver->provision(d.sserver->service_id()), low_order);
  const std::pair<Bytes, Bytes> cases[] = {
      {Bytes(7, 0xab), Bytes(32, 0)},
      {Bytes(d.patient->tp_bytes().size(), 0), Bytes(32, 0)},
      {curve::point_to_bytes(low_order), poisoned}};
  for (const auto& [tp, key] : cases) {
    RetrieveRequest req;
    req.tp = tp;
    req.collection = d.patient->collection();
    stamp(req, key, "phi-retrieval", d.net->clock().now());
    EXPECT_FALSE(d.sserver->handle_retrieve(req).has_value());
    MhiStoreRequest mhi;  // no collection: the TPp-prefix lookup path
    mhi.tp = tp;
    mhi.role_id = "role";
    stamp(mhi, key, "mhi-storage", d.net->clock().now());
    EXPECT_FALSE(d.sserver->handle_mhi_store(mhi));
  }
  EXPECT_EQ(d.sserver->account_count(), 1u);
  EXPECT_EQ(d.sserver->mhi_entry_count(), 0u);
}

TEST(PairwiseKeys, AccountNuMatchesColdOracles) {
  Deployment d = Deployment::create(config(37));
  const Bytes tp = d.patient->tp_bytes();
  const Bytes cold = d.sserver->shared_key_for(tp);
  EXPECT_EQ(cold, d.patient->shared_key_nu());
  EXPECT_EQ(cold, ibc::shared_key_with_id(d.aserver->ctx(),
                                          d.patient->pseudonym().gamma,
                                          d.sserver->service_id()));
  const auto snaps = d.sserver->snapshot_accounts();
  EXPECT_EQ(snaps.at(SServer::account_key(tp, d.patient->collection())).nu,
            cold);
}

// ---- snapshot ν on the batched privileged path ----------------------------

PrivilegedRetrieveRequest privileged_request(const Deployment& d,
                                             const SServer& server,
                                             const std::string& kw,
                                             uint64_t t) {
  const PrivilegeBundle& pb = d.family->bundle();
  const Bytes dkey = server.snapshot_accounts()
                         .at(SServer::account_key(pb.tp, pb.collection))
                         .d;
  PrivilegedRetrieveRequest req;
  req.tp = pb.tp;
  req.collection = pb.collection;
  sse::TrapdoorGen gen(pb.keys);
  req.wrapped_trapdoors.push_back(
      sse::wrap_trapdoor(dkey, gen.make(keyword_alias(kw, 0))));
  req.t = t;
  req.mac = protocol_mac(pb.nu, kPrivilegedRetrieveLabel, req.body(), req.t);
  return req;
}

TEST(PairwiseKeys, SnapshotNuAnswersLikeTheColdCoalescedPath) {
  Deployment d = Deployment::create(config(38));
  // Same accounts, one replica with account-bound ν, one re-imported (no ν
  // yet, so its snapshot sends every request down the coalesced path). The
  // two replicas keep separate replay caches.
  SServer cold(*d.net, *d.aserver, "replica-cold", d.sserver->service_id());
  ASSERT_TRUE(cold.import_state(d.sserver->export_state()));
  SearchService warm_svc, cold_svc;
  warm_svc.publish(*d.sserver);
  cold_svc.publish(cold);

  Patient stranger(*d.net, "stranger", *d.rng);
  stranger.setup(*d.aserver, d.sserver->service_id());
  const uint64_t now = d.net->clock().now();
  const std::vector<std::string> kws = d.all_keywords();
  std::vector<PrivilegedRetrieveRequest> reqs;
  reqs.push_back(privileged_request(d, *d.sserver, kws.front(), now));
  reqs.push_back(privileged_request(d, *d.sserver, kws.back(), now + 1));
  reqs.push_back(reqs.front());  // duplicate inside the batch
  PrivilegedRetrieveRequest bad_mac = reqs[1];
  bad_mac.t = now + 2;  // MAC no longer covers the timestamp
  reqs.push_back(bad_mac);
  PrivilegedRetrieveRequest unknown = reqs[1];  // valid ν, no account
  unknown.tp = stranger.tp_bytes();
  unknown.t = now + 3;
  unknown.mac = protocol_mac(stranger.shared_key_nu(), kPrivilegedRetrieveLabel,
                             unknown.body(), unknown.t);
  reqs.push_back(unknown);
  PrivilegedRetrieveRequest malformed = reqs[1];
  malformed.tp = Bytes(9, 0x11);
  reqs.push_back(malformed);

  std::vector<std::optional<RetrieveResponse>> warm, coldr;
  // Known accounts take ν off the snapshot; only the stranger is derived.
  EXPECT_EQ(pairings_during([&] {
              warm = warm_svc.search_batch_privileged(*d.sserver, reqs);
            }).all,
            1u);
  EXPECT_EQ(pairings_during([&] {
              coldr = cold_svc.search_batch_privileged(cold, reqs);
            }).all,
            2u);
  ASSERT_EQ(warm.size(), coldr.size());
  const bool expected[] = {true, true, false, false, false, false};
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].has_value(), expected[i]) << i;
    ASSERT_EQ(warm[i].has_value(), coldr[i].has_value()) << i;
    if (warm[i].has_value()) {
      EXPECT_EQ(warm[i]->to_wire(), coldr[i]->to_wire()) << i;
    }
  }
}

// ---- ρ bound to the role's live MHI state --------------------------------

TEST(PairwiseKeys, RoleKeyLivesWithRegistrationsAndDiesWithExpireRole) {
  Deployment d = Deployment::create(config(39));
  const std::string role = mhi_role_id("2011-04-12", "emergency", "area");
  auto key = d.on_duty->request_role_key(*d.aserver, role);
  ASSERT_TRUE(key.has_value());
  auto fetch = [&] {
    return pairings_during([&] {
      EXPECT_TRUE(d.on_duty->try_fetch_mhi_hits(*d.sserver, role, *key).ok());
    });
  };

  // No state for the role: the server derives ρ cold every time and keeps
  // nothing; the physician derives its side once, next to the held key.
  EXPECT_EQ(fetch().all, 2u);
  EXPECT_EQ(fetch().all, 1u);
  EXPECT_EQ(d.sserver->role_key_count(), 0u);

  ASSERT_TRUE(d.on_duty->register_mhi(*d.sserver, role, *key, "anomaly"));
  EXPECT_EQ(d.sserver->role_key_count(), 1u);
  EXPECT_EQ(fetch().all, 0u);

  EXPECT_EQ(d.sserver->mhi_hub().expire_role(role), 1u);
  EXPECT_EQ(d.sserver->role_key_count(), 0u);
  EXPECT_EQ(fetch().all, 1u);
  EXPECT_EQ(d.sserver->role_key_count(), 0u);
}

TEST(PairwiseKeys, RoleKeyLivesWithTheRolesStoredWindows) {
  Deployment d = Deployment::create(config(40));
  const std::string role = mhi_role_id("2011-04-12", "emergency", "area");
  auto key = d.on_duty->request_role_key(*d.aserver, role);
  ASSERT_TRUE(key.has_value());
  d.pdevice->collect_mhi(MhiWindow{"2011-04-12", {}});
  ASSERT_TRUE(d.pdevice->store_mhi(*d.aserver, *d.sserver, role, {}));
  EXPECT_EQ(d.sserver->role_key_count(), 0u);  // MHI store is ν-keyed

  EXPECT_EQ(d.on_duty->retrieve_mhi(*d.sserver, role, *key, "day:2011-04-12")
                .size(),
            1u);
  EXPECT_EQ(d.sserver->role_key_count(), 1u);
  // An unknown role still caches nothing.
  auto other = d.on_duty->request_role_key(*d.aserver, "other-role");
  ASSERT_TRUE(other.has_value());
  EXPECT_TRUE(
      d.on_duty->retrieve_mhi(*d.sserver, "other-role", *other, "x").empty());
  EXPECT_EQ(d.sserver->role_key_count(), 1u);
}

TEST(PairwiseKeys, HeldRoleKeyMatchesColdOracle) {
  Deployment d = Deployment::create(config(41));
  const std::string role = mhi_role_id("2011-04-12", "emergency", "area");
  auto key = d.on_duty->request_role_key(*d.aserver, role);
  ASSERT_TRUE(key.has_value());
  ASSERT_TRUE(d.on_duty->register_mhi(*d.sserver, role, *key, "anomaly"));
  ASSERT_EQ(d.sserver->role_key_count(), 1u);

  // A request MAC'd under the cold ρ is accepted by the warm server, and its
  // response authenticates under the cold ρ.
  const Bytes rho = ibc::shared_key_with_id(d.aserver->ctx(), *key,
                                            d.sserver->service_id());
  MhiHitsRequest req;
  req.physician_id = d.on_duty->id();
  req.role_id = role;
  stamp(req, rho, "mhi-hits", d.net->clock().now());
  std::optional<MhiHitsResponse> resp = d.sserver->handle_mhi_hits(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(mac_ok(*resp, rho, "mhi-hits"));
}

}  // namespace
}  // namespace hcpp::core
