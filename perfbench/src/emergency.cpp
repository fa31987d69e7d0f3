// `emergency`: closed loop of break-the-glass incidents over ~32 patients,
// each with a family member and a P-device, and 4 on-duty physicians.
//
// Single incidents run the real client protocols: 80% the P-device path
// (button → passcode → deliver → enter → 4-message retrieve, appending TR
// and RD ledger entries) and 20% the family path (§IV.E.1). Every 16th
// incident slot is a mass-casualty burst of 16 simultaneous incidents with
// distinct patients: one AServer::handle_emergency_auth_batch, the P-devices
// take their passcode pushes, and the PHI comes back through
// SearchService::search_batch_privileged, both on a pool of
// hardware_concurrency threads. Burst requests are built the way
// tests/test_coalesce.cpp builds them. The small physician set makes the
// coalescer's H1 cache hit; distinct patients make its ν dedup miss.
#include "harness.h"
#include "src/core/privilege.h"
#include "src/core/search_service.h"
#include "src/curve/params.h"
#include "src/ibc/ibs.h"
#include "src/par/pool.h"

namespace hcpp::perfbench {

namespace {

constexpr size_t kPatients = 32;
constexpr size_t kPhysicians = 4;
constexpr size_t kBurst = 16;
constexpr uint64_t kBurstEvery = 16;  // incident slots per burst

class Emergency final : public Workload {
 public:
  Emergency(uint64_t seed, const std::string& dir)
      : net_(std::make_unique<sim::Network>()),
        rng_(seeded_rng(seed, "emergency/setup")),
        ops_rng_(seeded_rng(seed, "emergency/ops")),
        dir_(dir),
        pool_(0, "perfbench-burst") {
    const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kProduction);
    aserver_ = std::make_unique<core::AServer>(*net_, ctx, "state-a-server",
                                               rng_);
    server_ = std::make_unique<core::SServer>(*net_, *aserver_,
                                              "hospital-s-server");
    for (size_t i = 0; i < kPhysicians; ++i) {
      std::string id = "dr-" + std::to_string(i);
      physicians_.push_back(
          std::make_unique<core::Physician>(*net_, *aserver_, id));
      aserver_->set_on_duty(id, true);
      // The burst signs its requests directly with the provisioned key,
      // exactly as the coalescing tests do.
      signing_keys_.push_back(aserver_->provision(id));
    }
    for (size_t i = 0; i < kPatients; ++i) {
      Member m;
      std::string n = std::to_string(i);
      m.patient = std::make_unique<core::Patient>(*net_, "patient-" + n, rng_);
      m.patient->setup(*aserver_, server_->id());
      m.patient->add_files(
          core::generate_phi_collection(24, m.patient->rng(), 1, 3, 512));
      if (!m.patient->store_phi(*server_)) {
        throw std::runtime_error("emergency: store_phi failed");
      }
      m.family = std::make_unique<core::Family>(*net_, "family-" + n);
      m.device = std::make_unique<core::PDevice>(*net_, "p-device-" + n, rng_);
      if (!core::assign_privilege(*m.patient, *m.family, rng_.bytes(32)) ||
          !core::assign_privilege(*m.patient, *m.device, rng_.bytes(32))) {
        throw std::runtime_error("emergency: ASSIGN failed");
      }
      m.dictionary = m.patient->keyword_index().dictionary();
      members_.push_back(std::move(m));
    }
    // The current privilege key d comes off the server snapshot, as in the
    // coalescing tests (nothing re-keys d during this workload).
    auto snaps = server_->snapshot_accounts();
    for (Member& m : members_) {
      m.d = snaps.at(core::SServer::account_key(m.patient->tp_bytes(),
                                                 m.patient->collection()))
                .d;
    }
    search_ = std::make_unique<core::SearchService>(&pool_);
    search_->publish(*server_);
  }

  void step(Recorder& rec) override {
    if (slot_++ % kBurstEvery == kBurstEvery - 1) {
      const BurstPlan plan = plan_burst();
      rec.op("burst", kBurst,
             [&] { return run_burst(plan, &pool_, *search_); });
      return;
    }
    Member& m = members_[uniform(ops_rng_, members_.size())];
    std::vector<std::string> kws = pick_keywords(m.dictionary, 2, ops_rng_);
    const std::vector<sse::PlainFile> want =
        files_with_any(m.patient->files(), kws);
    if (uniform(ops_rng_, 100) < 80) {
      core::Physician& dr = *physicians_[uniform(ops_rng_, kPhysicians)];
      rec.op("incident", 1, [&]() -> uint64_t {
        const bool authed = rec.sub("pdevice_auth", [&] {
          m.device->press_emergency_button();
          std::optional<core::Physician::PasscodeResult> pc =
              dr.request_passcode(*aserver_, m.device->bundle().tp);
          return pc.has_value() &&
                 m.device->deliver_passcode(*aserver_, pc->for_device) &&
                 m.device->enter_passcode(dr.id(), pc->nonce);
        });
        if (!authed) return 1;
        return rec.sub("pdevice_retrieve", [&]() -> uint64_t {
          auto got = m.device->try_emergency_retrieve(*server_, kws);
          return got.ok() && same_files(got.value(), want) ? 0 : 1;
        });
      });
    } else {
      rec.op("family", 1, [&]() -> uint64_t {
        auto got = m.family->try_emergency_retrieve(*server_, kws);
        return got.ok() && same_files(got.value(), want) ? 0 : 1;
      });
    }
  }

  void finish(Recorder&) override {}

  uint64_t throughput_weight(const std::string& cls) const override {
    return cls == "burst" ? kBurst : 1;
  }

  Classes latency_classes() const override {
    // Medians: these ops' p90 follows how long the host's slow spells last
    // (spread 0.33-0.44 over ten seeds where the median's was 0.10-0.12).
    return {{"incident", 0.5}, {"family", 0.5}, {"burst", 0.5}};
  }

  void layers(const Recorder& rec, Metrics& m) override {
    const ClassStats& b = rec.cls("burst");
    m.set("coalesce.pairings_saved_per_burst",
          b.ops == 0 ? 0.0
                     : static_cast<double>(b.counts.coalesce_saved) /
                           static_cast<double>(b.ops),
          "count");
    // The same burst path, serial vs on the full pool.
    par::ThreadPool one(1, "perfbench-burst-1");
    core::SearchService serial_search(&one);
    serial_search.publish(*server_);
    std::vector<double> t1, tn;
    for (int i = 0; i < 3; ++i) {
      const BurstPlan serial = plan_burst();
      uint64_t t0 = now_ns();
      uint64_t f1 = run_burst(serial, &one, serial_search);
      t1.push_back(static_cast<double>(now_ns() - t0));
      const BurstPlan pooled = plan_burst();
      t0 = now_ns();
      uint64_t fn = run_burst(pooled, &pool_, *search_);
      tn.push_back(static_cast<double>(now_ns() - t0));
      if (f1 + fn != 0) {
        throw std::runtime_error("emergency: probe burst failed");
      }
    }
    m.set("par.burst_speedup", median(t1) / median(tn), "ratio");
  }

  ProbeInputs probe_inputs() override {
    Member& m = members_.front();
    ProbeInputs in;
    in.aserver = aserver_.get();
    in.server = server_.get();
    in.patient = m.patient.get();
    in.physician_id = physicians_.front()->id();
    in.role_id = core::mhi_role_id("2011-04-12", "emergency", "gainesville");
    in.keywords = {m.dictionary.front(), m.dictionary.back()};
    in.scratch_dir = dir_;
    return in;
  }

 private:
  struct Member {
    std::unique_ptr<core::Patient> patient;
    std::unique_ptr<core::Family> family;
    std::unique_ptr<core::PDevice> device;
    Bytes d;
    std::vector<std::string> dictionary;
  };

  /// The inputs of one burst, made before the clock starts: 16 distinct
  /// patients, their keywords and expected PHI, and the physicians' signed
  /// step-1 requests (each signed on its own workstation in reality).
  struct BurstPlan {
    std::vector<size_t> ids;
    std::vector<std::vector<std::string>> kws;
    std::vector<std::vector<sse::PlainFile>> want;
    std::vector<core::EmergencyAuthRequest> auth;
  };

  BurstPlan plan_burst() {
    // The batched handlers are called directly, so no message advances the
    // simulated clock; step it so successive bursts carry fresh timestamps.
    net_->clock().advance(1'000'000);
    BurstPlan p;
    p.ids.resize(members_.size());
    for (size_t i = 0; i < p.ids.size(); ++i) p.ids[i] = i;
    for (size_t i = 0; i < kBurst; ++i) {
      std::swap(p.ids[i], p.ids[i + uniform(ops_rng_, p.ids.size() - i)]);
    }
    p.ids.resize(kBurst);
    const curve::CurveCtx& ctx = aserver_->ctx();
    p.auth.resize(kBurst);
    for (size_t i = 0; i < kBurst; ++i) {
      const Member& m = members_[p.ids[i]];
      p.kws.push_back(pick_keywords(m.dictionary, 2, ops_rng_));
      p.want.push_back(files_with_any(m.patient->files(), p.kws.back()));
      const size_t dr = (burst_cursor_ + i) % kPhysicians;
      core::EmergencyAuthRequest& req = p.auth[i];
      req.physician_id = physicians_[dr]->id();
      req.tp = m.patient->tp_bytes();
      req.t = net_->clock().now();
      req.sig = ibc::ibs_sign(ctx, signing_keys_[dr], req.physician_id,
                              req.body(), ops_rng_)
                    .to_bytes();
    }
    ++burst_cursor_;
    return p;
  }

  /// Runs a planned burst: one batched emergency authentication, the
  /// P-devices' passcode pushes, one batched privileged search. Returns how
  /// many incidents failed (not accepted, push rejected, or wrong PHI).
  uint64_t run_burst(const BurstPlan& p, par::ThreadPool* pool,
                     const core::SearchService& search) {
    const std::vector<size_t>& ids = p.ids;
    const auto& kws = p.kws;
    const auto& want = p.want;
    auto outcomes = aserver_->handle_emergency_auth_batch(p.auth, pool);

    std::vector<uint8_t> failed(kBurst, 0);
    std::vector<core::PrivilegedRetrieveRequest> reqs(kBurst);
    for (size_t i = 0; i < kBurst; ++i) {
      Member& m = members_[ids[i]];
      m.device->press_emergency_button();
      if (!outcomes[i].has_value() ||
          !m.device->deliver_passcode(*aserver_, outcomes[i]->to_pdevice)) {
        failed[i] = 1;
      }
      const core::PrivilegeBundle& pb = m.device->bundle();
      reqs[i].tp = pb.tp;
      reqs[i].collection = pb.collection;
      sse::TrapdoorGen gen(pb.keys);
      for (const std::string& kw : kws[i]) {
        reqs[i].wrapped_trapdoors.push_back(
            sse::wrap_trapdoor(m.d, gen.make(core::keyword_alias(kw, 0))));
      }
      reqs[i].t = net_->clock().now();
      reqs[i].mac = core::protocol_mac(pb.nu, core::kPrivilegedRetrieveLabel,
                                       reqs[i].body(), reqs[i].t);
    }
    auto resps = search.search_batch_privileged(*server_, reqs);
    uint64_t n_failed = 0;
    for (size_t i = 0; i < kBurst; ++i) {
      const core::PrivilegeBundle& pb = members_[ids[i]].device->bundle();
      bool ok = failed[i] == 0 && resps[i].has_value() &&
                core::protocol_mac_ok(pb.nu, core::kPrivilegedRetrieveLabel,
                                      resps[i]->body(), resps[i]->t,
                                      resps[i]->mac);
      if (ok) {
        std::vector<sse::PlainFile> got;
        for (const auto& [fid, blob] : resps[i]->files) {
          got.push_back(sse::decrypt_file(pb.keys, blob));
        }
        ok = same_files(std::move(got), want[i]);
      }
      n_failed += ok ? 0 : 1;
    }
    return n_failed;
  }

  std::unique_ptr<sim::Network> net_;
  cipher::Drbg rng_;
  cipher::Drbg ops_rng_;
  std::string dir_;
  par::ThreadPool pool_;
  std::unique_ptr<core::AServer> aserver_;
  std::unique_ptr<core::SServer> server_;
  std::unique_ptr<core::SearchService> search_;
  std::vector<std::unique_ptr<core::Physician>> physicians_;
  std::vector<curve::Point> signing_keys_;
  std::vector<Member> members_;
  uint64_t slot_ = 0;
  size_t burst_cursor_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_emergency(uint64_t seed,
                                         const std::string& dir) {
  return std::make_unique<Emergency>(seed, dir);
}

}  // namespace hcpp::perfbench
