// `routine`: the everyday owner traffic of a hospital — closed loop, one
// client, against ~64 real patients on a 4-shard SServerGroup with
// persistent stores attached (default flush policy, no fdatasync).
//
// Mix: 60% owner retrieve (§IV.D, 1–3 keywords), 25% UPDATE (edit one file),
// 5% full re-store (§IV.B), 5% REVOKE + re-ASSIGN (§IV.C), 5% COMPACT. A
// patient also compacts as soon as it has 16 pending updates. Writes run
// beside reads so a read-path gain that costs the write path shows up.
#include <filesystem>

#include "harness.h"
#include "src/core/cluster.h"
#include "src/core/privilege.h"
#include "src/curve/params.h"
#include "src/par/pool.h"

namespace hcpp::perfbench {

namespace {

constexpr size_t kPatients = 64;
constexpr size_t kShards = 4;
constexpr size_t kFiles = 24;
constexpr size_t kKeywordsPerFile = 3;
constexpr size_t kFileBytes = 512;
constexpr size_t kCompactAt = 16;
// Broadcast-encryption leaves per patient (Patient::setup's group). The
// P-device slot stays live, so the family can be re-ASSIGNed to the other
// six after its current slot is revoked.
constexpr size_t kBeSlots = 8;

class Routine final : public Workload {
 public:
  Routine(uint64_t seed, const std::string& dir)
      : net_(std::make_unique<sim::Network>()),
        rng_(seeded_rng(seed, "routine/setup")),
        ops_rng_(seeded_rng(seed, "routine/ops")),
        dir_(dir) {
    const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kProduction);
    aserver_ = std::make_unique<core::AServer>(*net_, ctx, "state-a-server",
                                               rng_);
    group_ = std::make_unique<core::SServerGroup>(
        *net_, *aserver_, "hospital-s-server", kShards,
        core::SServerGroup::Placement::kSharded);
    if (!group_->attach_stores(dir + "/stores")) {
      throw std::runtime_error("routine: attach_stores failed");
    }
    for (size_t i = 0; i < kPatients; ++i) {
      Member m;
      m.patient = std::make_unique<core::Patient>(
          *net_, "patient-" + std::to_string(i), rng_);
      m.patient->setup(*aserver_, group_->service_id());
      m.patient->add_files(core::generate_phi_collection(
          kFiles, m.patient->rng(), 1, kKeywordsPerFile, kFileBytes));
      if (!m.patient->store_phi(*group_).ok()) {
        throw std::runtime_error("routine: store_phi failed");
      }
      m.family = std::make_unique<core::Family>(
          *net_, "family-" + std::to_string(i));
      m.mu = rng_.bytes(32);
      if (!core::assign_privilege(*m.patient, *m.family, m.mu)) {
        throw std::runtime_error("routine: ASSIGN failed");
      }
      m.family_slot = core::kFamilySlot;
      m.dictionary = m.patient->keyword_index().dictionary();
      members_.push_back(std::move(m));
    }
  }

  void step(Recorder& rec) override {
    const uint64_t r = uniform(ops_rng_, 100);
    Member& m = members_[uniform(ops_rng_, members_.size())];
    if (r < 60) {
      retrieve(rec, m);
    } else if (r < 85) {
      update(rec, m);
    } else if (r < 90) {
      rec.op("store", 1, [&]() -> uint64_t {
        bool ok = m.patient->store_phi(*group_).ok();
        m.pending = 0;
        return ok ? 0 : 1;
      });
    } else if (r < 95) {
      revoke_reassign(rec);
    } else {
      Member* most = &members_.front();
      for (Member& c : members_) {
        if (c.pending > most->pending) most = &c;
      }
      compact(rec, *most);
    }
  }

  void finish(Recorder& rec) override {
    for (size_t i = 0; i < group_->size(); ++i) {
      rec.check(group_->replica(i).store_consistent());
    }
    std::printf("# revoke_budget_exhausted=%llu\n",
                static_cast<unsigned long long>(revoke_exhausted_));
  }

  uint64_t throughput_weight(const std::string&) const override { return 1; }

  Classes latency_classes() const override {
    return {{"retrieve", 0.9}, {"update", 0.9}, {"store", 0.9}};
  }

  void layers(const Recorder&, Metrics& m) override {
    m.set("sse.log_depth_mean",
          depth_samples_ == 0 ? 0.0
                              : static_cast<double>(depth_sum_) /
                                    static_cast<double>(depth_samples_),
          "count");
    uint64_t disk = 0;
    for (size_t i = 0; i < group_->size(); ++i) {
      disk += group_->replica(i).account_store().stats().total_bytes;
    }
    uint64_t user = 0;
    for (const Member& mb : members_) {
      for (const sse::PlainFile& f : mb.patient->files()) {
        user += f.content.size();
      }
    }
    m.set("store.bytes_per_user_byte",
          user == 0 ? 0.0
                    : static_cast<double>(disk) / static_cast<double>(user),
          "ratio");
    m.set("par.burst_speedup", index_build_speedup(), "ratio");
  }

  ProbeInputs probe_inputs() override {
    Member& m = members_.front();
    ProbeInputs in;
    in.aserver = aserver_.get();
    in.server = &group_->shard_for(m.patient->tp_bytes());
    in.patient = m.patient.get();
    in.physician_id = "dr-routine-probe";
    in.role_id = core::mhi_role_id("2011-04-12", "emergency", "gainesville");
    in.keywords = {m.dictionary.front(), m.dictionary.back()};
    in.scratch_dir = dir_;
    return in;
  }

 private:
  struct Member {
    std::unique_ptr<core::Patient> patient;
    std::unique_ptr<core::Family> family;
    Bytes mu;
    size_t family_slot = 0;
    size_t revoked = 0;
    size_t pending = 0;  // UPDATEs since the last store/compaction
    std::vector<std::string> dictionary;
  };

  void retrieve(Recorder& rec, Member& m) {
    std::vector<std::string> kws = pick_keywords(m.dictionary, 3, ops_rng_);
    for (const std::string& kw : kws) {
      auto it = m.patient->update_state().counters.find(
          core::keyword_alias(kw, 0));
      if (it != m.patient->update_state().counters.end()) {
        depth_sum_ += it->second;
      }
      ++depth_samples_;
    }
    const std::vector<sse::PlainFile> want =
        files_with_any(m.patient->files(), kws);
    rec.op("retrieve", 1, [&]() -> uint64_t {
      core::Result<std::vector<sse::PlainFile>> got =
          m.patient->retrieve(*group_, kws);
      return got.ok() && same_files(got.value(), want) ? 0 : 1;
    });
  }

  void update(Recorder& rec, Member& m) {
    const auto& files = m.patient->files();
    sse::PlainFile edited = files[uniform(ops_rng_, files.size())];
    edited.content = ops_rng_.bytes(kFileBytes);
    rec.op("update", 1, [&]() -> uint64_t {
      return m.patient->try_update_phi(*group_, {edited}).ok() ? 0 : 1;
    });
    if (++m.pending >= kCompactAt) compact(rec, m);
  }

  void compact(Recorder& rec, Member& m) {
    rec.op("compact", 1, [&]() -> uint64_t {
      bool ok = m.patient
                    ->try_compact_phi(group_->shard_for(m.patient->tp_bytes()))
                    .ok();
      m.pending = 0;
      return ok ? 0 : 1;
    });
  }

  /// REVOKE the family's slot and re-ASSIGN it a fresh one, round-robin over
  /// the patients that still have a spare broadcast-encryption slot.
  void revoke_reassign(Recorder& rec) {
    Member* m = nullptr;
    for (size_t i = 0; i < members_.size() && m == nullptr; ++i) {
      Member& c = members_[(revoke_cursor_ + i) % members_.size()];
      if (c.revoked + 2 < kBeSlots) m = &c;
    }
    if (m == nullptr) {
      // Every patient used its spare slots: the op becomes a retrieve.
      ++revoke_exhausted_;
      retrieve(rec, members_[uniform(ops_rng_, members_.size())]);
      return;
    }
    revoke_cursor_ = static_cast<size_t>(m - members_.data()) + 1;
    rec.op("revoke_assign", 1, [&]() -> uint64_t {
      if (!m->patient->revoke_member(*group_, m->family_slot).ok()) return 1;
      ++m->revoked;
      m->family_slot = next_slot(m->family_slot);
      Bytes sealed = m->patient->make_sealed_bundle(m->family_slot, m->mu);
      return m->family->receive_bundle(sealed, m->mu) ? 0 : 1;
    });
  }

  static size_t next_slot(size_t slot) {
    size_t s = (slot + 1) % kBeSlots;
    return s == core::kPDeviceSlot ? s + 1 : s;
  }

  /// The par layer as this workload would use it: one patient's index build
  /// serial vs on a pool of hardware_concurrency threads.
  double index_build_speedup() {
    const core::Patient& p = *members_.front().patient;
    const auto aliased =
        core::apply_keyword_aliases(p.files(), p.keyword_aliases());
    cipher::Drbg rng(to_bytes("routine-par-probe"));
    par::ThreadPool one(1, "perfbench-1");
    par::ThreadPool all(0, "perfbench-n");
    auto time_with = [&](par::ThreadPool& pool) {
      std::vector<double> t;
      for (int i = 0; i < 7; ++i) {
        const uint64_t t0 = now_ns();
        (void)sse::build_index(aliased, p.keys(), rng, 1.25, &pool);
        t.push_back(static_cast<double>(now_ns() - t0));
      }
      return median(t);
    };
    const double serial = time_with(one);
    return serial / time_with(all);
  }

  std::unique_ptr<sim::Network> net_;
  cipher::Drbg rng_;
  cipher::Drbg ops_rng_;
  std::string dir_;
  std::unique_ptr<core::AServer> aserver_;
  std::unique_ptr<core::SServerGroup> group_;
  std::vector<Member> members_;
  size_t revoke_cursor_ = 0;
  uint64_t revoke_exhausted_ = 0;
  uint64_t depth_sum_ = 0;
  uint64_t depth_samples_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_routine(uint64_t seed, const std::string& dir) {
  return std::make_unique<Routine>(seed, dir);
}

}  // namespace hcpp::perfbench
