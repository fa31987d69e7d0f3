// `mhi_stream`: closed loop over 16 P-devices streaming body-area-network
// windows (PDevice::stream_mhi) for one role epoch, after RSPP. Each window
// carries two PEKS tags, its day keyword plus an anomaly keyword
// ("vitals:anomalous" or "vitals:normal", so the tag count does not leak
// the anomaly). 4 on-duty physicians hold standing registrations: two on
// "vitals:anomalous", two on risk keywords no window carries. Every 8
// windows each physician drains its hits (fetch_mhi_hits). Every 256
// windows the epoch rolls: a new day, expire_role, new role keys and
// re-registration — so the cold per-epoch pairings count at a realistic
// cadence; a device's first window of an epoch, which pays them, is its own
// op class (window_cold). The hub shards its batched final exponentiations
// onto a pool of kPoolThreads threads (attach_mhi_pool).
#include <set>

#include "harness.h"
#include "src/core/privilege.h"
#include "src/curve/params.h"
#include "src/par/pool.h"

namespace hcpp::perfbench {

namespace {

constexpr size_t kDevices = 16;
constexpr size_t kSamplesPerWindow = 16;
constexpr double kAnomalyRate = 0.01;  // per sample: ~15% of windows
constexpr uint64_t kFetchEvery = 8;
constexpr uint64_t kEpochWindows = 256;
// Two pool threads beside the blocked caller leave the shared host headroom:
// a pool as wide as nproc made each window wait on whichever thread the host
// descheduled (window p50 spread 0.25 vs 0.07 over five interleaved seeds).
constexpr size_t kPoolThreads = 2;
const char* const kAnomalous = "vitals:anomalous";
const char* const kNormal = "vitals:normal";
const char* const kRegistrations[] = {kAnomalous, kAnomalous, "risk:cardiac",
                                      "risk:stroke"};

std::string day_name(uint64_t epoch) {
  // A new calendar-like day per epoch; only uniqueness matters.
  return "2011-" + std::to_string(4 + epoch / 28) + "-" +
         std::to_string(1 + epoch % 28);
}

bool anomalous(const core::MhiWindow& w) {
  for (const core::MhiSample& s : w.samples) {
    if (s.anomaly) return true;
  }
  return false;
}

/// Exact value identity of a decoded window (day, then every sample field).
std::string window_key(const core::MhiWindow& w) {
  std::string k = w.day;
  for (const core::MhiSample& s : w.samples) {
    const double v[] = {s.heart_rate_bpm, s.systolic_mmhg, s.diastolic_mmhg};
    k.append(reinterpret_cast<const char*>(&s.t_ns), sizeof s.t_ns);
    k.append(reinterpret_cast<const char*>(v), sizeof v);
    k.push_back(s.anomaly ? '1' : '0');
  }
  return k;
}

class MhiStream final : public Workload {
 public:
  MhiStream(uint64_t seed, const std::string& dir)
      : net_(std::make_unique<sim::Network>()),
        rng_(seeded_rng(seed, "mhi_stream/setup")),
        ops_rng_(seeded_rng(seed, "mhi_stream/ops")),
        dir_(dir),
        pool_(kPoolThreads, "perfbench-mhi") {
    const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kProduction);
    aserver_ = std::make_unique<core::AServer>(*net_, ctx, "state-a-server",
                                               rng_);
    server_ = std::make_unique<core::SServer>(*net_, *aserver_,
                                              "hospital-s-server");
    server_->attach_mhi_pool(&pool_);
    for (size_t i = 0; i < std::size(kRegistrations); ++i) {
      Doctor d;
      d.physician = std::make_unique<core::Physician>(
          *net_, *aserver_, "dr-" + std::to_string(i));
      d.keyword = kRegistrations[i];
      aserver_->set_on_duty(d.physician->id(), true);
      doctors_.push_back(std::move(d));
    }
    for (size_t i = 0; i < kDevices; ++i) {
      Device dv;
      std::string n = std::to_string(i);
      dv.patient = std::make_unique<core::Patient>(*net_, "patient-" + n, rng_);
      dv.patient->setup(*aserver_, server_->id());
      dv.patient->add_files(
          core::generate_phi_collection(24, dv.patient->rng(), 1, 3, 512));
      if (!dv.patient->store_phi(*server_)) {
        throw std::runtime_error("mhi_stream: store_phi failed");
      }
      dv.device = std::make_unique<core::PDevice>(*net_, "p-device-" + n, rng_);
      if (!core::assign_privilege(*dv.patient, *dv.device, rng_.bytes(32))) {
        throw std::runtime_error("mhi_stream: ASSIGN failed");
      }
      devices_.push_back(std::move(dv));
    }
    if (register_epoch(nullptr) != 0) {
      throw std::runtime_error("mhi_stream: initial registration failed");
    }
  }

  void step(Recorder& rec) override {
    if (windows_ > 0 && windows_ % kFetchEvery == 0 && !fetched_) {
      fetched_ = true;
      for (Doctor& d : doctors_) fetch(rec, d);
      if (windows_ % kEpochWindows == 0) roll_epoch(rec);
      return;
    }
    fetched_ = false;
    Device& dv = devices_[windows_ % kDevices];
    const core::MhiWindow win = core::generate_mhi_window(
        day_, kSamplesPerWindow, ops_rng_, kAnomalyRate);
    const bool hot = anomalous(win);
    const std::vector<std::string> extra = {hot ? kAnomalous : kNormal};
    // A device's first window of an epoch pays the per-epoch pairings.
    const bool cold = dv.warm_epoch != epoch_;
    dv.warm_epoch = epoch_;
    rec.op(cold ? "window_cold" : "window", 1, [&]() -> uint64_t {
      return dv.device->stream_mhi(*aserver_, *server_, role_, win, extra) ? 0
                                                                           : 1;
    });
    ++windows_;
    if (hot) {
      // Compare against the window as the wire carries it (centi-unit
      // fixed point); re-encoding a decoded window is not byte-stable.
      const std::string b =
          window_key(core::MhiWindow::from_bytes(win.to_bytes()));
      for (Doctor& d : doctors_) {
        if (d.keyword == kAnomalous) d.pending.insert(b);
      }
    }
  }

  /// Windows an anomaly-registered physician never received count as
  /// failed window ops.
  void finish(Recorder& rec) override {
    for (Doctor& d : doctors_) fetch(rec, d);
    for (Doctor& d : doctors_) {
      for (size_t i = 0; i < d.pending.size(); ++i) rec.check(false);
      d.pending.clear();
    }
    std::printf("# hits_delivered=%llu\n",
                static_cast<unsigned long long>(hits_delivered_));
  }

  uint64_t throughput_weight(const std::string& cls) const override {
    return cls == "window" || cls == "window_cold" ? 1 : 0;
  }

  Classes latency_classes() const override {
    // Windows run their hub ingest on the pool, so their p90 is set by
    // pool stragglers on a shared host; the median is the steadier figure.
    return {{"window", 0.5}, {"fetch", 0.5}, {"window_cold", 0.5}};
  }

  void layers(const Recorder& rec, Metrics& m) override {
    uint64_t windows = 0, tested = 0, hits = 0;
    for (const char* cls : {"window", "window_cold"}) {
      const ClassStats& w = rec.cls(cls);
      windows += w.ops;
      tested += w.counts.mhi_tags_tested;
      hits += w.counts.mhi_hits;
    }
    m.set("mhi.tags_tested_per_window",
          windows == 0 ? 0.0
                       : static_cast<double>(tested) /
                             static_cast<double>(windows),
          "count");
    m.set("mhi.hit_ratio",
          tested == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(tested),
          "ratio");
    m.set("par.burst_speedup", ingest_speedup(), "ratio");
  }

  ProbeInputs probe_inputs() override {
    const core::Patient& p = *devices_.front().patient;
    ProbeInputs in;
    in.aserver = aserver_.get();
    in.server = server_.get();
    in.patient = &p;
    in.physician_id = doctors_.front().physician->id();
    in.role_id = role_;
    const auto dict = p.keyword_index().dictionary();
    in.keywords = {dict.front(), dict.back()};
    in.scratch_dir = dir_;
    return in;
  }

 private:
  struct Doctor {
    std::unique_ptr<core::Physician> physician;
    std::string keyword;
    curve::Point role_key;
    std::multiset<std::string> pending;  // anomalous windows not delivered
  };
  struct Device {
    std::unique_ptr<core::Patient> patient;
    std::unique_ptr<core::PDevice> device;
    uint64_t warm_epoch = ~uint64_t{0};  // epoch of its last streamed window
  };

  /// New role identity for the current day; every physician fetches its
  /// role key (2 messages) and re-registers its standing query. Returns the
  /// number of physicians that failed.
  uint64_t register_epoch(Recorder* rec) {
    day_ = day_name(epoch_);
    role_ = core::mhi_role_id(day_, "emergency", "gainesville");
    uint64_t failed = 0;
    for (Doctor& d : doctors_) {
      auto get_key = [&] {
        return d.physician->request_role_key(*aserver_, role_);
      };
      std::optional<curve::Point> key =
          rec != nullptr ? rec->sub("role_key", get_key) : get_key();
      if (!key.has_value() ||
          !d.physician->register_mhi(*server_, role_, *key, d.keyword)) {
        ++failed;
        continue;
      }
      d.role_key = *key;
    }
    return failed;
  }

  void roll_epoch(Recorder& rec) {
    rec.op("rollover", 1, [&]() -> uint64_t {
      server_->mhi_hub().expire_role(role_);
      ++epoch_;
      return register_epoch(&rec) == 0 ? 0 : 1;
    });
  }

  /// Drains one physician's hits. Every hit must be a pending anomalous
  /// window of the current day (the registered keyword's windows).
  void fetch(Recorder& rec, Doctor& d) {
    rec.op("fetch", 1, [&]() -> uint64_t {
      core::Result<std::vector<core::MhiWindow>> hits =
          d.physician->try_fetch_mhi_hits(*server_, role_, d.role_key);
      if (!hits.ok()) return 1;
      uint64_t bad = 0;
      for (const core::MhiWindow& w : hits.value()) {
        auto it = d.pending.find(window_key(w));
        if (it == d.pending.end() || w.day != day_ || !anomalous(w)) {
          ++bad;
          continue;
        }
        d.pending.erase(it);
        ++hits_delivered_;
      }
      return bad == 0 ? 0 : 1;
    });
  }

  /// The hub's ingest path serial vs on the full pool: one window's tags
  /// tested against the standing registrations.
  double ingest_speedup() {
    const curve::CurveCtx& ctx = aserver_->ctx();
    core::MhiStreamHub hub(ctx);
    for (const Doctor& d : doctors_) {
      hub.register_trapdoor(d.physician->id(), role_,
                            peks::peks_trapdoor(ctx, d.role_key, d.keyword));
    }
    core::MhiIngestor ingestor(aserver_->pub(), role_);
    cipher::Drbg rng(to_bytes("mhi-par-probe"));
    const core::MhiWindow win =
        core::generate_mhi_window(day_, kSamplesPerWindow, rng, 1.0);
    const std::vector<std::string> extra = {kAnomalous};
    core::MhiIngestor::EncodedWindow enc = ingestor.encode(win, extra, rng);
    std::vector<peks::PeksCiphertext> tags;
    for (const Bytes& t : enc.peks_tags) {
      tags.push_back(peks::PeksCiphertext::from_bytes(ctx, t));
    }
    par::ThreadPool one(1, "perfbench-mhi-1");
    auto time_with = [&](par::ThreadPool* pool) {
      std::vector<double> t;
      for (int i = 0; i < 9; ++i) {
        const uint64_t t0 = now_ns();
        (void)hub.ingest(role_, tags, enc.ibe_blob, pool);
        t.push_back(static_cast<double>(now_ns() - t0));
        for (const Doctor& d : doctors_) {
          (void)hub.drain_hits(d.physician->id());
        }
      }
      return median(t);
    };
    const double serial = time_with(&one);
    return serial / time_with(&pool_);
  }

  std::unique_ptr<sim::Network> net_;
  cipher::Drbg rng_;
  cipher::Drbg ops_rng_;
  std::string dir_;
  par::ThreadPool pool_;
  std::unique_ptr<core::AServer> aserver_;
  std::unique_ptr<core::SServer> server_;
  std::vector<Doctor> doctors_;
  std::vector<Device> devices_;
  uint64_t epoch_ = 0;
  std::string day_;
  std::string role_;
  uint64_t windows_ = 0;
  bool fetched_ = false;
  uint64_t hits_delivered_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_mhi_stream(uint64_t seed,
                                          const std::string& dir) {
  return std::make_unique<MhiStream>(seed, dir);
}

}  // namespace hcpp::perfbench
