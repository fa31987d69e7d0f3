// S-server durable state: export/import and file round-trips, with the
// protocols still working against the restored server, and the space bound
// of the attached store's write-through log.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "src/core/setup.h"
#include "src/store/store.h"

namespace hcpp::core {
namespace {

Deployment with_mhi(uint64_t seed) {
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = seed;
  Deployment d = Deployment::create(cfg);
  cipher::Drbg rng(to_bytes("persist-mhi-" + std::to_string(seed)));
  d.pdevice->collect_mhi(generate_mhi_window("2011-04-12", 30, rng));
  std::vector<std::string> extra;
  EXPECT_TRUE(d.pdevice->store_mhi(*d.aserver, *d.sserver,
                                   "2011-04-12|er|gnv", extra));
  return d;
}

TEST(Persistence, ExportImportRoundTrip) {
  Deployment d = with_mhi(90);
  Bytes state = d.sserver->export_state();
  EXPECT_FALSE(state.empty());

  // A fresh server process for the same hospital identity.
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  EXPECT_EQ(restored.account_count(), 0u);
  ASSERT_TRUE(restored.import_state(state));
  EXPECT_EQ(restored.account_count(), 1u);
  EXPECT_EQ(restored.mhi_entry_count(), 1u);
  EXPECT_EQ(restored.stored_bytes(), d.sserver->stored_bytes());

  // Protocols continue against the restored instance.
  std::vector<std::string> kws = {d.all_keywords().front()};
  EXPECT_EQ(d.patient->retrieve(restored, kws).size(),
            d.patient->keyword_index().entries.at(kws.front()).size());
  EXPECT_FALSE(d.family->emergency_retrieve(restored, kws).empty());
  auto role_key =
      d.on_duty->request_role_key(*d.aserver, "2011-04-12|er|gnv");
  ASSERT_TRUE(role_key.has_value());
  EXPECT_EQ(d.on_duty
                ->retrieve_mhi(restored, "2011-04-12|er|gnv", *role_key,
                               "day:2011-04-12")
                .size(),
            1u);
}

TEST(Persistence, FileRoundTrip) {
  Deployment d = with_mhi(91);
  std::filesystem::path path =
      std::filesystem::temp_directory_path() / "hcpp-sserver-state.bin";
  ASSERT_TRUE(d.sserver->save_to_file(path.string()));
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.load_from_file(path.string()));
  EXPECT_EQ(restored.account_count(), d.sserver->account_count());
  EXPECT_EQ(restored.mhi_entry_count(), d.sserver->mhi_entry_count());
  std::filesystem::remove(path);
}

TEST(Persistence, RejectsBadInput) {
  Deployment d = with_mhi(92);
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  EXPECT_FALSE(restored.import_state(to_bytes("garbage")));
  EXPECT_FALSE(restored.import_state(Bytes{}));
  Bytes state = d.sserver->export_state();
  // Wrong version byte.
  Bytes wrong_version = state;
  wrong_version[0] = 99;
  EXPECT_FALSE(restored.import_state(wrong_version));
  // Truncation.
  EXPECT_FALSE(restored.import_state(
      BytesView(state).subspan(0, state.size() / 2)));
  // Trailing junk.
  Bytes padded = state;
  padded.push_back(0);
  EXPECT_FALSE(restored.import_state(padded));
  // A failed import leaves the server untouched.
  EXPECT_EQ(restored.account_count(), 0u);
  EXPECT_FALSE(restored.load_from_file("/nonexistent/path/state.bin"));
}

TEST(Persistence, ImportReplacesExistingState) {
  Deployment a = with_mhi(93);
  Deployment b = with_mhi(94);
  Bytes state_a = a.sserver->export_state();
  // Server b adopts a's state wholesale.
  ASSERT_TRUE(b.sserver->import_state(state_a));
  EXPECT_EQ(b.sserver->stored_bytes(), a.sserver->stored_bytes());
  // b's old patient can no longer find their account (it was replaced)...
  std::vector<std::string> kws = {b.all_keywords().front()};
  EXPECT_TRUE(b.patient->retrieve(*b.sserver, kws).empty());
}

TEST(Persistence, StateIsAllCiphertext) {
  // The exported blob is exactly what a subpoena would produce; it must not
  // contain plaintext PHI.
  DeploymentConfig cfg;
  cfg.n_phi_files = 4;
  cfg.seed = 95;
  cfg.file_content_bytes = 64;
  Deployment d = Deployment::create(cfg);
  Bytes state = d.sserver->export_state();
  for (const sse::PlainFile& f : d.patient->files()) {
    auto it = std::search(state.begin(), state.end(), f.content.begin(),
                          f.content.begin() + 16);
    EXPECT_EQ(it, state.end());
  }
}

// ---- attached store: write-through space bound ------------------------------

TEST(Persistence, AttachedStoreCompactsOnceDeadOutweighsLive) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "hcpp-persist-bounded";
  fs::remove_all(dir);
  Deployment d = Deployment::create({.n_phi_files = 4, .seed = 9});
  ASSERT_TRUE(d.sserver->attach_store(dir.string()));
  const store::AccountStore& st = d.sserver->account_store();
  // 64 KiB bodies fill an 8 MiB segment in ~130 UPDATEs; every UPDATE leaves
  // the previous body dead and every COMPACT tombstones the folded log.
  constexpr size_t kBody = 64 << 10;
  const uint64_t segment_bytes = store::StoreOptions{}.segment_bytes;
  cipher::Drbg rng(to_bytes("bounded-store"));
  uint64_t written = 0;
  uint64_t compactions = 0;
  for (int round = 0; round < 480; ++round) {
    sse::PlainFile f = d.patient->files()[static_cast<size_t>(round) % 4];
    f.content = rng.bytes(kBody);
    ASSERT_TRUE(d.patient->update_phi(*d.sserver, {f}));
    written += kBody;
    if (round % 8 == 7) {
      ASSERT_TRUE(d.patient->compact_phi(*d.sserver));
    }
    const store::StoreStats s = st.stats();
    // The rule holds after every mutation, and a compaction leaves no
    // tombstone behind.
    EXPECT_TRUE(s.segments < 2 || s.dead_bytes <= s.live_bytes) << round;
    EXPECT_LE(s.total_bytes, segment_bytes + 2 * s.live_bytes + 2 * kBody)
        << round;
    if (s.compactions > compactions) {
      EXPECT_EQ(s.tombstones, 0u) << round;
    }
    compactions = s.compactions;
  }
  EXPECT_GE(compactions, 2u);
  EXPECT_LT(st.stats().total_bytes, written / 2);
  EXPECT_TRUE(d.sserver->store_consistent());

  // A fresh process hydrates exactly the same accounts.
  SServer restored(*d.net, *d.aserver, d.sserver->id());
  ASSERT_TRUE(restored.attach_store(dir.string()));
  EXPECT_TRUE(restored.store_consistent());
  EXPECT_EQ(restored.export_state(), d.sserver->export_state());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hcpp::core
