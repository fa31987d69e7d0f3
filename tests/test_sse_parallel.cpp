// Parallel-vs-serial equivalence oracles for the SSE hot paths (DESIGN.md
// §9): index build, collection AEAD and trapdoor unwrapping must be
// *reproducible* for a fixed seed + thread count, and must answer searches
// identically across thread counts. Plus the concurrent SEARCH front-end
// (core::SearchService) against the live protocol handlers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "src/cipher/chacha20.h"
#include "src/cipher/drbg.h"
#include "src/core/record.h"
#include "src/core/search_service.h"
#include "src/core/setup.h"
#include "src/par/pool.h"
#include "src/prf/feistel.h"
#include "src/sse/sse.h"

namespace hcpp::sse {
namespace {

std::vector<PlainFile> sample_files(size_t n, std::string_view seed) {
  cipher::Drbg rng(to_bytes(seed));
  return core::generate_phi_collection(n, rng);
}

std::map<std::string, std::vector<FileId>> postings(
    std::span<const PlainFile> files) {
  std::map<std::string, std::vector<FileId>> out;
  for (const PlainFile& f : files) {
    for (const std::string& kw : f.keywords) out[kw].push_back(f.id);
  }
  for (auto& [kw, ids] : out) std::sort(ids.begin(), ids.end());
  return out;
}

SecureIndex build_with(std::span<const PlainFile> files, const Keys& keys,
                       std::string_view seed, par::ThreadPool* pool) {
  cipher::Drbg rng(to_bytes(seed));
  return build_index(files, keys, rng, 1.25, pool);
}

TEST(SseParallel, PoolOfOneIsByteIdenticalToSerial) {
  auto files = sample_files(20, "par-eq");
  cipher::Drbg krng(to_bytes("par-eq-keys"));
  Keys keys = Keys::generate(krng);
  par::ThreadPool one(1, "sse");
  SecureIndex serial = build_with(files, keys, "par-eq-rng", nullptr);
  SecureIndex pooled = build_with(files, keys, "par-eq-rng", &one);
  EXPECT_EQ(serial.to_bytes(), pooled.to_bytes());
}

TEST(SseParallel, SameSeedSameThreadCountReproducesBytes) {
  auto files = sample_files(20, "par-repro");
  cipher::Drbg krng(to_bytes("par-repro-keys"));
  Keys keys = Keys::generate(krng);
  par::ThreadPool pool(4, "sse");
  SecureIndex a = build_with(files, keys, "par-repro-rng", &pool);
  SecureIndex b = build_with(files, keys, "par-repro-rng", &pool);
  EXPECT_EQ(a.to_bytes(), b.to_bytes());
}

TEST(SseParallel, SearchResultsIdenticalAcrossThreadCounts) {
  auto files = sample_files(40, "par-search");
  cipher::Drbg krng(to_bytes("par-search-keys"));
  Keys keys = Keys::generate(krng);
  auto truth = postings(files);

  par::ThreadPool two(2, "sse2");
  par::ThreadPool eight(8, "sse8");
  SecureIndex serial = build_with(files, keys, "par-search-rng", nullptr);
  SecureIndex si2 = build_with(files, keys, "par-search-rng", &two);
  SecureIndex si8 = build_with(files, keys, "par-search-rng", &eight);

  // The index *structure* is thread-count-invariant: same array size, same
  // table addresses (only per-node keys and padding randomness move).
  EXPECT_EQ(serial.array_a.size(), si2.array_a.size());
  EXPECT_EQ(serial.array_a.size(), si8.array_a.size());
  auto keys_of = [](const SecureIndex& si) {
    std::set<std::string> out;
    for (const auto& [k, v] : si.table_t) out.insert(k);
    return out;
  };
  EXPECT_EQ(keys_of(serial), keys_of(si2));
  EXPECT_EQ(keys_of(serial), keys_of(si8));

  TrapdoorGen gen(keys);
  for (const auto& [kw, expected] : truth) {
    for (const SecureIndex* si : {&serial, &si2, &si8}) {
      std::vector<FileId> got = search(*si, gen.make(kw));
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "keyword " << kw;
    }
  }
  for (const SecureIndex* si : {&serial, &si2, &si8}) {
    EXPECT_TRUE(search(*si, gen.make("no-such-keyword")).empty());
  }
}

// The addresses of the nodes on one keyword's list, in list order, found by
// unmasking its T entry and decrypting node after node (Fig. 2 layout:
// has_next ‖ fid ‖ λ_next ‖ next_addr).
std::vector<uint64_t> list_addresses(const SecureIndex& si,
                                     const Trapdoor& td) {
  auto be64 = [](const uint8_t* p) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
    return v;
  };
  Bytes entry = xor_bytes(si.table_t.at(hex_encode(td.address)), td.mask);
  uint64_t addr = be64(entry.data());
  Bytes lambda(entry.begin() + 8, entry.end());
  std::vector<uint64_t> out;
  while (out.size() <= si.array_a.size()) {
    out.push_back(addr);
    Bytes node = cipher::chacha20(lambda, Bytes(cipher::kChaChaNonceSize, 0),
                                  0, si.array_a.at(addr));
    if (node[0] != 1) break;
    lambda.assign(node.begin() + 9, node.begin() + 41);
    addr = be64(node.data() + 41);
  }
  return out;
}

TEST(SseParallel, NodeAddressesComeFromThePhiTableAtEveryThreadCount) {
  auto files = sample_files(40, "par-phi");
  cipher::Drbg krng(to_bytes("par-phi-keys"));
  Keys keys = Keys::generate(krng);
  par::ThreadPool two(2, "phi2");
  par::ThreadPool eight(8, "phi8");
  SecureIndex serial = build_with(files, keys, "par-phi-rng", nullptr);
  SecureIndex si2 = build_with(files, keys, "par-phi-rng", &two);
  SecureIndex si8 = build_with(files, keys, "par-phi-rng", &eight);

  std::vector<uint64_t> phi =
      prf::permutation_table(keys.a, "sse1/phi", serial.array_a.size());
  TrapdoorGen gen(keys);
  uint64_t node_start = 0;  // keywords own consecutive counters, sorted order
  for (const auto& [kw, ids] : postings(files)) {
    std::vector<uint64_t> want(phi.begin() + node_start,
                               phi.begin() + node_start + ids.size());
    Trapdoor td = gen.make(kw);
    EXPECT_EQ(list_addresses(serial, td), want) << "keyword " << kw;
    EXPECT_EQ(list_addresses(si2, td), want) << "keyword " << kw;
    EXPECT_EQ(list_addresses(si8, td), want) << "keyword " << kw;
    node_start += ids.size();
  }
}

TEST(SseParallel, CollectionDecryptsIdenticallyAcrossThreadCounts) {
  auto files = sample_files(30, "par-aead");
  cipher::Drbg krng(to_bytes("par-aead-keys"));
  Keys keys = Keys::generate(krng);

  par::ThreadPool two(2, "aead2");
  par::ThreadPool eight(8, "aead8");
  auto encrypt_with = [&](par::ThreadPool* pool) {
    cipher::Drbg rng(to_bytes("par-aead-rng"));
    return encrypt_collection(files, keys, rng, pool);
  };
  EncryptedCollection serial = encrypt_with(nullptr);
  EncryptedCollection ec2 = encrypt_with(&two);
  EncryptedCollection ec8 = encrypt_with(&eight);

  auto contents = [&](const EncryptedCollection& ec, par::ThreadPool* pool) {
    std::vector<PlainFile> out = decrypt_collection(keys, ec, pool);
    std::vector<std::pair<FileId, Bytes>> pairs;
    for (const PlainFile& f : out) pairs.emplace_back(f.id, f.content);
    return pairs;
  };
  auto want = contents(serial, nullptr);
  EXPECT_EQ(want.size(), files.size());
  EXPECT_EQ(contents(ec2, nullptr), want);
  EXPECT_EQ(contents(ec8, nullptr), want);
  // Parallel decryption of a serially-encrypted collection and vice versa.
  EXPECT_EQ(contents(serial, &eight), want);
  EXPECT_EQ(contents(ec8, &two), want);
}

TEST(SseParallel, BatchUnwrapMatchesSingleUnwrap) {
  cipher::Drbg rng(to_bytes("par-unwrap"));
  Keys keys = Keys::generate(rng);
  TrapdoorGen gen(keys);
  std::vector<Bytes> wrapped;
  for (int i = 0; i < 17; ++i) {
    wrapped.push_back(
        wrap_trapdoor(keys.d, gen.make("kw-" + std::to_string(i))));
  }
  // Slot 5: corrupted blob. Slot 11: wrapped under a stale d.
  wrapped[5][3] ^= 0x40;
  Keys stale = Keys::generate(rng);
  wrapped[11] = wrap_trapdoor(stale.d, gen.make("kw-11"));

  par::ThreadPool pool(4, "unwrap");
  std::vector<std::optional<Trapdoor>> batch =
      unwrap_trapdoors(keys.d, wrapped, &pool);
  ASSERT_EQ(batch.size(), wrapped.size());
  for (size_t i = 0; i < wrapped.size(); ++i) {
    std::optional<Trapdoor> single = unwrap_trapdoor(keys.d, wrapped[i]);
    ASSERT_EQ(batch[i].has_value(), single.has_value()) << "slot " << i;
    if (single.has_value()) {
      EXPECT_EQ(batch[i]->to_bytes(), single->to_bytes()) << "slot " << i;
    }
  }
  EXPECT_FALSE(batch[5].has_value());
  EXPECT_FALSE(batch[11].has_value());
}

TEST(SseParallel, SearchManyMatchesSearch) {
  auto files = sample_files(25, "par-many");
  cipher::Drbg rng(to_bytes("par-many-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  TrapdoorGen gen(keys);
  std::vector<Trapdoor> tds;
  for (const auto& [kw, ids] : postings(files)) tds.push_back(gen.make(kw));
  tds.push_back(gen.make("absent"));

  par::ThreadPool pool(4, "many");
  std::vector<std::vector<FileId>> batch = search_many(si, tds, &pool);
  ASSERT_EQ(batch.size(), tds.size());
  for (size_t i = 0; i < tds.size(); ++i) {
    EXPECT_EQ(batch[i], search(si, tds[i])) << "trapdoor " << i;
  }
}

}  // namespace
}  // namespace hcpp::sse

namespace hcpp::core {
namespace {

class SearchServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DeploymentConfig cfg;
    cfg.n_phi_files = 16;
    deployment_ = new Deployment(Deployment::create(cfg));
  }
  static void TearDownTestSuite() {
    delete deployment_;
    deployment_ = nullptr;
  }
  Deployment& d() { return *deployment_; }

  std::string account() {
    return SServer::account_key(d().patient->tp_bytes(),
                                d().patient->collection());
  }

  static Deployment* deployment_;
};

Deployment* SearchServiceTest::deployment_ = nullptr;

TEST_F(SearchServiceTest, PublishedSnapshotAnswersOwnerQueries) {
  par::ThreadPool pool(4, "svc");
  SearchService svc(&pool);
  svc.publish(*d().sserver);
  EXPECT_EQ(svc.account_count(), d().sserver->account_count());

  const KeywordIndex& ki = d().patient->keyword_index();
  sse::TrapdoorGen gen(d().patient->keys());
  std::vector<SearchService::Query> queries;
  std::vector<std::vector<sse::FileId>> want;
  for (const auto& [kw, ids] : ki.entries) {
    SearchService::Query q;
    q.account = account();
    q.trapdoors.push_back(gen.make(keyword_alias(kw, 0)));
    queries.push_back(std::move(q));
    std::vector<sse::FileId> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    want.push_back(std::move(sorted));
  }
  std::vector<SearchService::Result> got = svc.search_batch(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].account_found);
    std::vector<sse::FileId> ids;
    for (const auto& m : got[i].matches) {
      ids.push_back(m.id);
      EXPECT_FALSE(m.blob.empty());
    }
    EXPECT_EQ(ids, want[i]) << "query " << i;
  }
}

TEST_F(SearchServiceTest, PrivilegedQueriesUnwrapAndTolerateGarbage) {
  par::ThreadPool pool(4, "svc");
  SearchService svc(&pool);
  svc.publish(*d().sserver);

  const KeywordIndex& ki = d().patient->keyword_index();
  ASSERT_FALSE(ki.entries.empty());
  const auto& [kw, ids] = *ki.entries.begin();
  sse::TrapdoorGen gen(d().patient->keys());
  const Bytes& dkey = d().patient->keys().d;

  SearchService::Query q;
  q.account = account();
  q.privileged = true;
  q.wrapped.push_back(sse::wrap_trapdoor(dkey, gen.make(keyword_alias(kw, 0))));
  q.wrapped.push_back(Bytes(17, 0xab));  // garbage blob: ignored
  Bytes tampered = sse::wrap_trapdoor(dkey, gen.make(keyword_alias(kw, 0)));
  tampered[2] ^= 0x01;
  q.wrapped.push_back(tampered);  // corrupted: unwrap tag rejects it

  SearchService::Result r = svc.search({std::move(q)});
  EXPECT_TRUE(r.account_found);
  std::vector<sse::FileId> got;
  for (const auto& m : r.matches) got.push_back(m.id);
  std::vector<sse::FileId> want = ids;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST_F(SearchServiceTest, UnknownAccountReportsNotFound) {
  SearchService svc(nullptr);
  svc.publish(*d().sserver);
  SearchService::Query q;
  q.account = "no-such-account";
  SearchService::Result r = svc.search(q);
  EXPECT_FALSE(r.account_found);
  EXPECT_TRUE(r.matches.empty());
}

TEST_F(SearchServiceTest, ConcurrentBatchesRaceRepublishSafely) {
  par::ThreadPool pool(4, "svc");
  SearchService svc(&pool);
  svc.publish(*d().sserver);

  const KeywordIndex& ki = d().patient->keyword_index();
  sse::TrapdoorGen gen(d().patient->keys());
  const Bytes& dkey = d().patient->keys().d;
  std::vector<SearchService::Query> queries;
  std::vector<std::set<sse::FileId>> want;
  for (const auto& [kw, ids] : ki.entries) {
    SearchService::Query q;
    q.account = account();
    q.trapdoors.push_back(gen.make(keyword_alias(kw, 0)));
    queries.push_back(q);
    want.emplace_back(ids.begin(), ids.end());
    // Same keyword again via the privileged path, with one corrupted blob.
    SearchService::Query p;
    p.account = account();
    p.privileged = true;
    p.wrapped.push_back(sse::wrap_trapdoor(dkey, gen.make(keyword_alias(kw, 0))));
    p.wrapped.push_back(Bytes(60, 0x5c));
    queries.push_back(std::move(p));
    want.emplace_back(ids.begin(), ids.end());
  }

  std::atomic<bool> stop{false};
  std::thread republisher([&] {
    while (!stop.load()) svc.publish(*d().sserver);
  });
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<SearchService::Result> got = svc.search_batch(queries);
        for (size_t i = 0; i < got.size(); ++i) {
          std::set<sse::FileId> ids;
          for (const auto& m : got[i].matches) ids.insert(m.id);
          if (!got[i].account_found || ids != want[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true);
  republisher.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace hcpp::core
