// SSE (Fig. 2): index construction, search correctness against a brute-force
// model, ASSIGN/REVOKE trapdoor wrapping, serialization, leakage shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "src/cipher/drbg.h"
#include "src/core/record.h"
#include "src/sse/sse.h"

namespace hcpp::sse {
namespace {

std::vector<PlainFile> sample_files(size_t n, std::string_view seed) {
  cipher::Drbg rng(to_bytes(seed));
  return core::generate_phi_collection(n, rng);
}

// Ground truth: keyword -> sorted file ids.
std::map<std::string, std::vector<FileId>> postings(
    std::span<const PlainFile> files) {
  std::map<std::string, std::vector<FileId>> out;
  for (const PlainFile& f : files) {
    for (const std::string& kw : f.keywords) out[kw].push_back(f.id);
  }
  for (auto& [kw, ids] : out) std::sort(ids.begin(), ids.end());
  return out;
}

class SseCollectionSize : public ::testing::TestWithParam<size_t> {};

TEST_P(SseCollectionSize, SearchMatchesBruteForce) {
  auto files = sample_files(GetParam(), "sse-bf");
  cipher::Drbg rng(to_bytes("sse-bf-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  auto truth = postings(files);
  for (const auto& [kw, expected] : truth) {
    std::vector<FileId> got = search(si, make_trapdoor(keys, kw));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "keyword " << kw;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SseCollectionSize,
                         ::testing::Values(1, 2, 8, 32, 100));

TEST(Sse, AbsentKeywordReturnsNothing) {
  auto files = sample_files(10, "sse-absent");
  cipher::Drbg rng(to_bytes("sse-absent-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  EXPECT_TRUE(search(si, make_trapdoor(keys, "no-such-keyword")).empty());
}

TEST(Sse, WrongKeysFindNothing) {
  auto files = sample_files(10, "sse-wrongkey");
  cipher::Drbg rng(to_bytes("sse-wrongkey-rng"));
  Keys keys = Keys::generate(rng);
  Keys other = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  auto truth = postings(files);
  for (const auto& [kw, expected] : truth) {
    // With high probability the wrong trapdoor misses the table entirely.
    EXPECT_TRUE(search(si, make_trapdoor(other, kw)).empty());
  }
}

TEST(Sse, FileEncryptionRoundTripAndTamper) {
  auto files = sample_files(3, "sse-files");
  cipher::Drbg rng(to_bytes("sse-files-rng"));
  Keys keys = Keys::generate(rng);
  EncryptedCollection ec = encrypt_collection(files, keys, rng);
  ASSERT_EQ(ec.files.size(), files.size());
  for (const PlainFile& f : files) {
    PlainFile back = decrypt_file(keys, ec.files.at(f.id));
    EXPECT_EQ(back.id, f.id);
    EXPECT_EQ(back.name, f.name);
    EXPECT_EQ(back.content, f.content);
    EXPECT_EQ(back.keywords, f.keywords);
  }
  Bytes tampered = ec.files.at(files[0].id);
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_THROW(decrypt_file(keys, tampered), std::exception);
}

TEST(Sse, IndexSerializationRoundTrip) {
  auto files = sample_files(12, "sse-ser");
  cipher::Drbg rng(to_bytes("sse-ser-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex si = build_index(files, keys, rng);
  SecureIndex back = SecureIndex::from_bytes(si.to_bytes());
  auto truth = postings(files);
  for (const auto& [kw, expected] : truth) {
    std::vector<FileId> got = search(back, make_trapdoor(keys, kw));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(Sse, CollectionSerializationRoundTrip) {
  auto files = sample_files(5, "sse-cser");
  cipher::Drbg rng(to_bytes("sse-cser-rng"));
  Keys keys = Keys::generate(rng);
  EncryptedCollection ec = encrypt_collection(files, keys, rng);
  EncryptedCollection back = EncryptedCollection::from_bytes(ec.to_bytes());
  EXPECT_EQ(back.files.size(), ec.files.size());
  for (const auto& [id, blob] : ec.files) EXPECT_EQ(back.files.at(id), blob);
}

TEST(Sse, KeysSerializationRoundTrip) {
  cipher::Drbg rng(to_bytes("sse-keys"));
  Keys keys = Keys::generate(rng);
  Keys back = Keys::from_bytes(keys.to_bytes());
  EXPECT_EQ(back.a, keys.a);
  EXPECT_EQ(back.b, keys.b);
  EXPECT_EQ(back.c, keys.c);
  EXPECT_EQ(back.d, keys.d);
  EXPECT_EQ(back.s, keys.s);
}

TEST(Sse, TrapdoorEncodingHasIntegrityTag) {
  cipher::Drbg rng(to_bytes("sse-td"));
  Keys keys = Keys::generate(rng);
  Trapdoor td = make_trapdoor(keys, "kw");
  Bytes enc = td.to_bytes();
  EXPECT_EQ(enc.size(), kTrapdoorSize);
  EXPECT_TRUE(Trapdoor::from_bytes(enc).has_value());
  enc[3] ^= 1;
  EXPECT_FALSE(Trapdoor::from_bytes(enc).has_value());
  EXPECT_FALSE(Trapdoor::from_bytes(Bytes(10, 0)).has_value());
}

TEST(Sse, WrapUnwrapTrapdoor) {
  cipher::Drbg rng(to_bytes("sse-wrap"));
  Keys keys = Keys::generate(rng);
  Trapdoor td = make_trapdoor(keys, "category:allergy");
  Bytes wrapped = wrap_trapdoor(keys.d, td);
  EXPECT_EQ(wrapped.size(), kTrapdoorSize);
  EXPECT_NE(wrapped, td.to_bytes());
  auto unwrapped = unwrap_trapdoor(keys.d, wrapped);
  ASSERT_TRUE(unwrapped.has_value());
  EXPECT_EQ(unwrapped->to_bytes(), td.to_bytes());
}

TEST(Sse, StaleDFailsUnwrap) {
  // The REVOKE property: after re-keying d, trapdoors wrapped under the old
  // d fail the server-side validity check.
  cipher::Drbg rng(to_bytes("sse-stale"));
  Keys keys = Keys::generate(rng);
  Trapdoor td = make_trapdoor(keys, "kw");
  Bytes wrapped_old = wrap_trapdoor(keys.d, td);
  Bytes d_new = rng.bytes(32);
  EXPECT_FALSE(unwrap_trapdoor(d_new, wrapped_old).has_value());
}

TEST(Sse, IndexHidesPostingsStructure) {
  // Every slot of A has the same size and the table keys are PRP outputs:
  // two collections with identical sizes but different contents produce
  // indexes of identical shape.
  auto files_a = sample_files(16, "shape-a");
  auto files_b = sample_files(16, "shape-b");
  cipher::Drbg rng(to_bytes("sse-shape-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex ia = build_index(files_a, keys, rng, 1.0);
  SecureIndex ib = build_index(files_b, keys, rng, 1.0);
  for (const Bytes& slot : ia.array_a) EXPECT_EQ(slot.size(), kNodeSize);
  // Same total node count (same generator parameters) => same array size.
  size_t nodes_a = 0, nodes_b = 0;
  for (const auto& [kw, ids] : postings(files_a)) nodes_a += ids.size();
  for (const auto& [kw, ids] : postings(files_b)) nodes_b += ids.size();
  if (nodes_a == nodes_b) {
    EXPECT_EQ(ia.array_a.size(), ib.array_a.size());
  }
}

TEST(Sse, PaddingFactorGrowsArray) {
  auto files = sample_files(20, "sse-pad");
  cipher::Drbg rng(to_bytes("sse-pad-rng"));
  Keys keys = Keys::generate(rng);
  SecureIndex tight = build_index(files, keys, rng, 1.0);
  SecureIndex padded = build_index(files, keys, rng, 2.0);
  EXPECT_GE(padded.array_a.size(), tight.array_a.size() * 2 - 1);
  // Search still works on the padded index.
  auto truth = postings(files);
  const auto& [kw, expected] = *truth.begin();
  std::vector<FileId> got = search(padded, make_trapdoor(keys, kw));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_THROW(build_index(files, keys, rng, 0.5), std::invalid_argument);
}

TEST(Sse, PaddingFactorMustBeFiniteAndAtLeastOne) {
  auto files = sample_files(5, "sse-pad-bad");
  cipher::Drbg rng(to_bytes("sse-pad-bad-rng"));
  Keys keys = Keys::generate(rng);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 0.5}) {
    EXPECT_THROW(build_index(files, keys, rng, bad), std::invalid_argument)
        << bad;
  }
}

// Search follows the addresses stored in the nodes and never evaluates φ,
// so an index built when φ was the point-wise cycle-walking Feistel PRP
// (these bytes) stays searchable after φ became a permutation table.
TEST(Sse, IndexBuiltUnderThePointwisePhiStaysSearchable) {
  const std::string old_index =
      "00000000000000082d554cdbb4fe744cc142deb3490bccdca2a433e767d50fb91cbe94"
      "6b860f7f8d908fd30e5e15ecd9a100ef4134d9c19c7e6b7ab7c7cb8efe5e06b53c94c4"
      "a280c7f49925a428a2c24df68362812defc1c64f0dc2c4875d9ab7f36fe369a2fd4fd9"
      "fe24d0764f8ce3ad306702f91a9a12ca1c2fe1bdaeed0c76a8ebd48382c89f3c929da4"
      "511df9f5641de329d451ebb4975b88321a9667c1e1f9a59a1c8ad37cd6d6f79716661a"
      "01f1b81b7353e58381f3a1186d86974c128614a56171551e1059047c78ceb5a03b16ea"
      "a79064d3eb994e24d548bac2c357dc6ac9ce47a938d2c87f57dd30ddbff9916028e650"
      "783dda58d2e48ea760a51df4cb7a5b152cf2d6b6b6f23772f796a18732508eb02930a6"
      "f85aedb234792fe09f72324d22a2eca5bbb6a3a94164213b88665c46cfa32918f4083e"
      "df7a84bea6615abc05654d41c142cb6b2c84428a45069ec9dad224d8477af643c8d52d"
      "b76c4679ce1d753e297caf86dbd629f194ecb43dd13c0788eeecedfaf578c357786d43"
      "b0c0c688f68488073200f18cfbb05c0000000000000002000000206433663338356363"
      "32353536326135343139376538373361626431366538366500000028fbe1efd1307a14"
      "6854b31088444fd605b7c80a94dbb7e8dca949cc19e6c11c7119d72ccc3c5e48a70000"
      "0020663838353636356434373634656137323738343836333531333334663138373300"
      "00002895c1b9958700e026d9c5140e4429297d1d0123276edc0cc833e1f8fbf17fd3bd"
      "6a3220678ec708c9";
  cipher::Drbg krng(to_bytes("sse-compat-keys"));
  Keys keys = Keys::generate(krng);
  SecureIndex si = SecureIndex::from_bytes(hex_decode(old_index));
  EXPECT_EQ(search(si, make_trapdoor(keys, "kw:alpha")),
            (std::vector<FileId>{1, 2, 3}));
  EXPECT_EQ(search(si, make_trapdoor(keys, "kw:beta")),
            (std::vector<FileId>{1, 3}));

  // The same files, keys and rng now give other node addresses.
  std::vector<PlainFile> files = {
      {1, "a", to_bytes("x"), {"kw:alpha", "kw:beta"}},
      {2, "b", to_bytes("y"), {"kw:alpha"}},
      {3, "c", to_bytes("z"), {"kw:alpha", "kw:beta"}}};
  cipher::Drbg rng(to_bytes("sse-compat-rng"));
  EXPECT_NE(build_index(files, keys, rng).to_bytes(), si.to_bytes());
}

TEST(Sse, ServerStorageIsLinearInN) {
  cipher::Drbg rng(to_bytes("sse-linear-rng"));
  Keys keys = Keys::generate(rng);
  auto small = sample_files(10, "lin");
  auto large = sample_files(40, "lin");
  size_t s_small = build_index(small, keys, rng, 1.0).size_bytes();
  size_t s_large = build_index(large, keys, rng, 1.0).size_bytes();
  // 4x files => roughly 4x index (within a factor of 2 slack for keyword
  // distribution noise).
  EXPECT_GT(s_large, s_small * 2);
  EXPECT_LT(s_large, s_small * 8);
}

TEST(Sse, MultiKeywordFilesAppearInEachList) {
  PlainFile f;
  f.id = 7;
  f.name = "multi";
  f.content = to_bytes("x");
  f.keywords = {"kw-a", "kw-b", "kw-c"};
  cipher::Drbg rng(to_bytes("sse-multi-rng"));
  Keys keys = Keys::generate(rng);
  std::vector<PlainFile> files = {f};
  SecureIndex si = build_index(files, keys, rng);
  for (const std::string& kw : f.keywords) {
    EXPECT_EQ(search(si, make_trapdoor(keys, kw)), std::vector<FileId>{7});
  }
}

}  // namespace
}  // namespace hcpp::sse
