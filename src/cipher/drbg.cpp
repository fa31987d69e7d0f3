#include "src/cipher/drbg.h"

#include <cstring>
#include <random>

#include "src/cipher/chacha20.h"
#include "src/hash/sha256.h"

namespace hcpp::cipher {

Drbg::Drbg(BytesView seed) {
  hash::Digest d = hash::sha256(seed);
  std::copy(d.begin(), d.end(), key_.begin());
  nonce_.fill(0);
}

std::vector<Drbg> fork_streams(RandomSource& rng, size_t n) {
  std::vector<Drbg> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back(rng.bytes(32));
  return out;
}

Drbg Drbg::system() {
  std::random_device rd;
  Bytes seed(48);
  for (size_t i = 0; i < seed.size(); i += 4) {
    uint32_t v = rd();
    for (size_t j = 0; j < 4 && i + j < seed.size(); ++j) {
      seed[i + j] = static_cast<uint8_t>(v >> (8 * j));
    }
  }
  return Drbg(seed);
}

void Drbg::refill() {
  // Generate up to four blocks in one keystream call, but never across the
  // 32-bit counter wrap: the key ratchet below must happen at exactly the
  // same stream position as the old one-block generator.
  uint64_t until_wrap = 0x100000000ull - counter_;
  size_t nblocks = static_cast<size_t>(std::min<uint64_t>(4, until_wrap));
  chacha20_keystream(key_, nonce_, counter_,
                     std::span<uint8_t>(block_.data(), 64 * nblocks));
  counter_ += static_cast<uint32_t>(nblocks);  // wraps to 0 at the boundary
  block_fill_ = 64 * nblocks;
  block_pos_ = 0;
  if (counter_ == 0) {
    // 256 GiB of output consumed: ratchet the key to a fresh stream.
    hash::Digest d = hash::sha256(BytesView(key_.data(), key_.size()));
    std::copy(d.begin(), d.end(), key_.begin());
  }
}

void Drbg::fill(std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    if (block_pos_ == block_fill_) refill();
    size_t take = std::min(out.size() - done, block_fill_ - block_pos_);
    std::memcpy(out.data() + done, block_.data() + block_pos_, take);
    block_pos_ += take;
    done += take;
  }
}

void Drbg::reseed(BytesView entropy) {
  Bytes material(key_.begin(), key_.end());
  append(material, entropy);
  hash::Digest d = hash::sha256(material);
  std::copy(d.begin(), d.end(), key_.begin());
  counter_ = 0;
  block_fill_ = 0;
  block_pos_ = 0;
}

}  // namespace hcpp::cipher
