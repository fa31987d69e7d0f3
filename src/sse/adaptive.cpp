#include "src/sse/adaptive.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "src/common/serialize.h"
#include "src/prf/prf.h"

namespace hcpp::sse::adaptive {

namespace {

constexpr size_t kLabelLen = 16;
constexpr size_t kMaskLen = 8;

Bytes slot_input(std::string_view purpose, std::string_view kw, uint32_t j) {
  io::Writer w;
  w.str(purpose);
  w.str(kw);
  w.u32(j);
  return w.take();
}

Bytes label_for(const prf::Prf& f, std::string_view kw, uint32_t j) {
  return f.eval(slot_input("label", kw, j), kLabelLen);
}

Bytes mask_for(const prf::Prf& f, std::string_view kw, uint32_t j) {
  return f.eval(slot_input("mask", kw, j), kMaskLen);
}

uint32_t next_pow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

AdaptiveIndex build_index(std::span<const PlainFile> files, BytesView key,
                          RandomSource& rng, uint32_t bound,
                          double padding_factor) {
  if (!(std::isfinite(padding_factor) && padding_factor >= 1.0)) {
    throw std::invalid_argument(
        "adaptive::build_index: padding_factor not finite >= 1");
  }
  std::map<std::string, std::vector<FileId>> postings;
  for (const PlainFile& f : files) {
    for (const std::string& kw : f.keywords) postings[kw].push_back(f.id);
  }
  uint32_t longest = 1;
  for (const auto& [kw, ids] : postings) {
    longest = std::max<uint32_t>(longest, static_cast<uint32_t>(ids.size()));
  }
  AdaptiveIndex index;
  index.bound = (bound == 0) ? next_pow2(longest) : bound;
  if (index.bound < longest) {
    throw std::invalid_argument(
        "adaptive::build_index: bound below the longest postings list");
  }
  prf::Prf f(Bytes(key.begin(), key.end()));
  size_t real_entries = 0;
  for (const auto& [kw, ids] : postings) {
    for (uint32_t j = 0; j < ids.size(); ++j) {
      Bytes masked(kMaskLen);
      for (int b = 0; b < 8; ++b) {
        masked[b] = static_cast<uint8_t>(ids[j] >> (56 - 8 * b));
      }
      masked = xor_bytes(masked, mask_for(f, kw, j));
      index.entries[hex_encode(label_for(f, kw, j))] = std::move(masked);
      ++real_entries;
    }
  }
  // Pad with dummy entries so the entry count leaks only an upper bound.
  size_t target = static_cast<size_t>(static_cast<double>(real_entries) *
                                      padding_factor);
  while (index.entries.size() < target) {
    index.entries[hex_encode(rng.bytes(kLabelLen))] = rng.bytes(kMaskLen);
  }
  return index;
}

AdaptiveTrapdoor make_trapdoor(BytesView key, std::string_view kw,
                               uint32_t bound) {
  prf::Prf f(Bytes(key.begin(), key.end()));
  AdaptiveTrapdoor td;
  td.slots.reserve(bound);
  for (uint32_t j = 0; j < bound; ++j) {
    td.slots.emplace_back(label_for(f, kw, j), mask_for(f, kw, j));
  }
  return td;
}

std::vector<FileId> search(const AdaptiveIndex& index,
                           const AdaptiveTrapdoor& td) {
  std::vector<FileId> out;
  for (const auto& [label, mask] : td.slots) {
    auto it = index.entries.find(hex_encode(label));
    if (it == index.entries.end()) break;  // postings are contiguous
    if (it->second.size() != kMaskLen || mask.size() != kMaskLen) break;
    Bytes plain = xor_bytes(it->second, mask);
    FileId id = 0;
    for (uint8_t b : plain) id = (id << 8) | b;
    out.push_back(id);
  }
  return out;
}

Bytes AdaptiveIndex::to_bytes() const {
  io::Writer w;
  w.u32(bound);
  w.u64(entries.size());
  std::vector<std::pair<std::string, Bytes>> sorted(entries.begin(),
                                                    entries.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [label, value] : sorted) {
    w.str(label);
    w.bytes(value);
  }
  return w.take();
}

AdaptiveIndex AdaptiveIndex::from_bytes(BytesView b) {
  io::Reader r(b);
  AdaptiveIndex index;
  index.bound = r.u32();
  size_t n = r.count64(8);  // each entry: u32 label len + u32 value len
  for (size_t i = 0; i < n; ++i) {
    std::string label = r.str();
    index.entries[label] = r.bytes();
  }
  return index;
}

size_t AdaptiveIndex::size_bytes() const {
  size_t total = 12;
  for (const auto& [label, value] : entries) {
    total += label.size() + value.size() + 8;
  }
  return total;
}

Bytes AdaptiveTrapdoor::to_bytes() const {
  io::Writer w;
  w.u32(static_cast<uint32_t>(slots.size()));
  for (const auto& [label, mask] : slots) {
    w.bytes(label);
    w.bytes(mask);
  }
  return w.take();
}

std::optional<AdaptiveTrapdoor> AdaptiveTrapdoor::from_bytes(BytesView b) {
  try {
    io::Reader r(b);
    AdaptiveTrapdoor td;
    size_t n = r.count32(8);  // each slot: two u32 length prefixes
    td.slots.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Bytes label = r.bytes();
      Bytes mask = r.bytes();
      td.slots.emplace_back(std::move(label), std::move(mask));
    }
    if (!r.done()) return std::nullopt;
    return td;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace hcpp::sse::adaptive
