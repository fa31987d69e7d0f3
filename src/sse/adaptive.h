// Adaptive-secure SSE — the paper notes (§II.B) that "the adaptive SSE
// construction [17], which features a more robust security notion, can be
// applied instead without modifying other parts of the protocols". This is
// that drop-in: Curtmola et al.'s SSE-2-style dictionary construction.
//
// Index: one masked dictionary entry per (keyword, position) pair,
//   label(kw, j) = PRF_k("label" ‖ kw ‖ j),  value = fid ⊕ PRF_k("mask" ‖ kw ‖ j),
// padded with dummy entries. A trapdoor is the label/mask sequence for
// j = 1..bound, where `bound` is the public postings-length cap — the
// classic SSE-2 trade: simulatable against adaptive adversaries, at the
// cost of O(bound)-size trapdoors versus SSE-1's constant-size ones.
// Benchmark E1 quantifies the trade.
#pragma once

#include <optional>
#include <unordered_map>

#include "src/common/random.h"
#include "src/sse/sse.h"

namespace hcpp::sse::adaptive {

struct AdaptiveIndex {
  /// hex(label) -> masked fid (8 bytes).
  std::unordered_map<std::string, Bytes> entries;
  /// Public postings-length cap used when the index was built; every
  /// trapdoor probes exactly this many labels.
  uint32_t bound = 0;

  [[nodiscard]] Bytes to_bytes() const;
  static AdaptiveIndex from_bytes(BytesView b);
  [[nodiscard]] size_t size_bytes() const;
};

struct AdaptiveTrapdoor {
  /// (label, mask) per position, exactly `bound` of them.
  std::vector<std::pair<Bytes, Bytes>> slots;

  [[nodiscard]] Bytes to_bytes() const;
  static std::optional<AdaptiveTrapdoor> from_bytes(BytesView b);
};

/// Builds the dictionary. `bound` caps (and pads) postings-list lengths; 0
/// selects the smallest power of two covering the longest real list.
/// Dummy entries bring the total to `padding_factor` (finite, >= 1; anything
/// else throws std::invalid_argument) times the real count.
AdaptiveIndex build_index(std::span<const PlainFile> files, BytesView key,
                          RandomSource& rng, uint32_t bound = 0,
                          double padding_factor = 1.25);

/// Owner-side trapdoor: the label/mask pair for every position up to the
/// index's bound.
AdaptiveTrapdoor make_trapdoor(BytesView key, std::string_view kw,
                               uint32_t bound);

/// Server-side search: O(bound) dictionary probes, each O(1).
std::vector<FileId> search(const AdaptiveIndex& index,
                           const AdaptiveTrapdoor& td);

}  // namespace hcpp::sse::adaptive
