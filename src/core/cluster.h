// §VI.D DoS countermeasure: "The attack to A-servers can be addressed by
// splitting the role of an A-server to several local offices". An
// AServerCluster is a set of replicas of one state A-server — same IBC
// master secret, mirrored on-duty registry — of which any reachable one can
// run the emergency authentication. The physician "calls the toll-free
// number" of the next office when one is down.
//
// SServerGroup applies the same treatment to the hospital storage tier: a
// set of S-server replicas sharing one *service identity* (so every client's
// pairwise key ν works against any of them). Two placements:
//
//   * kReplicated (the original §VI.D mode): collections are mirrored onto
//     every replica on upload and re-synced after an outage; reads fail over
//     to the next replica when the transport gives up on one.
//   * kSharded (ROADMAP item 2 scale-out): each account lives on exactly one
//     replica, chosen by store::shard_for_pseudonym over the presented TPp —
//     capacity grows with the group instead of being copied across it, and
//     a write/republish on one shard never touches the others. Clients
//     route to the owner (shard_for) instead of fanning out; there is no
//     failover target, so an unreachable shard is a transient error.
//
// Both placements are decided in one place each: SServerGroup::write for
// STORE/UPDATE/COMPACT/REVOKE and SServerGroup::read for the owner and
// privileged retrievals. fail_over is the in-order walk that reads and the
// A-server offices share.
#pragma once

#include <type_traits>

#include "src/core/entities.h"
#include "src/ledger/anchor.h"
#include "src/obs/metrics.h"

namespace hcpp::core {

/// §VI.D failover: tries replicas 0..n-1 in order through `attempt(i)`. A
/// transient error moves on to the next replica and counts under `metric`;
/// success or a permanent error ends the walk. When every replica failed
/// transiently the result is kUnreachable with all their attempts.
template <typename Attempt>
auto fail_over(size_t n, const char* metric, const char* detail,
               Attempt&& attempt) -> std::invoke_result_t<Attempt&, size_t> {
  uint32_t attempts = 0;
  for (size_t i = 0; i < n; ++i) {
    auto r = attempt(i);
    if (r.ok() || !r.error().transient()) return r;
    attempts += r.error().attempts;
    obs::count(metric);
  }
  return transient_error(ErrorCode::kUnreachable, attempts, detail);
}

class AServerCluster {
 public:
  /// `replicas` local offices sharing one domain (ids "<base_id>-<i>").
  AServerCluster(sim::Network& net, const curve::CurveCtx& ctx,
                 const std::string& base_id, size_t replicas,
                 RandomSource& seed);

  [[nodiscard]] size_t size() const noexcept { return replicas_.size(); }
  [[nodiscard]] AServer& replica(size_t i) { return *replicas_.at(i); }

  /// Simulated outage control. Also marks the office down on the network, so
  /// transport-routed requests to it time out instead of being served.
  void set_up(size_t i, bool up);
  [[nodiscard]] bool is_up(size_t i) const { return up_.at(i); }

  /// Mirrors the published on-duty list to every office.
  void set_on_duty(const std::string& physician_id, bool on_duty);

  /// Union of all offices' TR logs (for audits spanning a failover).
  [[nodiscard]] std::vector<TraceRecord> all_traces() const;

  /// Checkpoint-anchoring hierarchy rooted in the shared domain (office 0
  /// mints it): the hospital → state → federal authorities every office's
  /// trace ledger anchors its epochs through (src/ledger/anchor.h).
  [[nodiscard]] ledger::AnchorChain& anchor_chain() noexcept {
    return *anchors_;
  }

 private:
  sim::Network* net_;
  std::vector<std::unique_ptr<AServer>> replicas_;
  std::unique_ptr<ledger::AnchorChain> anchors_;
  std::vector<bool> up_;
};

// ---------------------------------------------------------------------------
/// Replicated hospital storage. Every replica holds Γ_S for the shared
/// `service_id` (clients derive ν against that identity) but keeps its own
/// instance id ("<service_id>-<i>") for addressing and replay caching.
/// Clients route through write() and read(), which hold the placement
/// policy.
class SServerGroup {
 public:
  enum class Placement {
    kReplicated,  // every account on every replica (mirror + failover)
    kSharded,     // each account on exactly one replica (hash routing)
  };

  SServerGroup(sim::Network& net, const AServer& authority,
               const std::string& service_id, size_t replicas,
               Placement placement = Placement::kReplicated);

  [[nodiscard]] const std::string& service_id() const noexcept {
    return service_id_;
  }
  [[nodiscard]] size_t size() const noexcept { return replicas_.size(); }
  [[nodiscard]] SServer& replica(size_t i) { return *replicas_.at(i); }
  [[nodiscard]] Placement placement() const noexcept { return placement_; }
  [[nodiscard]] bool sharded() const noexcept {
    return placement_ == Placement::kSharded;
  }

  /// Shard index owning the accounts of pseudonym `tp` (always 0 when
  /// replicated — any replica serves any account).
  [[nodiscard]] size_t shard_of(BytesView tp) const;
  /// The replica owning `tp`'s accounts.
  [[nodiscard]] SServer& shard_for(BytesView tp);

  /// Attaches a persistent store to every replica, one directory per shard
  /// ("<dir_root>/shard-<i>"). Returns false if any attach failed.
  bool attach_stores(const std::string& dir_root);

  /// Simulated outage control, mirrored to the network substrate.
  void set_up(size_t i, bool up);
  [[nodiscard]] bool is_up(size_t i) const { return up_.at(i); }

  /// Write routing. Sharded: `send(owner)` only, returning the owner's own
  /// error. Replicated: `send` to every replica in order, each applied copy
  /// counted under kSGroupMirrorWrites. Succeeds with the number of replicas
  /// that applied the write; fails permanently if any refused and none
  /// applied, transiently (kUnreachable) if none was reachable.
  template <typename Send>
  Result<size_t> write(BytesView tp, Send&& send) {
    if (sharded()) {
      Result<void> r = send(shard_for(tp));
      if (!r.ok()) return r.error();
      return size_t{1};
    }
    size_t applied = 0;
    bool any_rejected = false;
    uint32_t attempts = 0;
    for (size_t i = 0; i < size(); ++i) {
      Result<void> r = send(replica(i));
      if (r.ok()) {
        ++applied;
        obs::count(obs::kSGroupMirrorWrites);
      } else {
        attempts += r.error().attempts;
        any_rejected |= !r.error().transient();
      }
    }
    if (applied > 0) return applied;
    if (any_rejected) {
      return permanent_error(ErrorCode::kRejected, attempts,
                             "every storage replica refused the write");
    }
    return transient_error(ErrorCode::kUnreachable, attempts,
                           "no storage replica reachable for the write");
  }

  /// Read routing. Sharded: `fetch(owner)` only — there is no failover
  /// target, so an owner that is down returns its own transient error, as a
  /// write does. Replicated: fail_over across the replicas, counted under
  /// kSGroupFailover.
  template <typename Fetch>
  auto read(BytesView tp, Fetch&& fetch)
      -> std::invoke_result_t<Fetch&, SServer&> {
    if (sharded()) return fetch(shard_for(tp));
    return fail_over(size(), obs::kSGroupFailover,
                     "no storage replica answered the read",
                     [&](size_t i) { return fetch(replica(i)); });
  }

  /// Recovery: copies the authoritative state (first up replica's export)
  /// onto every other up replica — the catch-up a real mirror would run
  /// after an outage. Returns false when no replica is up, and always false
  /// in sharded placement (shards are disjoint; there is nothing to mirror).
  bool sync_replicas();

 private:
  sim::Network* net_;
  std::string service_id_;
  Placement placement_ = Placement::kReplicated;
  std::vector<std::unique_ptr<SServer>> replicas_;
  std::vector<bool> up_;
};

}  // namespace hcpp::core
