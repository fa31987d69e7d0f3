// Reliable request/response channel over the faulty Network substrate.
//
// One Transport::request models a client/server exchange: the request leg is
// charged on the network (and may be dropped, duplicated or corrupted by the
// fault plan), the server handler runs at most once per idempotency key, and
// the response leg travels back under the same faults. Failed attempts cost
// the client a timeout, then retry after truncated exponential backoff with
// DRBG-driven jitter, up to the policy's attempt budget.
//
// Idempotency: the key (in HCPP, the request MAC — unique because it covers
// the timestamped body) names the exchange. Retries and network-duplicated
// deliveries of the same key return the cached response instead of
// re-executing the handler, so server-side effects happen exactly once even
// though the wire saw the request several times. This complements the
// receiver replay cache (network.h), which would otherwise make honest
// retries indistinguishable from attacks. The cache is bounded by a byte
// budget (kIdemBudgetBytes), oldest entry evicted first; the entry of the
// exchange in progress is never evicted, however large.
//
// Everything is deterministic: the same fault-plan seed replays the same
// verdicts, the same backoff jitter, and therefore the same per-protocol
// DeliveryStats.
#pragma once

#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/common/bytes.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/network.h"

namespace hcpp::sim {

struct RetryPolicy {
  uint32_t max_attempts = 8;
  uint64_t timeout_ns = 50'000'000;       // per-attempt wait before giving up
  uint64_t base_backoff_ns = 20'000'000;  // delay before the first retry
  uint64_t max_backoff_ns = 1'000'000'000;
  double multiplier = 2.0;
  double jitter = 0.2;  // backoff scaled by 1 ± jitter, drawn from the DRBG
};

/// Per-protocol delivery accounting. Equality-comparable so chaos tests can
/// assert that two runs with the same seed produce the identical trace.
struct DeliveryStats {
  uint64_t requests = 0;               // request() calls
  uint64_t attempts = 0;               // wire attempts (first tries + retries)
  uint64_t retries = 0;                // attempts after the first
  uint64_t succeeded = 0;              // requests that returned a response
  uint64_t rejected = 0;               // server authoritatively refused
  uint64_t gave_up = 0;                // attempt budget exhausted
  uint64_t duplicates_suppressed = 0;  // handler executions saved by the key
  uint64_t responses_lost = 0;         // response legs dropped or corrupted
  bool operator==(const DeliveryStats&) const = default;
};

enum class CallStatus : uint8_t {
  kOk,        // response delivered and returned
  kRejected,  // server received the request and refused it (permanent)
  kExhausted  // retry budget spent without a delivered response (transient)
};

template <typename Resp>
struct CallOutcome {
  CallStatus status = CallStatus::kExhausted;
  std::optional<Resp> response;
  uint32_t attempts = 0;

  [[nodiscard]] bool ok() const noexcept { return status == CallStatus::kOk; }
};

class Transport {
 public:
  explicit Transport(Network& net, RetryPolicy policy = {})
      : net_(&net), policy_(policy) {}

  [[nodiscard]] RetryPolicy& policy() noexcept { return policy_; }
  void set_policy(RetryPolicy policy) noexcept { policy_ = policy; }

  [[nodiscard]] DeliveryStats stats(const std::string& protocol) const;
  [[nodiscard]] DeliveryStats total() const noexcept { return total_; }
  void reset_stats();
  /// Forgets cached responses (fresh server state between scenarios).
  void reset_idempotency_cache();

  /// Byte budget of the idempotency cache. Each entry is charged its
  /// response's wire size (response_size) plus its key bytes.
  static constexpr size_t kIdemBudgetBytes = 256 * 1024;
  /// Bytes currently charged to the idempotency cache.
  [[nodiscard]] size_t idempotency_cache_bytes() const noexcept {
    return idem_bytes_;
  }

  /// One request/response exchange with retries. `handler` is the in-process
  /// server endpoint: it returns the typed response, or nullopt for an
  /// authoritative rejection (no retry). `response_size` prices the response
  /// leg; return 0 for flows whose acknowledgement is not separately charged
  /// (matching the historical cost accounting for one-message uploads).
  template <typename Resp>
  CallOutcome<Resp> request(
      const std::string& from, const std::string& to, size_t request_bytes,
      BytesView idempotency_key, const std::string& protocol,
      const std::function<std::optional<Resp>()>& handler,
      const std::function<size_t(const Resp&)>& response_size) {
    obs::Span span("transport:", protocol);
    const uint64_t t0 = net_->clock().now();
    // Sim-clock time this exchange cost end to end (faults, backoff and
    // timeouts included), total and per protocol.
    auto observe_latency = [&] {
      if (obs::recording()) {
        double elapsed = static_cast<double>(net_->clock().now() - t0);
        obs::observe(obs::kTransportRequestNs, elapsed);
        obs::observe(std::string(obs::kTransportRequestNs) + "." + protocol,
                     elapsed);
      }
    };
    DeliveryStats& ps = per_protocol_[protocol];
    bump(ps, &DeliveryStats::requests, obs::kTransportRequests);
    IdemKey key{to, Bytes(idempotency_key.begin(), idempotency_key.end())};

    for (uint32_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
      if (attempt > 1) {
        bump(ps, &DeliveryStats::retries, obs::kTransportRetries);
        net_->clock().advance(backoff_ns(attempt - 1));
      }
      bump(ps, &DeliveryStats::attempts, obs::kTransportAttempts);

      Delivery req_leg = net_->transmit(from, to, request_bytes, protocol);
      if (req_leg == Delivery::kDropped || req_leg == Delivery::kCorrupted) {
        // Lost in flight, or arrived mangled and failed the receiver's MAC
        // check — either way no response comes back before the timeout.
        net_->clock().advance(policy_.timeout_ns);
        continue;
      }

      // Delivered: execute at most once per idempotency key.
      std::optional<Resp> resp;
      auto it = idem_.find(key);
      if (it != idem_.end()) {
        bump(ps, &DeliveryStats::duplicates_suppressed,
             obs::kTransportDupSuppressed);
        if (it->second.executed != nullptr) {
          resp = *std::static_pointer_cast<Resp>(it->second.executed);
        }
      } else {
        resp = handler();
        CacheEntry entry;
        entry.bytes = key.first.size() + key.second.size();
        if (resp.has_value()) {
          entry.executed = std::make_shared<Resp>(*resp);
          entry.bytes += response_size(*resp);
        }
        remember(key, std::move(entry));
      }
      if (req_leg == Delivery::kDuplicated) {
        // The spurious second copy hits the idempotency layer and dies.
        bump(ps, &DeliveryStats::duplicates_suppressed,
             obs::kTransportDupSuppressed);
      }

      if (!resp.has_value()) {
        bump(ps, &DeliveryStats::rejected, obs::kTransportRejected);
        observe_latency();
        return {CallStatus::kRejected, std::nullopt, attempt};
      }

      size_t resp_bytes = response_size(*resp);
      if (resp_bytes > 0) {
        Delivery resp_leg = net_->transmit(to, from, resp_bytes, protocol);
        if (resp_leg == Delivery::kDropped ||
            resp_leg == Delivery::kCorrupted) {
          bump(ps, &DeliveryStats::responses_lost,
               obs::kTransportResponsesLost);
          net_->clock().advance(policy_.timeout_ns);
          continue;  // the cached response answers the retry
        }
      }
      bump(ps, &DeliveryStats::succeeded, obs::kTransportSucceeded);
      observe_latency();
      return {CallStatus::kOk, std::move(resp), attempt};
    }
    bump(ps, &DeliveryStats::gave_up, obs::kTransportGaveUp);
    observe_latency();
    return {CallStatus::kExhausted, std::nullopt, policy_.max_attempts};
  }

  /// The nth retry's backoff (n = 1 for the first retry): truncated
  /// exponential with DRBG jitter from the network's fault stream.
  [[nodiscard]] uint64_t backoff_ns(uint32_t n);

 private:
  using IdemKey = std::pair<std::string, Bytes>;
  struct CacheEntry {
    std::shared_ptr<void> executed;  // typed response; nullptr = rejection
    size_t bytes = 0;                // charged against kIdemBudgetBytes
  };

  /// Advances one DeliveryStats field (per-protocol + total) and mirrors it
  /// into the attached registry under `metric`.
  void bump(DeliveryStats& ps, uint64_t DeliveryStats::* field,
            const char* metric);
  /// Inserts the entry of the exchange in progress, then evicts oldest
  /// first until the cache fits its budget again or only that entry is left:
  /// an entry only matters for the retry window of its own exchange.
  void remember(const IdemKey& key, CacheEntry entry);

  Network* net_;
  RetryPolicy policy_;
  std::map<std::string, DeliveryStats> per_protocol_;
  DeliveryStats total_;
  std::map<IdemKey, CacheEntry> idem_;
  std::deque<IdemKey> idem_order_;
  size_t idem_bytes_ = 0;
};

}  // namespace hcpp::sim
