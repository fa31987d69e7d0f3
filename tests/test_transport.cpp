// The reliability layer in isolation: fault-plan verdicts, retry/backoff
// schedules, idempotent execution, replay-cache pruning. Everything here is
// driven by seeded DRBGs, so assertions are exact, not statistical.
#include <gtest/gtest.h>

#include <map>

#include "src/cipher/drbg.h"
#include "src/core/errors.h"
#include "src/sim/network.h"
#include "src/sim/transport.h"

namespace hcpp::sim {
namespace {

/// One counted request through the transport.
CallOutcome<int> ping(Transport& t, const std::string& key, int* executions,
                      size_t response_bytes = 64) {
  Bytes k = to_bytes(key);
  return t.request<int>(
      "client", "server", 128, k, "ping",
      [executions]() {
        ++*executions;
        return std::optional<int>(42);
      },
      [response_bytes](const int&) { return response_bytes; });
}

TEST(Transport, NoFaultPlanMeansOneAttempt) {
  Network net;
  int executions = 0;
  CallOutcome<int> out = ping(net.transport(), "k1", &executions);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(*out.response, 42);
  EXPECT_EQ(executions, 1);
  DeliveryStats s = net.transport().stats("ping");
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.attempts, 1u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.succeeded, 1u);
  EXPECT_EQ(s.duplicates_suppressed, 0u);
}

TEST(Transport, ZeroSizedResponseIsNotCharged) {
  // One-message uploads (PHI storage) report response_size = 0; the wire
  // must see exactly one message.
  Network net;
  int executions = 0;
  (void)ping(net.transport(), "k1", &executions, /*response_bytes=*/0);
  EXPECT_EQ(net.stats("ping").messages, 1u);
}

TEST(Transport, LossyLinkRetriesUntilDelivered) {
  Network net;
  FaultPlan plan;
  plan.seed = 7;
  plan.default_faults.drop = 0.3;
  net.set_fault_plan(plan);
  int executions = 0;
  for (int i = 0; i < 5; ++i) {
    CallOutcome<int> out =
        ping(net.transport(), "key-" + std::to_string(i), &executions);
    EXPECT_TRUE(out.ok()) << "request " << i;
  }
  DeliveryStats s = net.transport().stats("ping");
  EXPECT_EQ(s.succeeded, 5u);
  // Seed 7 deterministically loses at least one leg in five requests.
  EXPECT_GT(s.attempts, s.requests);
  EXPECT_GT(s.retries, 0u);
}

TEST(Transport, DuplicatedDeliveryExecutesHandlerOnce) {
  Network net;
  FaultPlan plan;
  plan.default_faults.duplicate = 1.0;  // every message arrives twice
  net.set_fault_plan(plan);
  int executions = 0;
  CallOutcome<int> out = ping(net.transport(), "k1", &executions);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(executions, 1);
  EXPECT_GE(net.transport().stats("ping").duplicates_suppressed, 1u);
}

TEST(Transport, LostResponsesNeverReexecuteTheHandler) {
  Network net;
  FaultPlan plan;
  // Request direction clean, response direction always corrupted: the server
  // does its work, the client never learns.
  plan.per_link[{"client", "server"}] = LinkFaults{};
  plan.per_link[{"server", "client"}] = LinkFaults{.corrupt = 1.0};
  net.set_fault_plan(plan);
  int executions = 0;
  CallOutcome<int> out = ping(net.transport(), "k1", &executions);
  EXPECT_EQ(out.status, CallStatus::kExhausted);
  EXPECT_EQ(out.attempts, net.transport().policy().max_attempts);
  // The idempotency key pinned the execution count to one.
  EXPECT_EQ(executions, 1);
  DeliveryStats s = net.transport().stats("ping");
  EXPECT_EQ(s.gave_up, 1u);
  EXPECT_EQ(s.responses_lost, s.attempts);
  EXPECT_EQ(s.duplicates_suppressed, s.attempts - 1);
}

TEST(Transport, RejectionIsAuthoritative) {
  Network net;
  Bytes k = to_bytes("k1");
  int executions = 0;
  CallOutcome<int> out = net.transport().request<int>(
      "client", "server", 128, k, "ping",
      [&]() {
        ++executions;
        return std::optional<int>();  // server says no
      },
      [](const int&) { return size_t{64}; });
  EXPECT_EQ(out.status, CallStatus::kRejected);
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(net.transport().stats("ping").rejected, 1u);
  // A retry of the same exchange reuses the cached rejection.
  CallOutcome<int> again = net.transport().request<int>(
      "client", "server", 128, k, "ping",
      [&]() {
        ++executions;
        return std::optional<int>(1);
      },
      [](const int&) { return size_t{64}; });
  EXPECT_EQ(again.status, CallStatus::kRejected);
  EXPECT_EQ(executions, 1);
}

TEST(Transport, BackoffIsExponentialAndClamped) {
  Network net;
  RetryPolicy p;
  p.jitter = 0.0;
  net.transport().set_policy(p);
  EXPECT_EQ(net.transport().backoff_ns(1), p.base_backoff_ns);
  EXPECT_EQ(net.transport().backoff_ns(2), 2 * p.base_backoff_ns);
  EXPECT_EQ(net.transport().backoff_ns(3), 4 * p.base_backoff_ns);
  // Far past the truncation point.
  EXPECT_EQ(net.transport().backoff_ns(30), p.max_backoff_ns);
}

TEST(Transport, JitteredBackoffIsDeterministicPerSeed) {
  auto schedule = [](uint64_t seed) {
    Network net;
    FaultPlan plan;
    plan.seed = seed;
    net.set_fault_plan(plan);
    std::vector<uint64_t> s;
    for (uint32_t n = 1; n <= 6; ++n) s.push_back(net.transport().backoff_ns(n));
    return s;
  };
  std::vector<uint64_t> a = schedule(11);
  std::vector<uint64_t> b = schedule(11);
  EXPECT_EQ(a, b);  // same seed, same schedule
  RetryPolicy p;
  for (size_t i = 0; i < a.size(); ++i) {
    double nominal = static_cast<double>(p.base_backoff_ns) *
                     std::pow(p.multiplier, static_cast<double>(i));
    nominal = std::min(nominal, static_cast<double>(p.max_backoff_ns));
    EXPECT_GE(static_cast<double>(a[i]), nominal * (1.0 - p.jitter) - 1);
    EXPECT_LE(static_cast<double>(a[i]), nominal * (1.0 + p.jitter) + 1);
  }
}

TEST(Transport, SameSeedReproducesIdenticalStats) {
  auto run = [](uint64_t seed) {
    Network net;
    FaultPlan plan;
    plan.seed = seed;
    plan.default_faults = {.drop = 0.25, .duplicate = 0.15, .corrupt = 0.05,
                           .jitter_ns = 2'000'000};
    net.set_fault_plan(plan);
    int executions = 0;
    std::vector<uint32_t> attempts;
    for (int i = 0; i < 12; ++i) {
      attempts.push_back(
          ping(net.transport(), "key-" + std::to_string(i), &executions)
              .attempts);
    }
    return std::pair(attempts, net.transport().total());
  };
  auto [attempts_a, stats_a] = run(99);
  auto [attempts_b, stats_b] = run(99);
  EXPECT_EQ(attempts_a, attempts_b);
  EXPECT_EQ(stats_a, stats_b);
}

TEST(Transport, IdempotencyCacheEvictsOldestEntries) {
  // The cache is FIFO-bounded; re-sending a long-evicted key re-executes.
  Network net;
  int executions = 0;
  (void)ping(net.transport(), "first", &executions);
  EXPECT_EQ(executions, 1);
  for (int i = 0; i < 4100; ++i) {
    int ignore = 0;
    (void)ping(net.transport(), "filler-" + std::to_string(i), &ignore);
  }
  (void)ping(net.transport(), "first", &executions);
  EXPECT_EQ(executions, 2);
}

TEST(Transport, IdempotencyCacheStaysWithinByteBudget) {
  // Many 5 KB responses: the cache is charged wire bytes plus key bytes and
  // never holds more than its budget once an older entry can be evicted.
  Network net;
  Transport& t = net.transport();
  int executions = 0;
  for (int i = 0; i < 400; ++i) {
    (void)ping(t, "big-" + std::to_string(i), &executions, 5 * 1024);
    EXPECT_LE(t.idempotency_cache_bytes(), Transport::kIdemBudgetBytes) << i;
  }
  EXPECT_EQ(executions, 400);
  EXPECT_GT(t.idempotency_cache_bytes(), Transport::kIdemBudgetBytes / 2);
  // Recent keys are still answered from the cache; the oldest re-execute.
  (void)ping(t, "big-399", &executions, 5 * 1024);
  EXPECT_EQ(executions, 400);
  (void)ping(t, "big-0", &executions, 5 * 1024);
  EXPECT_EQ(executions, 401);
  t.reset_idempotency_cache();
  EXPECT_EQ(t.idempotency_cache_bytes(), 0u);
}

TEST(Transport, OversizedInFlightEntryStillAnswersRetries) {
  // A response larger than the whole budget is never evicted while its own
  // exchange retries: the lost response legs are answered from the cache.
  Network net;
  FaultPlan plan;
  plan.per_link[{"client", "server"}] = LinkFaults{};
  plan.per_link[{"server", "client"}] = LinkFaults{.drop = 0.5};
  net.set_fault_plan(plan);
  Transport& t = net.transport();
  int filler = 0;
  for (int i = 0; i < 8; ++i) {
    (void)ping(t, "small-" + std::to_string(i), &filler, 5 * 1024);
  }
  int executions = 0;
  const size_t huge = 2 * Transport::kIdemBudgetBytes;
  int retried = 0;
  for (int i = 0; i < 16; ++i) {
    CallOutcome<int> out =
        ping(t, "huge-" + std::to_string(i), &executions, huge);
    EXPECT_TRUE(out.ok()) << i;
    EXPECT_EQ(executions, i + 1) << i;  // one execution per key, retries or not
    retried += out.attempts > 1 ? 1 : 0;
  }
  EXPECT_GT(retried, 0);  // the seeded plan did drop some response legs
  EXPECT_GT(t.stats("ping").responses_lost, 0u);
  // Only the latest oversized entry is left.
  EXPECT_EQ(t.idempotency_cache_bytes(),
            huge + std::string("server").size() + std::string("huge-15").size());
}

// ---- Fault-plan verdicts on the raw network ---------------------------------

TEST(FaultPlan, PartitionWindowDropsBothDirections) {
  Network net;
  FaultPlan plan;
  // The clock starts at t = 1 s; the partition covers [1 s, 3 s).
  plan.partitions.push_back({"a", "b", 1'000'000'000, 3'000'000'000});
  net.set_fault_plan(plan);
  EXPECT_EQ(net.transmit("a", "b", 10, "p"), Delivery::kDropped);
  EXPECT_EQ(net.transmit("b", "a", 10, "p"), Delivery::kDropped);
  EXPECT_EQ(net.transmit("a", "c", 10, "p"), Delivery::kDelivered);
  net.clock().advance(3'000'000'000);
  EXPECT_EQ(net.transmit("a", "b", 10, "p"), Delivery::kDelivered);
}

TEST(FaultPlan, DowntimeWindowSilencesTheNode) {
  Network net;
  FaultPlan plan;
  plan.downtime["s"] = {{1'000'000'000, 1'500'000'000}};  // clock epoch = 1 s
  net.set_fault_plan(plan);
  EXPECT_EQ(net.transmit("a", "s", 10, "p"), Delivery::kDropped);
  EXPECT_EQ(net.transmit("s", "a", 10, "p"), Delivery::kDropped);
  EXPECT_FALSE(net.node_up("s"));
  net.clock().advance(600'000'000);
  EXPECT_TRUE(net.node_up("s"));
  EXPECT_EQ(net.transmit("a", "s", 10, "p"), Delivery::kDelivered);
}

TEST(FaultPlan, ManualOutageComposesWithThePlan) {
  Network net;  // no plan at all
  net.set_node_up("s", false);
  EXPECT_EQ(net.transmit("a", "s", 10, "p"), Delivery::kDropped);
  net.set_node_up("s", true);
  EXPECT_EQ(net.transmit("a", "s", 10, "p"), Delivery::kDelivered);
}

TEST(FaultPlan, PerLinkOverridesDefaultFaults) {
  Network net;
  FaultPlan plan;
  plan.default_faults.drop = 1.0;
  plan.per_link[{"a", "b"}] = LinkFaults{};  // the one reliable link
  net.set_fault_plan(plan);
  EXPECT_EQ(net.transmit("a", "b", 10, "p"), Delivery::kDelivered);
  EXPECT_EQ(net.transmit("b", "a", 10, "p"), Delivery::kDropped);
}

// ---- Replay cache -----------------------------------------------------------

TEST(ReplayCache, DuplicateTagRejected) {
  Network net;
  net.clock().advance(1'000'000'000);
  Bytes tag = to_bytes("mac-1");
  uint64_t now = net.clock().now();
  EXPECT_TRUE(net.accept_fresh("s", tag, now, 120'000'000'000ull));
  EXPECT_FALSE(net.accept_fresh("s", tag, now, 120'000'000'000ull));
}

TEST(ReplayCache, AgedOutTagsArePruned) {
  Network net;
  constexpr uint64_t kWindow = 120'000'000'000ull;  // 120 s
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(net.accept_fresh("s", to_bytes("mac-" + std::to_string(i)),
                                 net.clock().now(), kWindow));
    net.clock().advance(1'000'000);
  }
  EXPECT_EQ(net.replay_cache_size("s"), 50u);
  // Step past the freshness window: the next accept prunes everything stale.
  net.clock().advance(2 * kWindow);
  EXPECT_TRUE(
      net.accept_fresh("s", to_bytes("fresh"), net.clock().now(), kWindow));
  EXPECT_EQ(net.replay_cache_size("s"), 1u);
  // And a replay of a pruned tag still fails — on freshness.
  EXPECT_FALSE(net.accept_fresh("s", to_bytes("mac-0"), 0, kWindow));
}

TEST(ReplayCache, CacheStaysBoundedUnderSteadyTraffic) {
  Network net;
  constexpr uint64_t kWindow = 1'000'000'000ull;  // 1 s window
  size_t peak = 0;
  for (int i = 0; i < 2000; ++i) {
    (void)net.accept_fresh("s", to_bytes("m-" + std::to_string(i)),
                           net.clock().now(), kWindow);
    peak = std::max(peak, net.replay_cache_size("s"));
    net.clock().advance(10'000'000);  // 10 ms between messages
  }
  // ~100 messages fit in one window; the cache never grows past the live set
  // (2x window: tags stay valid for ±window around their timestamp).
  EXPECT_LE(peak, 250u);
  EXPECT_LT(net.replay_cache_size("s"), 2000u);
}

TEST(ReplayCache, IndexMatchesEraseAllModelOnOutOfOrderTimestamps) {
  // Differential check of the timestamp-ordered pruning index against the
  // original model: one tag map, erase every aged-out entry on each call.
  Network net;
  std::map<Bytes, uint64_t> model;
  auto model_accept = [&](const Bytes& tag, uint64_t ts, uint64_t window) {
    const uint64_t now = net.clock().now();
    const uint64_t lo = now > window ? now - window : 0;
    std::erase_if(model, [lo](const auto& kv) { return kv.second < lo; });
    if (ts < lo || ts > now + window) return false;
    return model.try_emplace(tag, ts).second;
  };
  cipher::Drbg rng(to_bytes("replay-index-differential"));
  constexpr uint64_t kWindow = 500'000'000;  // 0.5 s
  for (int i = 0; i < 5000; ++i) {
    // Timestamps scatter up to 1.5 windows either side of now (so some are
    // stale or future on arrival); tags repeat often enough to exercise
    // replays of live and of pruned entries.
    const uint64_t now = net.clock().now();
    const uint64_t spread = rng.u64() % (3 * kWindow);
    const uint64_t ts = now + spread > 3 * kWindow / 2
                            ? now + spread - 3 * kWindow / 2
                            : 0;
    const Bytes tag = to_bytes("t-" + std::to_string(rng.u64() % 700));
    const bool want = model_accept(tag, ts, kWindow);
    ASSERT_EQ(net.accept_fresh("s", tag, ts, kWindow), want) << i;
    ASSERT_EQ(net.replay_cache_size("s"), model.size()) << i;
    net.clock().advance(rng.u64() % 2'000'000);
  }
}

// ---- Error taxonomy ---------------------------------------------------------

TEST(Errors, ClassAndCodeRoundTrip) {
  core::ProtocolError e = core::transient_error(core::ErrorCode::kTimeout, 3,
                                                "test");
  EXPECT_TRUE(e.transient());
  EXPECT_EQ(e.attempts, 3u);
  EXPECT_STREQ(core::to_string(e.code), "timeout");
  core::ProtocolError p = core::permanent_error(core::ErrorCode::kRevoked);
  EXPECT_FALSE(p.transient());
  EXPECT_STREQ(core::to_string(p.code), "revoked");
}

TEST(Errors, ResultAccessDiscipline) {
  core::Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_THROW((void)ok.error(), std::logic_error);
  core::Result<int> bad(core::permanent_error(core::ErrorCode::kRejected));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW((void)bad.value(), std::logic_error);
  core::Result<void> fine;
  EXPECT_TRUE(fine.ok());
}

}  // namespace
}  // namespace hcpp::sim
