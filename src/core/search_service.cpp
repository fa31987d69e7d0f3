#include "src/core/search_service.h"

#include <set>
#include <stdexcept>

#include "src/core/cluster.h"
#include "src/core/coalesce.h"
#include "src/obs/trace.h"
#include "src/par/pool.h"
#include "src/sse/sse.h"
#include "src/store/shard.h"

namespace hcpp::core {

SearchService::SearchService(par::ThreadPool* pool, size_t shards)
    : pool_(pool) {
  if (shards == 0) {
    throw std::invalid_argument("SearchService: need at least one shard");
  }
  snapshots_.resize(shards);
  for (auto& snap : snapshots_) snap = std::make_shared<const SnapshotMap>();
}

void SearchService::publish(const SServer& server) {
  if (snapshots_.size() != 1) {
    throw std::logic_error(
        "SearchService: whole-service publish on a sharded service; use "
        "publish_shard or publish(SServerGroup&)");
  }
  publish_shard(0, server);
}

void SearchService::publish_shard(size_t shard, const SServer& server) {
  auto snap = std::make_shared<const SnapshotMap>(server.snapshot_accounts());
  std::lock_guard<std::mutex> lock(mu_);
  snapshots_.at(shard) = std::move(snap);
}

void SearchService::publish(SServerGroup& group) {
  if (group.size() != snapshots_.size()) {
    throw std::invalid_argument(
        "SearchService: group size does not match shard count");
  }
  for (size_t i = 0; i < group.size(); ++i) {
    publish_shard(i, group.replica(i));
  }
}

std::shared_ptr<const SearchService::SnapshotMap> SearchService::current(
    size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_.at(shard);
}

SearchService::ShardViews SearchService::current_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_;
}

const SearchService::SnapshotMap& SearchService::view_for(
    const ShardViews& views, const std::string& account_key) {
  return *views[store::shard_for_key(account_key, views.size())];
}

size_t SearchService::account_count() const {
  ShardViews views = current_all();
  size_t n = 0;
  for (const auto& snap : views) n += snap->size();
  return n;
}

SearchService::Result SearchService::answer(const SnapshotMap& snap,
                                            const Query& q) {
  Result res;
  auto it = snap.find(q.account);
  if (it == snap.end()) return res;
  const AccountSnapshot& acct = it->second;
  res.account_found = true;

  // Snapshots published before the dynamic layer carry no log pointer.
  static const sse::UpdateLog kEmptyLog;
  const sse::UpdateLog& log = acct.log ? *acct.log : kEmptyLog;
  std::set<sse::FileId> matched;
  if (q.privileged) {
    // One θ_d key schedule per trapdoor width for the whole query; invalid
    // blobs (stale d, corruption) contribute nothing. Serial here — the
    // query already runs on a pool worker and tasks must not nest (pool.h).
    for (sse::FileId id :
         sse::search_wrapped_mixed(*acct.index, log, acct.d, q.wrapped)) {
      matched.insert(id);
    }
  } else {
    for (const sse::Trapdoor& td : q.trapdoors) {
      for (sse::FileId id : sse::search(*acct.index, td)) matched.insert(id);
    }
    for (sse::FileId id :
         sse::search_mixed(*acct.index, log, q.trapdoor_blobs)) {
      matched.insert(id);
    }
  }
  for (sse::FileId id : matched) {
    auto fit = acct.files->files.find(id);
    if (fit != acct.files->files.end()) {
      res.matches.push_back({id, fit->second});
    }
  }
  return res;
}

std::vector<SearchService::Result> SearchService::search_batch(
    std::span<const Query> queries) const {
  obs::Span span("sserver:search_batch");
  // One acquire of every shard pointer for the whole batch: every worker
  // reads the same immutable snapshots, so a concurrent publish (on any
  // shard) cannot tear a batch.
  ShardViews views = current_all();
  std::vector<Result> out(queries.size());
  auto answer_one = [&](size_t i) {
    out[i] = answer(view_for(views, queries[i].account), queries[i]);
  };
  if (pool_ == nullptr || queries.size() <= 1) {
    for (size_t i = 0; i < queries.size(); ++i) answer_one(i);
    return out;
  }
  pool_->parallel_for(queries.size(), answer_one);
  return out;
}

SearchService::Result SearchService::search(const Query& query) const {
  ShardViews views = current_all();
  return answer(view_for(views, query.account), query);
}

std::vector<std::optional<RetrieveResponse>>
SearchService::search_batch_privileged(
    const SServer& server,
    std::span<const PrivilegedRetrieveRequest> reqs) const {
  obs::Span span("sserver:search_batch_privileged");
  std::vector<std::optional<RetrieveResponse>> out(reqs.size());
  if (reqs.empty()) return out;
  ShardViews views = current_all();
  const curve::CurveCtx& ctx = *server.nu_deriver().ctx();
  sim::Network& net = server.net();

  // Stage 1: ν of a published account comes off its snapshot (the live
  // server's account-bound ν); every other ν of the batch is derived in one
  // coalescer drain — requests presenting the same pseudonym share a
  // single pairing. The subgroup guard mirrors SServer::shared_key_for.
  PairingCoalescer co(ctx);
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> ticket(reqs.size(), kNone);
  std::vector<const AccountSnapshot*> accts(reqs.size(), nullptr);
  for (size_t i = 0; i < reqs.size(); ++i) {
    std::string key = SServer::account_key(reqs[i].tp, reqs[i].collection);
    const SnapshotMap& snap = view_for(views, key);
    if (auto it = snap.find(key); it != snap.end()) accts[i] = &it->second;
    if (accts[i] != nullptr && !accts[i]->nu.empty()) continue;
    try {
      curve::Point tp = curve::point_from_bytes(ctx, reqs[i].tp);
      if (!curve::in_prime_subgroup(ctx, tp)) continue;
      ticket[i] = co.add_shared_key(server.nu_deriver(), tp);
    } catch (const std::exception&) {
      // malformed pseudonym point: rejected below
    }
  }
  PairingCoalescer::Drained drained = co.drain(pool_);
  auto nu_of = [&](size_t i) -> const Bytes* {
    if (ticket[i] != kNone) return &drained.shared_keys[ticket[i]];
    return accts[i] != nullptr && !accts[i]->nu.empty() ? &accts[i]->nu
                                                        : nullptr;
  };

  // Stage 2: MAC and freshness in arrival order — the replay cache mutates,
  // so a duplicate inside the batch is rejected exactly as if it had
  // arrived one request later.
  std::vector<uint8_t> accepted(reqs.size(), 0);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Bytes* nu = nu_of(i);
    if (nu == nullptr) continue;
    const PrivilegedRetrieveRequest& req = reqs[i];
    if (!protocol_mac_ok(*nu, kPrivilegedRetrieveLabel, req.body(), req.t,
                         req.mac)) {
      continue;
    }
    if (!net.accept_fresh(server.id(), req.mac, req.t, kFreshnessWindowNs)) {
      continue;
    }
    accepted[i] = 1;
  }

  // Stage 3: answer the accepted queries from the snapshot, parallel over
  // requests — const snapshot state only, like search_batch.
  const uint64_t now = net.clock().now();
  auto answer_one = [&](size_t i) {
    if (!accepted[i] || accts[i] == nullptr) return;
    const PrivilegedRetrieveRequest& req = reqs[i];
    const AccountSnapshot& acct = *accts[i];
    static const sse::UpdateLog kEmptyLog;
    const sse::UpdateLog& log = acct.log ? *acct.log : kEmptyLog;
    RetrieveResponse resp;
    for (sse::FileId id : sse::search_wrapped_mixed(
             *acct.index, log, acct.d, req.wrapped_trapdoors)) {
      auto fit = acct.files->files.find(id);
      if (fit != acct.files->files.end()) {
        resp.files.emplace_back(id, fit->second);
      }
    }
    resp.t = now;
    resp.mac = protocol_mac(*nu_of(i), kPrivilegedRetrieveLabel, resp.body(),
                            resp.t);
    out[i] = std::move(resp);
  };
  if (pool_ == nullptr || reqs.size() <= 1) {
    for (size_t i = 0; i < reqs.size(); ++i) answer_one(i);
  } else {
    pool_->parallel_for(reqs.size(), answer_one);
  }
  return out;
}

}  // namespace hcpp::core
