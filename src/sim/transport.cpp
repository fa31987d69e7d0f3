#include "src/sim/transport.h"

namespace hcpp::sim {

DeliveryStats Transport::stats(const std::string& protocol) const {
  auto it = per_protocol_.find(protocol);
  return it == per_protocol_.end() ? DeliveryStats{} : it->second;
}

void Transport::reset_stats() {
  per_protocol_.clear();
  total_ = DeliveryStats{};
}

void Transport::reset_idempotency_cache() {
  idem_.clear();
  idem_order_.clear();
  idem_bytes_ = 0;
}

void Transport::remember(const IdemKey& key, CacheEntry entry) {
  const size_t bytes = entry.bytes;
  if (!idem_.emplace(key, std::move(entry)).second) return;
  idem_order_.push_back(key);
  idem_bytes_ += bytes;
  while (idem_bytes_ > kIdemBudgetBytes && idem_order_.size() > 1) {
    auto oldest = idem_.find(idem_order_.front());
    idem_bytes_ -= oldest->second.bytes;
    idem_.erase(oldest);
    idem_order_.pop_front();
  }
}

uint64_t Transport::backoff_ns(uint32_t n) {
  double d = static_cast<double>(policy_.base_backoff_ns) *
             std::pow(policy_.multiplier, static_cast<double>(n - 1));
  d = std::min(d, static_cast<double>(policy_.max_backoff_ns));
  if (policy_.jitter > 0) {
    double u = static_cast<double>(net_->fault_u64() >> 11) * 0x1.0p-53;
    d *= 1.0 + policy_.jitter * (2.0 * u - 1.0);
  }
  return static_cast<uint64_t>(d);
}

void Transport::bump(DeliveryStats& ps, uint64_t DeliveryStats::* field,
                     const char* metric) {
  ps.*field += 1;
  total_.*field += 1;
  obs::count(metric);
}

}  // namespace hcpp::sim
