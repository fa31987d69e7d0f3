// The client end of one exchange with an S-server or A-server: a typed
// request through the retrying transport (sim::Transport::request), mapped
// onto the error taxonomy of errors.h. Every §IV client flow sends through
// Caller::call, so a transport outcome is interpreted in exactly one place.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/core/entities.h"
#include "src/core/errors.h"
#include "src/sim/transport.h"

namespace hcpp::core {

/// What a handler's return type delivers to the client: a bool handler is an
/// acknowledgement (void), an optional<Resp> one a typed response.
template <typename Ret>
struct Reply;
template <>
struct Reply<bool> {
  using type = void;
};
template <typename Resp>
struct Reply<std::optional<Resp>> {
  using type = Resp;
};

/// Bytes the response leg of an exchange charges on the network.
template <typename Resp>
size_t response_bytes(const Resp& resp) {
  return resp.wire_size();
}
inline size_t response_bytes(const curve::Point& role_key) {
  return curve::point_to_bytes(role_key).size();
}
/// Only the physician's passcode travels back on the authentication
/// exchange; the push to the P-device is charged as its own message.
inline size_t response_bytes(const AServer::EmergencyAuthOutcome& out) {
  return out.to_physician.wire_size();
}

struct Caller {
  sim::Network& net;
  const std::string& from;
  /// Wire attempts this caller's exchanges have spent so far. Every error a
  /// call raises reports the running total, so an error in the second round
  /// of a two-round flow accounts for both rounds.
  uint32_t attempts = 0;

  /// Sends `req` to `server`, where `handler` runs at most once per
  /// idempotency key (the request MAC, or the IBS of a signed A-server
  /// request). A spent retry budget is a transient kTimeout and a refusal a
  /// permanent kRejected; `what` names the request in both. A bool handler
  /// answers with an acknowledgement the network does not charge (uploads
  /// cost one message in the §V.B.2 accounting).
  template <typename Server, typename Ret, typename Req>
  Result<typename Reply<Ret>::type> call(Server& server,
                                         Ret (Server::*handler)(const Req&),
                                         const Req& req, const char* label,
                                         std::string_view what) {
    using Resp = typename Reply<Ret>::type;
    constexpr bool kAck = std::is_void_v<Resp>;
    using Wire = std::conditional_t<kAck, bool, Resp>;
    BytesView key;
    if constexpr (requires { req.mac; }) {
      key = req.mac;
    } else {
      key = req.sig;
    }
    sim::CallOutcome<Wire> out = net.transport().request<Wire>(
        from, server.id(), req.wire_size(), key, label,
        [&]() -> std::optional<Wire> {
          if constexpr (kAck) {
            if (!(server.*handler)(req)) return std::nullopt;
            return true;
          } else {
            return (server.*handler)(req);
          }
        },
        [](const Wire& resp) -> size_t {
          if constexpr (kAck) {
            return 0;
          } else {
            return response_bytes(resp);
          }
        });
    attempts += out.attempts;
    if (out.status == sim::CallStatus::kExhausted) {
      return transient_error(ErrorCode::kTimeout, attempts,
                             std::string(what) + " undelivered after retries");
    }
    if (out.status == sim::CallStatus::kRejected) {
      return permanent_error(ErrorCode::kRejected, attempts,
                             server.id() + " refused the " + std::string(what));
    }
    if constexpr (kAck) {
      return {};
    } else {
      return std::move(*out.response);
    }
  }
};

}  // namespace hcpp::core
