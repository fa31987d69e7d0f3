#include "src/core/messages.h"

#include "src/hash/hmac.h"
#include "src/obs/metrics.h"

namespace hcpp::core {

Bytes protocol_mac(BytesView key, std::string_view label, BytesView body,
                   uint64_t timestamp_ns) {
  io::Writer w;
  w.str(label);
  w.bytes(body);
  w.u64(timestamp_ns);
  return hash::hmac_sha256(key, w.data());
}

bool protocol_mac_ok(BytesView key, std::string_view label, BytesView body,
                     uint64_t timestamp_ns, BytesView mac) {
  Bytes expected = protocol_mac(key, label, body, timestamp_ns);
  return ct_equal(expected, mac);
}

std::vector<sse::PlainFile> decrypt_files(const sse::Keys& keys,
                                          const RetrieveResponse& resp) {
  std::vector<sse::PlainFile> out;
  out.reserve(resp.files.size());
  for (const auto& [id, blob] : resp.files) {
    try {
      out.push_back(sse::decrypt_file(keys, blob));
    } catch (const std::exception&) {
      obs::count(obs::kRetrieveBlobsSkipped);
    }
  }
  return out;
}

namespace {
void put_vec(io::Writer& w, const std::vector<Bytes>& v) {
  w.u32(static_cast<uint32_t>(v.size()));
  for (const Bytes& b : v) w.bytes(b);
}
}  // namespace

namespace {
Bytes wire_of(BytesView body, uint64_t t, BytesView mac) {
  io::Writer w;
  w.bytes(body);
  w.u64(t);
  w.bytes(mac);
  return w.take();
}
}  // namespace

Bytes StoreRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(collection);
  w.bytes(index);
  w.bytes(files);
  w.bytes(d);
  w.bytes(be_blob);
  return w.take();
}
size_t StoreRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes StoreRequest::to_wire() const { return wire_of(body(), t, mac); }

StoreRequest StoreRequest::from_wire(BytesView bv) {
  io::Reader outer(bv);
  Bytes body_bytes = outer.bytes();
  StoreRequest req;
  req.t = outer.u64();
  req.mac = outer.bytes();
  io::Reader r(body_bytes);
  req.tp = r.bytes();
  req.collection = r.str();
  req.index = r.bytes();
  req.files = r.bytes();
  req.d = r.bytes();
  req.be_blob = r.bytes();
  return req;
}

Bytes RetrieveRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(collection);
  put_vec(w, trapdoors);
  return w.take();
}
size_t RetrieveRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes RetrieveRequest::to_wire() const { return wire_of(body(), t, mac); }

RetrieveRequest RetrieveRequest::from_wire(BytesView bv) {
  io::Reader outer(bv);
  Bytes body_bytes = outer.bytes();
  RetrieveRequest req;
  req.t = outer.u64();
  req.mac = outer.bytes();
  io::Reader r(body_bytes);
  req.tp = r.bytes();
  req.collection = r.str();
  size_t n = r.count32(4);  // each trapdoor: u32 length prefix
  req.trapdoors.reserve(n);
  for (size_t i = 0; i < n; ++i) req.trapdoors.push_back(r.bytes());
  return req;
}

Bytes RetrieveResponse::body() const {
  io::Writer w;
  w.u32(static_cast<uint32_t>(files.size()));
  for (const auto& [id, blob] : files) {
    w.u64(id);
    w.bytes(blob);
  }
  return w.take();
}
size_t RetrieveResponse::wire_size() const { return body().size() + 8 + 32; }

Bytes RetrieveResponse::to_wire() const { return wire_of(body(), t, mac); }

RetrieveResponse RetrieveResponse::from_wire(BytesView bv) {
  io::Reader outer(bv);
  Bytes body_bytes = outer.bytes();
  RetrieveResponse resp;
  resp.t = outer.u64();
  resp.mac = outer.bytes();
  io::Reader r(body_bytes);
  size_t n = r.count32(12);  // each file: u64 id + u32 length prefix
  resp.files.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sse::FileId id = r.u64();
    resp.files.emplace_back(id, r.bytes());
  }
  return resp;
}

Bytes BeBlobRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(collection);
  return w.take();
}
size_t BeBlobRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes BeBlobResponse::body() const {
  io::Writer w;
  w.bytes(be_blob);
  return w.take();
}
size_t BeBlobResponse::wire_size() const { return body().size() + 8 + 32; }

Bytes PrivilegedRetrieveRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(collection);
  put_vec(w, wrapped_trapdoors);
  return w.take();
}
size_t PrivilegedRetrieveRequest::wire_size() const {
  return body().size() + 8 + 32;
}

Bytes UpdateRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(collection);
  w.u32(static_cast<uint32_t>(log_inserts.size()));
  for (const auto& [label, entry] : log_inserts) {
    w.str(label);
    w.bytes(entry);
  }
  w.u32(static_cast<uint32_t>(files_upsert.size()));
  for (const auto& [id, blob] : files_upsert) {
    w.u64(id);
    w.bytes(blob);
  }
  w.u32(static_cast<uint32_t>(files_remove.size()));
  for (sse::FileId id : files_remove) w.u64(id);
  return w.take();
}
size_t UpdateRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes CompactRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(collection);
  w.bytes(index);
  return w.take();
}
size_t CompactRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes RevokeRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(collection);
  w.bytes(sealed);
  return w.take();
}
size_t RevokeRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes EmergencyAuthRequest::body() const {
  io::Writer w;
  w.str(physician_id);
  w.str("passcode-request");  // the paper's m'
  w.bytes(tp);
  w.u64(t);
  return w.take();
}
size_t EmergencyAuthRequest::wire_size() const {
  return body().size() + sig.size();
}

Bytes PasscodeToPhysician::body(std::string_view physician_id,
                                BytesView tp) const {
  io::Writer w;
  w.str(physician_id);
  w.bytes(tp);
  w.bytes(enc_nonce);
  w.u64(t);
  return w.take();
}
size_t PasscodeToPhysician::wire_size() const {
  return enc_nonce.size() + 8 + sig.size();
}

Bytes PasscodeToPDevice::body(BytesView tp) const {
  io::Writer w;
  w.str(physician_id);
  w.bytes(tp);
  w.bytes(ibe_blob);
  w.u64(t);
  return w.take();
}
size_t PasscodeToPDevice::wire_size() const {
  return physician_id.size() + ibe_blob.size() + 8 + sig.size() +
         audit_sig.size();
}

Bytes rd_statement(std::string_view physician_id, BytesView tp,
                   uint64_t t11) {
  io::Writer w;
  w.str("hcpp-rd-statement");
  w.str(physician_id);
  w.bytes(tp);
  w.u64(t11);
  return w.take();
}

Bytes MhiStoreRequest::body() const {
  io::Writer w;
  w.bytes(tp);
  w.str(role_id);
  put_vec(w, peks_tags);
  w.bytes(ibe_blob);
  return w.take();
}
size_t MhiStoreRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes RoleKeyRequest::body() const {
  io::Writer w;
  w.str(physician_id);
  w.str(role_id);
  w.u64(t);
  return w.take();
}
size_t RoleKeyRequest::wire_size() const { return body().size() + sig.size(); }

Bytes MhiRetrieveRequest::body() const {
  io::Writer w;
  w.str(physician_id);
  w.str(role_id);
  w.bytes(trapdoor);
  return w.take();
}
size_t MhiRetrieveRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes MhiRetrieveResponse::body() const {
  io::Writer w;
  put_vec(w, ibe_blobs);
  return w.take();
}
size_t MhiRetrieveResponse::wire_size() const {
  return body().size() + 8 + 32;
}

Bytes MhiRegisterRequest::body() const {
  io::Writer w;
  w.str(physician_id);
  w.str(role_id);
  w.bytes(trapdoor);
  return w.take();
}
size_t MhiRegisterRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes MhiHitsRequest::body() const {
  io::Writer w;
  w.str(physician_id);
  w.str(role_id);
  return w.take();
}
size_t MhiHitsRequest::wire_size() const { return body().size() + 8 + 32; }

Bytes MhiHitsResponse::body() const {
  io::Writer w;
  put_vec(w, ibe_blobs);
  return w.take();
}
size_t MhiHitsResponse::wire_size() const { return body().size() + 8 + 32; }

Bytes TraceRecord::body() const {
  io::Writer w;
  w.str(physician_id);
  w.bytes(tp);
  w.u64(t10);
  w.u64(t11);
  return w.take();
}

Bytes RdRecord::body() const {
  io::Writer w;
  w.str(physician_id);
  w.bytes(tp);
  w.u32(static_cast<uint32_t>(keywords.size()));
  for (const std::string& kw : keywords) w.str(kw);
  w.u64(t11);
  return w.take();
}

Bytes RdRecord::to_bytes() const {
  io::Writer w;
  w.bytes(body());
  w.bytes(aserver_sig);
  return w.take();
}

RdRecord RdRecord::from_bytes(BytesView b) {
  io::Reader outer(b);
  Bytes body_bytes = outer.bytes();
  RdRecord rd;
  rd.aserver_sig = outer.bytes();
  io::Reader r(body_bytes);
  rd.physician_id = r.str();
  rd.tp = r.bytes();
  size_t n = r.count32(4);  // each keyword: u32 length prefix
  rd.keywords.reserve(n);
  for (size_t i = 0; i < n; ++i) rd.keywords.push_back(r.str());
  rd.t11 = r.u64();
  return rd;
}

}  // namespace hcpp::core
