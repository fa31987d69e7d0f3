#include "probe.h"

#include <filesystem>

#include "src/core/accountability.h"
#include "src/curve/pairing.h"
#include "src/ibc/ibe.h"
#include "src/ibc/ibs.h"
#include "src/ledger/ledger.h"
#include "src/peks/peks.h"
#include "src/sse/dynamic.h"
#include "src/store/store.h"

namespace hcpp::perfbench {

namespace {

// Results are folded into this sink so the optimizer cannot drop a probe.
volatile uint64_t g_sink = 0;
void sink(BytesView b) { g_sink = g_sink + (b.empty() ? 0 : b[0]) + b.size(); }
void sink(uint64_t v) { g_sink = g_sink + v; }

/// Median over `reps` timed calls of `body`, in µs per `per_call` units.
template <typename F>
double median_us(int reps, double per_call, F&& body) {
  std::vector<double> t;
  t.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = now_ns();
    body(i);
    t.push_back(static_cast<double>(now_ns() - t0) / 1e3 / per_call);
  }
  return median(std::move(t));
}

}  // namespace

double probe_pairing_us(const curve::CurveCtx& ctx) {
  cipher::Drbg rng(to_bytes("perfbench-host-pairing"));
  curve::Point p = curve::mul_generator(ctx, curve::random_scalar(ctx, rng));
  curve::Point q = curve::mul_generator(ctx, curve::random_scalar(ctx, rng));
  return median_us(15, 1, [&](int) {
    sink(curve::pairing(ctx, p, q).to_bytes());
  });
}

UnitCosts probe_layers(const ProbeInputs& in, Metrics& m) {
  const core::AServer& as = *in.aserver;
  const core::Patient& pt = *in.patient;
  const curve::CurveCtx& ctx = as.ctx();
  const ibc::PublicParams& pub = as.pub();
  cipher::Drbg rng(to_bytes("perfbench-probe"));
  UnitCosts u;

  // ---- mp: one production-width Montgomery multiplication.
  {
    const mp::MontCtx& mc = ctx.fp.mont;
    curve::Point tp = curve::point_from_bytes(ctx, pt.tp_bytes());
    mp::U512 a = tp.x.value();
    const mp::U512 b = tp.y.value();
    constexpr int kMuls = 20000;
    double ns = median_us(9, kMuls, [&](int) {
                  for (int i = 0; i < kMuls; ++i) a = mc.mul(a, b);
                }) * 1e3;
    sink(a.w[0]);
    m.set("mp.mont_mul_ns", ns, "ns");
  }

  // ---- curve: pairings on the patient's pseudonym and a physician identity.
  const curve::Point tp = curve::point_from_bytes(ctx, pt.tp_bytes());
  const curve::Point id_pk = ibc::Domain::public_key(ctx, in.physician_id);
  u.pairing_us = median_us(15, 1, [&](int) {
    sink(curve::pairing(ctx, tp, id_pk).to_bytes());
  });
  const curve::PairingPrecomp pre(ctx, id_pk);
  u.pairing_fixed_us = median_us(15, 1, [&](int) {
    sink(pre.pairing_with(tp).to_bytes());
  });
  u.miller_fixed_us = median_us(15, 1, [&](int) {
    sink(pre.miller_with(tp).re().value().w[0]);
  });
  u.hash_to_point_us = median_us(15, 1, [&](int i) {
    sink(curve::point_to_bytes(curve::hash_to_point(
        ctx, to_bytes(in.physician_id + "#" + std::to_string(i)))));
  });
  const mp::U512 k = curve::random_scalar(ctx, rng);
  u.point_mul_us = median_us(15, 1, [&](int) {
    sink(curve::point_to_bytes(curve::mul(ctx, tp, k)));
  });
  m.set("curve.pairing_us", u.pairing_us, "us");
  m.set("curve.pairing_fixed_us", u.pairing_fixed_us, "us");
  m.set("curve.hash_to_point_us", u.hash_to_point_us, "us");

  // ---- ibc: IBS over a request body, IBE of one PHI file's content.
  {
    const curve::Point key = as.provision(in.physician_id);
    const Bytes msg = pt.tp_bytes();
    ibc::IbsSignature sig;
    double sign = median_us(11, 1, [&](int) {
      sig = ibc::ibs_sign(ctx, key, in.physician_id, msg, rng);
    });
    double verify = median_us(11, 1, [&](int) {
      sink(ibc::ibs_verify(pub, in.physician_id, msg, sig) ? 1 : 0);
    });
    const Bytes& payload = pt.files().front().content;
    ibc::IbeCiphertext ct;
    double enc = median_us(11, 1, [&](int) {
      ct = ibc::ibe_encrypt(pub, in.role_id, payload, rng);
    });
    const curve::Point role_key = as.domain().extract(in.role_id);
    double dec = median_us(11, 1, [&](int) {
      sink(ibc::ibe_decrypt(ctx, role_key, ct));
    });
    m.set("ibc.ibs_sign_us", sign, "us");
    m.set("ibc.ibs_verify_us", verify, "us");
    m.set("ibc.ibe_encrypt_us", enc, "us");
    m.set("ibc.ibe_decrypt_us", dec, "us");
  }

  // ---- sse / cipher / core: the patient's own index, blobs and messages.
  const auto snaps = in.server->snapshot_accounts();
  const core::AccountSnapshot& acct =
      snaps.at(core::SServer::account_key(pt.tp_bytes(), pt.collection()));
  const sse::UpdateLog empty_log;
  const sse::UpdateLog& log = acct.log ? *acct.log : empty_log;
  std::vector<std::string> aliases;
  for (const std::string& kw : in.keywords) {
    aliases.push_back(core::keyword_alias(kw, 0));
  }
  {
    std::vector<Bytes> tds;
    double trapdoor = median_us(21, static_cast<double>(aliases.size()),
                                [&](int) {
                                  tds.clear();
                                  sse::TrapdoorGen gen(pt.keys());
                                  for (const std::string& a : aliases) {
                                    tds.push_back(gen.make(a).to_bytes());
                                  }
                                });
    double search = median_us(21, static_cast<double>(tds.size()), [&](int) {
      for (const Bytes& td : tds) {
        std::span<const Bytes> one(&td, 1);
        sink(sse::search_mixed(*acct.index, log, one).size());
      }
    });
    sse::Updater up(pt.keys(), pt.update_state());
    double add = median_us(21, 1, [&](int i) {
      sink(up.add(aliases[static_cast<size_t>(i) % aliases.size()],
                  static_cast<sse::FileId>(100000 + i))
               .label.size());
    });
    const std::vector<sse::PlainFile> aliased =
        core::apply_keyword_aliases(pt.files(), pt.keyword_aliases());
    double build_ms = median_us(7, 1e3, [&](int) {
      sink(sse::build_index(aliased, pt.keys(), rng).to_bytes());
    });
    m.set("sse.trapdoor_us", trapdoor, "us");
    m.set("sse.search_us", search, "us");
    m.set("sse.update_add_us", add, "us");
    m.set("sse.index_build_ms", build_ms, "ms");

    const auto& files = acct.files->files;
    std::vector<const Bytes*> blobs;
    for (const auto& [id, blob] : files) blobs.push_back(&blob);
    double aead = median_us(21, static_cast<double>(blobs.size()), [&](int) {
      for (const Bytes* b : blobs) {
        sink(sse::decrypt_file(pt.keys(), *b).content);
      }
    });
    m.set("cipher.aead_decrypt_us", aead, "us");

    core::RetrieveRequest req;
    req.tp = pt.tp_bytes();
    req.collection = pt.collection();
    req.trapdoors = tds;
    req.t = 1;
    req.mac = Bytes(32, 0xa5);
    core::RetrieveResponse resp;
    for (const sse::PlainFile& f : files_with_any(pt.files(), in.keywords)) {
      auto it = files.find(f.id);
      if (it != files.end()) resp.files.emplace_back(f.id, it->second);
    }
    resp.t = 2;
    resp.mac = Bytes(32, 0x5a);
    Bytes wreq, wresp;
    double encode = median_us(51, 1, [&](int) {
      wreq = req.to_wire();
      wresp = resp.to_wire();
    });
    double decode = median_us(51, 1, [&](int) {
      sink(core::RetrieveRequest::from_wire(wreq).trapdoors.size());
      sink(core::RetrieveResponse::from_wire(wresp).files.size());
    });
    m.set("core.encode_us", encode, "us");
    m.set("core.decode_us", decode, "us");

    // ---- store: write-through puts of this account's file records.
    const std::string dir = in.scratch_dir + "/probe-store";
    std::filesystem::remove_all(dir);
    {
      store::AccountStore st = store::AccountStore::open(dir);
      u.store_put_us =
          median_us(21, static_cast<double>(blobs.size()), [&](int rep) {
            size_t j = 0;
            for (const Bytes* b : blobs) {
              sink(st.put("acct#f/" + std::to_string(rep) + "/" +
                              std::to_string(j++),
                          *b)
                       ? 1
                       : 0);
            }
          });
    }
    std::filesystem::remove_all(dir);
    m.set("store.put_us", u.store_put_us, "us");
  }

  // ---- ledger: TR appends for this physician and patient.
  {
    ledger::Ledger ledger("perfbench-probe");
    core::TraceRecord tr;
    tr.physician_id = in.physician_id;
    tr.tp = pt.tp_bytes();
    tr.physician_sig = Bytes(130, 0x11);
    constexpr int kAppends = 32;
    u.ledger_append_us = median_us(11, kAppends, [&](int rep) {
      for (int i = 0; i < kAppends; ++i) {
        tr.t10 = tr.t11 = static_cast<uint64_t>(rep * kAppends + i);
        sink(ledger.append(core::event_from_trace(tr)));
      }
    });
    m.set("ledger.append_us", u.ledger_append_us, "us");
  }

  // ---- peks: cached tag encryption and the batched standing-query test.
  {
    peks::PeksEncryptor enc(pub);
    std::vector<peks::PeksCiphertext> tags;
    tags.push_back(enc.encrypt(in.role_id, "vitals:anomalous", rng));
    double cached = median_us(21, 1, [&](int i) {
      tags.push_back(enc.encrypt(
          in.role_id, i % 4 == 0 ? "vitals:anomalous" : "vitals:normal", rng));
    });
    tags.resize(16);
    const peks::Trapdoor td = peks::peks_trapdoor(
        ctx, as.domain().extract(in.role_id), "vitals:anomalous");
    double test = median_us(7, static_cast<double>(tags.size()), [&](int) {
      sink(peks::peks_test_batch(ctx, tags, td).size());
    });
    m.set("peks.encrypt_cached_us", cached, "us");
    m.set("peks.test_batch_us_per_tag", test, "us");
  }
  return u;
}

}  // namespace hcpp::perfbench
