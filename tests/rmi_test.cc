// Unit tests for src/rmi: registry, hasher, wire encoding and the
// ProxyRuntime details not already covered end-to-end.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>

#include "apps/synthetic/generator.h"
#include "core/montsalvat.h"
#include "dsl/parser.h"
#include "rmi/batch.h"
#include "rmi/hasher.h"
#include "rmi/registry.h"
#include "rmi/wire.h"

namespace msv::rmi {
namespace {

using rt::Value;

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : domain_(env_), iso_(env_, domain_, rt::Isolate::Config{"r", 1 << 20}) {}

  Env env_;
  UntrustedDomain domain_;
  rt::Isolate iso_;
};

TEST_F(RegistryTest, AddGetRemove) {
  MirrorProxyRegistry reg(iso_);
  const rt::GcRef obj = iso_.new_instance(1, 0);
  reg.add(42, obj);
  EXPECT_TRUE(reg.contains(42));
  EXPECT_TRUE(reg.get(42).same_object(obj));
  EXPECT_EQ(reg.size(), 1u);
  reg.remove(42);
  EXPECT_FALSE(reg.contains(42));
  EXPECT_THROW(reg.get(42), RuntimeFault);
}

TEST_F(RegistryTest, RemoveIsIdempotent) {
  MirrorProxyRegistry reg(iso_);
  reg.remove(7);  // no throw
  EXPECT_EQ(reg.stats().removes, 0u);
}

TEST_F(RegistryTest, HashCollisionDetected) {
  MirrorProxyRegistry reg(iso_);
  reg.add(1, iso_.new_instance(1, 0));
  EXPECT_THROW(reg.add(1, iso_.new_instance(1, 0)), RuntimeFault);
}

TEST_F(RegistryTest, ReverseLookupByIdentity) {
  MirrorProxyRegistry reg(iso_);
  const rt::GcRef a = iso_.new_instance(1, 0);
  const rt::GcRef b = iso_.new_instance(1, 0);
  reg.add(11, a);
  EXPECT_EQ(reg.hash_for(a), std::optional<std::int64_t>(11));
  EXPECT_FALSE(reg.hash_for(b).has_value());
}

TEST_F(RegistryTest, ReverseLookupSurvivesGc) {
  MirrorProxyRegistry reg(iso_);
  const rt::GcRef a = iso_.new_instance(1, 0);
  reg.add(99, a);
  iso_.heap().collect();  // moves the object
  EXPECT_EQ(reg.hash_for(a), std::optional<std::int64_t>(99));
  EXPECT_TRUE(reg.get(99).same_object(a));
}

TEST_F(RegistryTest, StrongRefKeepsMirrorAlive) {
  MirrorProxyRegistry reg(iso_);
  reg.add(5, iso_.new_instance(1, 0));
  const std::uint64_t used_before = iso_.heap().used_bytes();
  iso_.heap().collect();
  EXPECT_EQ(iso_.heap().used_bytes(), used_before)
      << "the registry's strong reference is a GC root";
  reg.remove(5);
  iso_.heap().collect();
  EXPECT_LT(iso_.heap().used_bytes(), used_before);
}

TEST(ProxyHasher, IdentitySchemeReturnsIdentityHash) {
  ProxyHasher h(HashScheme::kIdentityHash, "side-a");
  EXPECT_EQ(h.next(12345), 12345);
}

TEST(ProxyHasher, Md5SchemeMixesAndNeverRepeats) {
  ProxyHasher h(HashScheme::kMd5, "side-a");
  // Same identity hash twice: the counter makes the results distinct
  // (this is exactly the collision MD5 hashing avoids, §5.2).
  const auto a = h.next(1);
  const auto b = h.next(1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, 1);
}

TEST(ProxyHasher, DomainsAreIndependent) {
  ProxyHasher ha(HashScheme::kMd5, "side-a");
  ProxyHasher hb(HashScheme::kMd5, "side-b");
  EXPECT_NE(ha.next(1), hb.next(1));
}

TEST(Wire, PrimitivesRoundTrip) {
  ByteBuffer buf;
  const RefEncoder no_refs = [](ByteBuffer&, const rt::GcRef&) {
    FAIL() << "no refs in this test";
  };
  encode_value(buf, Value(), no_refs);
  encode_value(buf, Value(true), no_refs);
  encode_value(buf, Value(std::int32_t{-7}), no_refs);
  encode_value(buf, Value(std::int64_t{1} << 40), no_refs);
  encode_value(buf, Value(2.5), no_refs);
  encode_value(buf, Value("wire"), no_refs);
  encode_value(buf, Value(rt::ValueList{Value(std::int32_t{1}), Value("x")}),
               no_refs);

  ByteReader r(buf);
  const RefDecoder no_ref_decode = [](ByteReader&, WireTag) -> Value {
    throw RuntimeFault("no refs");
  };
  EXPECT_TRUE(decode_value(r, no_ref_decode).is_null());
  EXPECT_TRUE(decode_value(r, no_ref_decode).as_bool());
  EXPECT_EQ(decode_value(r, no_ref_decode).as_i32(), -7);
  EXPECT_EQ(decode_value(r, no_ref_decode).as_i64(), std::int64_t{1} << 40);
  EXPECT_DOUBLE_EQ(decode_value(r, no_ref_decode).as_f64(), 2.5);
  EXPECT_EQ(decode_value(r, no_ref_decode).as_string(), "wire");
  const Value list = decode_value(r, no_ref_decode);
  EXPECT_EQ(list.as_list().size(), 2u);
  EXPECT_TRUE(r.done());
}

TEST(Wire, ElementCountRecursesIntoLists) {
  EXPECT_EQ(element_count(Value(std::int32_t{1})), 1u);
  const Value nested(rt::ValueList{
      Value(std::int32_t{1}),
      Value(rt::ValueList{Value("a"), Value("b")}),
  });
  // outer list (1) + int (1) + inner list (1) + 2 strings.
  EXPECT_EQ(element_count(nested), 5u);
}

TEST(Wire, SerializationChargesScaleWithSize) {
  Env env;
  UntrustedDomain domain(env);
  const Cycles t0 = env.clock.now();
  charge_serialize(env, domain, 10, 100);
  const Cycles small = env.clock.now() - t0;
  const Cycles t1 = env.clock.now();
  charge_serialize(env, domain, 1000, 10'000);
  const Cycles big = env.clock.now() - t1;
  EXPECT_GT(big, small * 20);
}

TEST(Wire, AllTagsByteIdenticalAcrossCodecs) {
  // Every WireTag through both codec paths: the generic tagged codec and —
  // where it applies — the primitive fixed-layout fast path. The buffers
  // must be byte-identical; since every serialize charge is a function of
  // (elements, bytes) only, byte identity is what guarantees identical
  // simulated cycles whichever path a value takes.
  Env env;
  UntrustedDomain domain(env);
  rt::Isolate iso(env, domain, rt::Isolate::Config{"w", 1 << 20});
  const rt::GcRef obj = iso.new_instance(1, 0);

  const std::vector<Value> values = {
      Value(),
      Value(true),
      Value(std::int32_t{-7}),
      Value(std::int64_t{1} << 40),
      Value(2.5),
      Value("wire"),
      Value(rt::ValueList{Value(std::int32_t{1}), Value("x"),
                          Value(rt::ValueList{Value(false)})}),
      Value(obj),  // rotates through the three ref tags below
      Value(obj),
      Value(obj),
  };

  // The runtime's classifier picks the ref tag; here a counter stands in
  // for it so all three ref forms appear.
  const std::array<WireTag, 3> ref_tags = {WireTag::kRefOwnedByEncoder,
                                           WireTag::kRefOwnedByDecoder,
                                           WireTag::kNeutralObject};
  int refs = 0;
  const RefEncoder generic_enc = [&ref_tags, &refs](ByteBuffer& out,
                                                    const rt::GcRef&) {
    out.put_u8(static_cast<std::uint8_t>(ref_tags[refs % 3]));
    out.put_i64(42);
    ++refs;
  };
  const RefDecoder ref_dec = [](ByteReader& in, WireTag) -> Value {
    return Value(in.get_i64());
  };

  std::set<WireTag> seen;
  for (const Value& v : values) {
    ByteBuffer generic;
    encode_value(generic, v, generic_enc);
    seen.insert(static_cast<WireTag>(generic.data()[0]));

    const bool prim = is_primitive(v);
    ByteBuffer fixed;
    EXPECT_EQ(encode_primitive(fixed, v), prim);
    if (prim) {
      ASSERT_EQ(fixed.size(), generic.size());
      EXPECT_EQ(std::memcmp(fixed.data(), generic.data(), fixed.size()), 0);
    } else {
      EXPECT_TRUE(fixed.empty()) << "fast encoder must write nothing";
    }

    ByteReader rg(generic);
    ByteReader rp(generic);
    const Value dg = decode_value(rg, ref_dec);
    EXPECT_TRUE(rg.done());
    Value dp;
    EXPECT_EQ(decode_primitive(rp, dp), prim);
    if (prim) {
      EXPECT_EQ(dp.type(), dg.type());
    } else {
      EXPECT_EQ(rp.position(), 0u) << "reader untouched for generic takeover";
    }

    // Identical bytes + elements => identical simulated charge.
    if (prim) {
      const std::uint64_t elems = element_count(v);
      const Cycles t0 = env.clock.now();
      charge_serialize(env, domain, elems, generic.size());
      const Cycles generic_charge = env.clock.now() - t0;
      const Cycles t1 = env.clock.now();
      charge_serialize(env, domain, elems, fixed.size());
      EXPECT_EQ(env.clock.now() - t1, generic_charge);
    }
  }
  EXPECT_EQ(seen.size(), 10u) << "every WireTag must lead some encoding";
}

TEST(Wire, DeepListRoundTripsWithoutNativeRecursion) {
  // A 100k-deep nested list is a legal RMI argument: the codec must walk
  // it with explicit work-lists. On the old recursive codec this test
  // dies of native stack overflow rather than failing an assertion.
  constexpr std::size_t kDepth = 100'000;
  Value deep(std::int32_t{9});
  for (std::size_t i = 0; i < kDepth; ++i) {
    rt::ValueList wrap;
    wrap.push_back(std::move(deep));
    deep = Value(std::move(wrap));
  }
  EXPECT_EQ(element_count(deep), kDepth + 1);
  EXPECT_EQ(deep.payload_bytes(), 4u * kDepth + 4u);

  const RefEncoder no_refs = [](ByteBuffer&, const rt::GcRef&) {
    FAIL() << "no refs in this test";
  };
  const RefDecoder no_ref_decode = [](ByteReader&, WireTag) -> Value {
    throw RuntimeFault("no refs");
  };

  ByteBuffer tagged;
  encode_value(tagged, deep, no_refs);
  ByteReader r(tagged);
  Value back = decode_value(r, no_ref_decode);
  EXPECT_TRUE(r.done());
  std::size_t depth = 0;
  const Value* cur = &back;
  while (cur->type() == rt::ValueType::kList) {
    ASSERT_EQ(cur->as_list().size(), 1u);
    cur = &cur->as_list()[0];
    ++depth;
  }
  EXPECT_EQ(depth, kDepth);
  EXPECT_EQ(cur->as_i32(), 9);
  ByteBuffer again;
  encode_value(again, back, no_refs);
  EXPECT_EQ(again.bytes(), tagged.bytes());
}  // `deep` and `back` chains destruct iteratively here

TEST(Wire, OverlongVarintRejectedByBothCodecs) {
  // The 10th byte of a varint holds bit 63 alone. Dropping the bits above
  // it would read {80 x9, 02} as a count of 0: an empty list.
  const RefDecoder no_ref_decode = [](ByteReader&, WireTag) -> Value {
    throw RuntimeFault("no refs");
  };
  ByteBuffer buf;
  buf.put_u8(static_cast<std::uint8_t>(WireTag::kList));
  for (int i = 0; i < 9; ++i) buf.put_u8(0x80);
  buf.put_u8(0x02);
  ByteReader r(buf);
  EXPECT_THROW(decode_value(r, no_ref_decode), RuntimeFault);
}

TEST(Wire, LyingListCountIsRejectedNotAllocated) {
  // A corrupt (or hostile) frame can claim a list of 2^40 elements with
  // no payload behind it. Each element needs at least one tag byte, so a
  // count beyond the remaining input is rejected before any allocation.
  const RefDecoder no_ref_decode = [](ByteReader&, WireTag) -> Value {
    throw RuntimeFault("no refs");
  };
  for (const std::uint64_t lie :
       {std::uint64_t{1} << 40, std::uint64_t{5}, std::uint64_t{1}}) {
    ByteBuffer buf;
    buf.put_u8(static_cast<std::uint8_t>(WireTag::kList));
    buf.put_varint(lie);  // claims elements that are not there
    ByteReader r(buf);
    EXPECT_THROW(decode_value(r, no_ref_decode), RuntimeFault);
  }

  // Nested: a well-formed outer list whose inner list lies.
  ByteBuffer buf;
  buf.put_u8(static_cast<std::uint8_t>(WireTag::kList));
  buf.put_varint(2);
  buf.put_u8(static_cast<std::uint8_t>(WireTag::kNull));
  buf.put_u8(static_cast<std::uint8_t>(WireTag::kList));
  buf.put_varint(100);
  ByteReader r(buf);
  EXPECT_THROW(decode_value(r, no_ref_decode), RuntimeFault);

  // An honest empty list still decodes.
  ByteBuffer ok;
  ok.put_u8(static_cast<std::uint8_t>(WireTag::kList));
  ok.put_varint(0);
  ByteReader ro(ok);
  EXPECT_EQ(decode_value(ro, no_ref_decode).as_list().size(), 0u);
  EXPECT_TRUE(ro.done());
}

TEST(ProxyRuntimeTest, MixedCallSequenceChargesPinnedCycles) {
  // End-to-end pin of the RMI hot path: a mixed primitive/generic call
  // sequence must land on exactly the clock and transition stats that the
  // pre-overhaul string-dispatch path also produced. The hot path is a
  // host-only optimisation, so any simulated drift is a bug.
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const Value w = u.construct("Worker", {});
  for (int i = 0; i < 25; ++i) {
    u.invoke(w.as_ref(), "set", {Value(std::int32_t{i})});
    u.invoke(w.as_ref(), "get", {});
    u.invoke(w.as_ref(), "set_list",
             {Value(rt::ValueList{Value(std::int32_t{i}), Value("s")})});
  }
  EXPECT_EQ(app.env().clock.now(), 70'799'782u);
  // 25 sets + 25 gets + the zero-arg construct relay: all-primitive
  // signatures every one.
  EXPECT_EQ(app.rmi().stats().fast_path_calls, 51u);
  const sgx::BridgeStats& bridge = app.bridge().stats();
  EXPECT_EQ(bridge.ecalls, 76u);
  EXPECT_EQ(bridge.ocalls, 0u);
  EXPECT_EQ(bridge.bytes_in, 1'059u);
  EXPECT_EQ(bridge.bytes_out, 176u);
}

// --- ProxyRuntime behaviours through the public pipeline -------------------

TEST(ProxyRuntimeTest, StaticProxyMethodNeedsNoHash) {
  model::AppModel app;
  auto& util = app.add_class("TrustedUtil", model::Annotation::kTrusted);
  util.add_field("unused");
  util.add_static_method("seal", 1).body_native([](model::NativeCall& call) {
    return Value("sealed:" + call.args[0].as_string());
  });
  app.add_class("Main", model::Annotation::kUntrusted)
      .add_static_method("main", 0)
      .body(model::IrBuilder().ret_void().build());
  app.set_main_class("Main");

  core::AppConfig config;
  config.extra_entry_points = {{"TrustedUtil", "seal"}};
  core::PartitionedApp papp(app, config);
  const Value sealed = papp.untrusted_context().invoke_static(
      "TrustedUtil", "seal", {Value("data")});
  EXPECT_EQ(sealed.as_string(), "sealed:data");
  EXPECT_GT(papp.bridge().stats().ecalls, 0u);
}

TEST(ProxyRuntimeTest, NeutralObjectsCopiedAcrossBoundary) {
  // A neutral class instance passed to a trusted method arrives as a field
  // by field copy that evolves independently (§5.1).
  model::AppModel app;
  auto& box = app.add_class("Box", model::Annotation::kNeutral);
  box.add_field("content", /*is_private=*/false);
  box.add_constructor(1).body(model::IrBuilder()
                                  .locals(2)
                                  .load_local(0)
                                  .load_local(1)
                                  .put_field(0)
                                  .ret_void()
                                  .build());
  box.add_method("content", 0).body(
      model::IrBuilder().locals(1).load_local(0).get_field(0).ret().build());

  auto& keeper = app.add_class("Keeper", model::Annotation::kTrusted);
  keeper.add_field("box");
  keeper.add_constructor(0).body_native(
      [](model::NativeCall&) { return Value(); });
  keeper.add_method("keep", 1).body_native([](model::NativeCall& call) {
    call.isolate.set_field(call.self, 0, call.args[0]);
    return Value();
  });
  keeper.add_method("peek", 0)
      .body_native([](model::NativeCall& call) {
        const rt::GcRef kept = call.isolate.get_field(call.self, 0).as_ref();
        return call.ctx.invoke(kept, "content", {});
      })
      .calls("Box", "content");

  auto& main_cls = app.add_class("Main", model::Annotation::kUntrusted);
  main_cls.add_static_method("main", 0)
      .body(model::IrBuilder()
                .locals(1)
                .const_val(Value("original"))
                .new_object("Box", 1)
                .store_local(0)
                .new_object("Keeper", 0)
                .load_local(0)
                .call("keep", 1)
                .pop()
                .ret_void()
                .build());
  app.set_main_class("Main");

  core::AppConfig config;
  config.extra_entry_points = {{"Keeper", model::kConstructorName}};
  core::PartitionedApp papp(app, config);
  auto& u = papp.untrusted_context();

  const Value keeper_proxy = u.construct("Keeper", {});
  const Value local_box = u.construct("Box", {Value("original")});
  u.invoke(keeper_proxy.as_ref(), "keep", {local_box});

  // Mutate the untrusted copy; the enclave copy must be unaffected.
  u.isolate().set_field(local_box.as_ref(), 0, Value("tampered"));
  EXPECT_EQ(u.invoke(keeper_proxy.as_ref(), "peek", {}).as_string(),
            "original");
}

TEST(ProxyRuntimeTest, IdentityHashSchemeWorksOnSmallRuns) {
  core::AppConfig config;
  config.hash_scheme = rmi::HashScheme::kIdentityHash;  // prototype default
  core::PartitionedApp app(apps::synthetic::build_micro_app(), config);
  auto& u = app.untrusted_context();
  const Value w = u.construct("Worker", {});
  u.invoke(w.as_ref(), "set", {Value(std::int32_t{9})});
  EXPECT_EQ(u.invoke(w.as_ref(), "get", {}).as_i32(), 9);
}

TEST(ProxyRuntimeTest, GcPumpSkipsWhenNested) {
  // pump_gc from inside an enclave context must be a no-op (the helper
  // cannot run "within" the relayed call); this exercises the guard.
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const Value driver = u.construct("Driver", {});
  // call_sink runs inside the enclave and issues nested ocalls, each of
  // which triggers the auto-pump path with a non-untrusted side.
  u.invoke(driver.as_ref(), "call_sink", {Value(std::int64_t{100})});
  SUCCEED();
}

TEST(ProxyRuntimeTest, RmiStatsAccumulate) {
  core::PartitionedApp app(apps::synthetic::build_micro_app());
  auto& u = app.untrusted_context();
  const Value w = u.construct("Worker", {});
  for (int i = 0; i < 10; ++i) {
    u.invoke(w.as_ref(), "set", {Value(std::int32_t{i})});
  }
  EXPECT_EQ(app.rmi().stats().proxies_created, 1u);
  EXPECT_GE(app.rmi().stats().remote_invocations, 10u);
  EXPECT_GE(app.rmi().stats().mirrors_registered, 1u);
  // Unbatched accounting: one RMI-layer transition per logical call (10
  // sets + the construct relay).
  EXPECT_EQ(app.rmi().stats().transitions, 11u);
  EXPECT_EQ(app.rmi().stats().batched_calls, 0u);
  EXPECT_EQ(app.rmi().stats().batch_flushes, 0u);
}

// ---- Batch wire codec (rmi/batch.h) ---------------------------------------

TEST(BatchCodec, MixedEntriesRoundTrip) {
  ByteBuffer frame;
  encode_batch_header(frame, 3);
  const std::uint8_t a[] = {1, 2, 3};
  const std::uint8_t b[] = {0xff};
  encode_batch_entry(frame, 7, a, sizeof a);
  encode_batch_entry(frame, 9, b, sizeof b);
  encode_batch_entry(frame, 7, nullptr, 0);
  const auto entries = decode_batch_request(frame, BatchLimits{});
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].call_id, 7u);
  ASSERT_EQ(entries[0].size, 3u);
  EXPECT_EQ(std::memcmp(entries[0].data, a, sizeof a), 0);
  EXPECT_EQ(entries[1].call_id, 9u);
  ASSERT_EQ(entries[1].size, 1u);
  EXPECT_EQ(entries[1].data[0], 0xff);
  EXPECT_EQ(entries[2].call_id, 7u);
  EXPECT_EQ(entries[2].size, 0u);

  ByteBuffer resp;
  encode_batch_header(resp, 2);
  encode_batch_result(resp, true, a, sizeof a);
  const char* err = "boom";
  encode_batch_result(resp, false,
                      reinterpret_cast<const std::uint8_t*>(err), 4);
  const auto results = decode_batch_response(resp, 2, BatchLimits{});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  ASSERT_EQ(results[0].size, 3u);
  EXPECT_EQ(std::memcmp(results[0].data, a, sizeof a), 0);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(results[1].data),
                        results[1].size),
            "boom");
}

TEST(BatchCodec, MalformedFramesRaiseTypedErrors) {
  BatchLimits limits;
  limits.max_calls = 4;
  limits.max_entry_bytes = 16;
  limits.max_frame_bytes = 64;
  const std::uint8_t p[] = {1};

  // Truncated: the header promises an entry that never arrives.
  ByteBuffer truncated;
  encode_batch_header(truncated, 2);
  encode_batch_entry(truncated, 1, p, sizeof p);
  EXPECT_THROW(decode_batch_request(truncated, limits), BatchCodecError);

  // Entry length pointing past the end of the frame.
  ByteBuffer lying;
  encode_batch_header(lying, 1);
  lying.put_varint(1);   // call id
  lying.put_varint(12);  // nbytes, but no payload follows
  EXPECT_THROW(decode_batch_request(lying, limits), BatchCodecError);

  // Zero calls is impossible — a flush never dispatches an empty batch.
  ByteBuffer empty;
  encode_batch_header(empty, 0);
  EXPECT_THROW(decode_batch_request(empty, limits), BatchCodecError);

  // Count over max_calls is rejected before any entry is touched.
  ByteBuffer many;
  encode_batch_header(many, 5);
  EXPECT_THROW(decode_batch_request(many, limits), BatchCodecError);

  // One entry over max_entry_bytes.
  const std::vector<std::uint8_t> big(17, 0xaa);
  ByteBuffer oversized;
  encode_batch_header(oversized, 1);
  encode_batch_entry(oversized, 1, big.data(), big.size());
  EXPECT_THROW(decode_batch_request(oversized, limits), BatchCodecError);

  // Whole frame over max_frame_bytes, rejected before parsing anything.
  const std::vector<std::uint8_t> huge(70, 0xbb);
  EXPECT_THROW(decode_batch_request(huge.data(), huge.size(), limits),
               BatchCodecError);

  // Trailing garbage after the last entry.
  ByteBuffer trailing;
  encode_batch_header(trailing, 1);
  encode_batch_entry(trailing, 1, p, sizeof p);
  trailing.put_u8(0);
  EXPECT_THROW(decode_batch_request(trailing, limits), BatchCodecError);

  // A response whose count disagrees with the request's entry count would
  // silently drop calls.
  ByteBuffer resp;
  encode_batch_header(resp, 1);
  encode_batch_result(resp, true, p, sizeof p);
  EXPECT_THROW(decode_batch_response(resp, 2, limits), BatchCodecError);

  // Response status must be 0 or 1.
  ByteBuffer badstatus;
  encode_batch_header(badstatus, 1);
  badstatus.put_u8(2);
  badstatus.put_varint(0);
  EXPECT_THROW(decode_batch_response(badstatus, 1, limits), BatchCodecError);
}

TEST(BatchCodec, FuzzCorpusTruncationsAndMutationsAreTypedOrSound) {
  // Fuzz-shaped corpus over the attacker-reachable frame decoders: every
  // strict byte-prefix of a valid request/response frame, plus
  // deterministic single-byte mutations at every offset. The decoder must
  // either throw BatchCodecError or return views that point inside the
  // frame and respect the limits — never crash, never alias past the end.
  BatchLimits limits;
  limits.max_calls = 8;
  limits.max_entry_bytes = 64;
  limits.max_frame_bytes = 256;

  ByteBuffer req;
  encode_batch_header(req, 3);
  const std::uint8_t p0[] = {0x01, 0x7f, 0x80, 0xff};
  const std::uint8_t p1[] = {0x00};
  encode_batch_entry(req, 1, p0, sizeof p0);
  encode_batch_entry(req, 200, p1, sizeof p1);  // two-byte varint call id
  encode_batch_entry(req, 3, nullptr, 0);

  ByteBuffer resp;
  encode_batch_header(resp, 3);
  encode_batch_result(resp, true, p0, sizeof p0);
  const char* err = "nope";
  encode_batch_result(resp, false,
                      reinterpret_cast<const std::uint8_t*>(err), 4);
  encode_batch_result(resp, true, nullptr, 0);

  // Every strict prefix is a truncation and must fail typed.
  for (std::size_t n = 0; n < req.size(); ++n) {
    EXPECT_THROW(decode_batch_request(req.data(), n, limits), BatchCodecError)
        << "request prefix of " << n << " bytes";
  }
  for (std::size_t n = 0; n < resp.size(); ++n) {
    EXPECT_THROW(decode_batch_response(resp.data(), n, 3, limits),
                 BatchCodecError)
        << "response prefix of " << n << " bytes";
  }

  // Deterministic xorshift64 so the corpus replays byte-identically.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const auto next_byte = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<std::uint8_t>(rng);
  };
  const auto in_bounds = [](const std::vector<std::uint8_t>& frame,
                            const std::uint8_t* data, std::size_t n) {
    return n == 0 ||
           (data >= frame.data() && data + n <= frame.data() + frame.size());
  };

  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < req.size(); ++i) {
      auto mut = req.bytes();
      mut[i] = next_byte();
      try {
        const auto entries = decode_batch_request(mut.data(), mut.size(),
                                                  limits);
        EXPECT_LE(entries.size(), limits.max_calls);
        for (const auto& e : entries) {
          EXPECT_LE(e.size, limits.max_entry_bytes);
          EXPECT_TRUE(in_bounds(mut, e.data, e.size));
        }
      } catch (const BatchCodecError&) {
        // rejection is the other sound outcome
      }
    }
    for (std::size_t i = 0; i < resp.size(); ++i) {
      auto mut = resp.bytes();
      mut[i] = next_byte();
      try {
        const auto results = decode_batch_response(mut.data(), mut.size(), 3,
                                                   limits);
        EXPECT_EQ(results.size(), 3u);  // count mismatch must have thrown
        for (const auto& r : results) {
          EXPECT_TRUE(in_bounds(mut, r.data, r.size));
        }
      } catch (const BatchCodecError&) {
      }
    }
  }
}

// ---- Batched RMI through the public pipeline (invoke_batch) ---------------

// A trusted Box whose ratio() faults on a zero divisor: an application
// fault raised inside one batch entry.
model::AppModel box_app() {
  return dsl::parse_program(R"(
    class Box @Trusted {
      field v;
      ctor() { this.v = 0; }
      method set(x) { this.v = x; }
      method ratio(d) { return 100 / d; }
      method get() { return this.v; }
    }
    class Main @Untrusted {
      static method main() { b = new Box(); b.set(1); b.ratio(1); b.get(); }
    }
  )");
}

// One batch entry: `method` on the untrusted proxy `proxy`.
ProxyRuntime::BatchCall batch_call(interp::ExecContext& u, const Value& proxy,
                                   const std::string& method,
                                   std::vector<Value> args = {}) {
  ProxyRuntime::BatchCall c;
  c.proxy = proxy.as_ref();
  c.stub = u.class_of(proxy.as_ref()).find_method(method);
  c.args = std::move(args);
  return c;
}

TEST(ProxyRuntimeTest, InvokeBatchFencesAStaleProxyBeforeAnyTransition) {
  // Wherever the stale proxy sits in the batch, the whole batch throws
  // before its transition: no ecall, no entry executed.
  for (std::size_t stale_at = 0; stale_at < 3; ++stale_at) {
    core::PartitionedApp app(apps::synthetic::build_micro_app());
    auto& u = app.untrusted_context();
    const Value stale = u.construct("Worker", {});
    app.rmi().fence_proxies();
    const Value fresh = u.construct("Worker", {});
    std::vector<ProxyRuntime::BatchCall> calls;
    for (std::size_t i = 0; i < 3; ++i) {
      calls.push_back(batch_call(u, i == stale_at ? stale : fresh, "set",
                                 {Value(static_cast<std::int32_t>(i + 5))}));
    }
    const std::uint64_t ecalls = app.bridge().stats().ecalls;
    const RmiStats before = app.rmi().stats();
    EXPECT_THROW(app.rmi().invoke_batch(calls), StaleProxyError);
    EXPECT_EQ(app.bridge().stats().ecalls, ecalls);
    EXPECT_EQ(app.rmi().stats().transitions, before.transitions);
    EXPECT_EQ(app.rmi().stats().remote_invocations,
              before.remote_invocations);
    EXPECT_EQ(u.invoke(fresh.as_ref(), "get", {}).as_i32(), 0)
        << "an entry ran although the batch was fenced";
  }
}

TEST(ProxyRuntimeTest, InvokeBatchReturnsAnEntryFaultInBand) {
  core::PartitionedApp app(box_app());
  auto& u = app.untrusted_context();
  const Value box = u.construct("Box", {});
  const std::vector<ProxyRuntime::BatchCall> calls = {
      batch_call(u, box, "set", {Value(std::int32_t{4})}),
      batch_call(u, box, "ratio", {Value(std::int32_t{0})}),
      batch_call(u, box, "get"),
      batch_call(u, box, "ratio", {Value(std::int32_t{4})})};
  const std::uint64_t ecalls = app.bridge().stats().ecalls;
  const RmiStats before = app.rmi().stats();
  const auto outcomes = app.rmi().invoke_batch(calls);

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("integer division by zero"),
            std::string::npos)
      << outcomes[1].error;
  // The entries after the fault still executed, in order.
  ASSERT_TRUE(outcomes[2].ok);
  EXPECT_EQ(outcomes[2].value.as_i32(), 4);
  ASSERT_TRUE(outcomes[3].ok);
  EXPECT_EQ(outcomes[3].value.as_i32(), 25);
  // Four logical calls, one transition.
  EXPECT_EQ(app.bridge().stats().ecalls - ecalls, 1u);
  const RmiStats& s = app.rmi().stats();
  EXPECT_EQ(s.transitions - before.transitions, 1u);
  EXPECT_EQ(s.remote_invocations - before.remote_invocations, 4u);
  EXPECT_EQ(s.batched_calls - before.batched_calls, 4u);
  EXPECT_EQ(s.batch_flushes - before.batch_flushes, 1u);

  // A batch of one is the unbatched call: its fault throws, as
  // invoke_proxy's does, instead of coming back in-band.
  EXPECT_THROW(app.rmi().invoke_batch(
                   {batch_call(u, box, "ratio", {Value(std::int32_t{0})})}),
               RuntimeFault);
}

TEST(ProxyRuntimeTest, InvokeBatchRejectsABatchSpanningTwoIsolates) {
  core::PartitionedApp app(apps::synthetic::build_micro_app(), 2);
  auto& u = app.untrusted_context();
  const Value w0 = app.construct_in(0, "Worker", {});
  const Value w1 = app.construct_in(1, "Worker", {});
  const std::uint64_t ecalls = app.bridge().stats().ecalls;
  const RmiStats before = app.rmi().stats();
  EXPECT_THROW(
      app.rmi().invoke_batch({batch_call(u, w0, "set", {Value(std::int32_t{1})}),
                              batch_call(u, w1, "set", {Value(std::int32_t{2})})}),
      RuntimeFault);
  EXPECT_EQ(app.bridge().stats().ecalls, ecalls);
  EXPECT_EQ(app.rmi().stats().transitions, before.transitions);
  EXPECT_EQ(u.invoke(w0.as_ref(), "get", {}).as_i32(), 0);
  EXPECT_EQ(u.invoke(w1.as_ref(), "get", {}).as_i32(), 0);
}

TEST(ProxyRuntimeTest, BatchOfOneIsCycleIdenticalToSync) {
  // The batch-size-1 honesty contract (also asserted by abl_rmi_batch): a
  // batch of one takes invoke_proxy's single-call path, so the simulated
  // clock, the bridge traffic and the RMI counters land on the same
  // values — with one trusted isolate and with two, whose frames carry
  // the route prefix.
  for (const std::uint32_t isolates : {1u, 2u}) {
    struct Outcome {
      Cycles clock;
      std::int32_t value;
      sgx::BridgeStats bridge;
      RmiStats rmi;
    };
    std::array<Outcome, 2> got{};
    for (const bool batched : {false, true}) {
      core::PartitionedApp app(apps::synthetic::build_micro_app(), isolates);
      auto& u = app.untrusted_context();
      const Value w = app.construct_in(isolates - 1, "Worker", {});
      const model::ClassDecl& cls = u.class_of(w.as_ref());
      const auto call = [&](const char* method, std::vector<Value> args) {
        if (batched) {
          return app.rmi()
              .invoke_batch({batch_call(u, w, method, args)})
              .front()
              .value;
        }
        return app.rmi().invoke_proxy(u, w.as_ref(), cls,
                                      *cls.find_method(method), args);
      };
      for (int i = 0; i < 5; ++i) call("set", {Value(std::int32_t{i})});
      got[batched].value = call("get", {}).as_i32();
      got[batched].clock = app.env().clock.now();
      got[batched].bridge = app.bridge().stats();
      got[batched].rmi = app.rmi().stats();
    }
    SCOPED_TRACE(isolates);
    EXPECT_EQ(got[0].value, 4);
    EXPECT_EQ(got[1].value, 4);
    EXPECT_EQ(got[0].clock, got[1].clock);
    EXPECT_EQ(got[0].bridge.ecalls, got[1].bridge.ecalls);
    EXPECT_EQ(got[0].bridge.bytes_in, got[1].bridge.bytes_in);
    EXPECT_EQ(got[0].bridge.bytes_out, got[1].bridge.bytes_out);
    EXPECT_EQ(got[0].rmi.transitions, got[1].rmi.transitions);
    EXPECT_EQ(got[0].rmi.remote_invocations, got[1].rmi.remote_invocations);
    EXPECT_EQ(got[0].rmi.fast_path_calls, got[1].rmi.fast_path_calls);
    EXPECT_EQ(got[1].rmi.batch_flushes, 0u) << "a batch of one sent a frame";
  }
}

}  // namespace
}  // namespace msv::rmi
