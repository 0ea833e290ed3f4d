// stress_serde (DESIGN.md §17): pathological object graphs through the
// RMI wire codec and the sealed-checkpoint path.
//
// Three shapes a hostile (or merely unlucky) workload can hand the
// marshalling layer:
//
//   1. Deep chains — a 100k-deep nested list. Legal, and it must round-
//      trip on an explicit work-list; the old recursive codec died of
//      native stack overflow long before any simulated cost mattered.
//   2. Giant arrays — one list of 10^6 scalars (mixed widths), the
//      bulk-bytes regime where the per-element charge dominates.
//   3. Wide shared graphs — one 64-element sublist referenced by 4096
//      parents. The wire format is a tree, so sharing *expands*:
//      element_count and the encoded bytes grow by the full product, and
//      the codec has to survive the blow-up the structure hid.
//
// Every shape goes through both boundaries: encode/decode with the
// serialization charges of an enclave domain (armed — pays the MEE
// factor) and of the untrusted domain (disarmed baseline), then through
// the sealed-checkpoint path (encode -> seal -> wire blob -> deserialize
// -> unseal -> decode). Gates: byte-identical re-encode for every shape,
// charge asymmetry in the enclave, and typed rejection of a truncated
// sealed checkpoint.
#include <cinttypes>
#include <string>

#include "bench/bench_common.h"
#include "bench/stress_common.h"
#include "rmi/wire.h"
#include "sgx/enclave.h"
#include "sgx/sealing.h"
#include "sim/env.h"

namespace msv {
namespace {

using rt::Value;

Value deep_chain(std::size_t depth) {
  Value cur(std::int32_t{9});
  for (std::size_t i = 0; i < depth; ++i) {
    rt::ValueList wrap;
    wrap.push_back(std::move(cur));
    cur = Value(std::move(wrap));
  }
  return cur;
}

Value giant_array(std::size_t n) {
  bench::stress::Rng rng(13);
  rt::ValueList list;
  list.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.below(4)) {
      case 0:
        list.push_back(Value(static_cast<std::int32_t>(rng.next())));
        break;
      case 1:
        list.push_back(Value(static_cast<std::int64_t>(rng.next())));
        break;
      case 2:
        list.push_back(Value(static_cast<double>(rng.below(1000))));
        break;
      default:
        list.push_back(Value(std::string("s") +
                             std::to_string(rng.below(100))));
        break;
    }
  }
  return Value(std::move(list));
}

Value wide_shared(std::size_t parents, std::size_t width) {
  rt::ValueList inner;
  for (std::size_t i = 0; i < width; ++i) {
    inner.push_back(Value(static_cast<std::int32_t>(i)));
  }
  const auto shared = std::make_shared<rt::ValueList>(std::move(inner));
  rt::ValueList outer;
  outer.reserve(parents);
  for (std::size_t i = 0; i < parents; ++i) {
    outer.push_back(Value(shared));  // every parent holds the same sublist
  }
  return Value(std::move(outer));
}

struct ShapeResult {
  std::uint64_t elements = 0;
  std::uint64_t bytes = 0;
  double armed_cycles = 0;     // enclave-domain round trip
  double disarmed_cycles = 0;  // untrusted-domain round trip
};

ShapeResult push_through(const Value& v) {
  const rmi::RefEncoder no_refs = [](ByteBuffer&, const rt::GcRef&) {
    throw RuntimeFault("stress_serde carries no refs");
  };
  const rmi::RefDecoder no_ref_decode = [](ByteReader&,
                                           rmi::WireTag) -> Value {
    throw RuntimeFault("stress_serde carries no refs");
  };

  ShapeResult r;
  ByteBuffer wire;
  rmi::encode_value(wire, v, no_refs);
  r.elements = rmi::element_count(v);
  r.bytes = wire.size();

  ByteReader reader(wire);
  const Value back = rmi::decode_value(reader, no_ref_decode);
  bench::stress::gate(reader.done(), "decode must consume the whole wire");
  ByteBuffer again;
  rmi::encode_value(again, back, no_refs);
  bench::stress::gate(again.bytes() == wire.bytes(),
                      "decode -> encode must reproduce the wire bytes");

  // Charge the round trip on both sides of the boundary.
  {
    Env env;
    sgx::Enclave enclave(env, "stress-serde", Sha256::hash("img"), 4096);
    enclave.init(Sha256::hash("img"));
    sgx::EnclaveDomain domain(env, enclave);
    const Cycles t0 = env.clock.now();
    rmi::charge_serialize(env, domain, r.elements, r.bytes);
    rmi::charge_deserialize(env, domain, r.elements, r.bytes);
    r.armed_cycles = static_cast<double>(env.clock.now() - t0);
  }
  {
    Env env;
    UntrustedDomain domain(env);
    const Cycles t0 = env.clock.now();
    rmi::charge_serialize(env, domain, r.elements, r.bytes);
    rmi::charge_deserialize(env, domain, r.elements, r.bytes);
    r.disarmed_cycles = static_cast<double>(env.clock.now() - t0);
  }
  return r;
}

// The sealed-checkpoint path: the encoded value is the checkpoint
// payload. Wire blob -> deserialize -> unseal -> decode must reproduce
// the original bytes; a clipped wire blob must fail typed.
void sealed_checkpoint(bench::JsonReport& report, const Value& v,
                       const char* name) {
  const rmi::RefEncoder no_refs = [](ByteBuffer&, const rt::GcRef&) {
    throw RuntimeFault("no refs");
  };
  ByteBuffer wire;
  rmi::encode_value(wire, v, no_refs);

  Env env;
  sgx::Enclave enclave(env, "stress-seal", Sha256::hash("img"), 4096);
  enclave.init(Sha256::hash("img"));
  sgx::SealingPlatform platform("stress-fuse");
  const sgx::SealedBlob blob = platform.seal(enclave, wire.bytes(), 17);
  const std::vector<std::uint8_t> stored = blob.serialize();

  const sgx::SealedBlob loaded = sgx::SealedBlob::deserialize(stored);
  const std::vector<std::uint8_t> plain = platform.unseal(enclave, loaded);
  bench::stress::gate(plain == wire.bytes(),
                      "the sealed checkpoint must unseal byte-identical");
  const rmi::RefDecoder no_ref_decode = [](ByteReader&,
                                           rmi::WireTag) -> Value {
    throw RuntimeFault("no refs");
  };
  ByteReader reader(plain.data(), plain.size());
  const Value back = rmi::decode_value(reader, no_ref_decode);
  bench::stress::gate(reader.done(), "checkpoint decode must drain");

  // A clipped checkpoint (the storage layer lost the tail) fails typed.
  bool rejected = false;
  try {
    sgx::SealedBlob::deserialize(std::vector<std::uint8_t>(
        stored.begin(), stored.end() - 16));
  } catch (const SecurityFault&) {
    rejected = true;
  }
  bench::stress::gate(rejected, "a clipped sealed checkpoint must throw");
  report.add_metric(std::string(name) + "_sealed_bytes",
                    static_cast<std::uint64_t>(stored.size()));
}

}  // namespace
}  // namespace msv

int main(int argc, char** argv) {
  using namespace msv;
  const bench::BenchOptions opt = bench::BenchOptions::parse(argc, argv);

  bench::print_header("stress_serde",
                      "pathological object graphs through the RMI codec "
                      "and sealed checkpoints");
  bench::JsonReport report("stress_serde");

  const std::size_t depth = opt.smoke ? 20'000 : 100'000;
  const std::size_t giant = opt.smoke ? 100'000 : 1'000'000;
  const std::size_t parents = opt.smoke ? 1'024 : 4'096;
  constexpr std::size_t kWidth = 64;
  report.add_metric("iterations", static_cast<std::uint64_t>(depth));

  struct Shape {
    const char* name;
    Value value;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"deep", deep_chain(depth)});
  shapes.push_back({"giant", giant_array(giant)});
  shapes.push_back({"wide_shared", wide_shared(parents, kWidth)});

  Table table({"shape", "elements", "wire bytes", "enclave cycles",
               "untrusted cycles", "MEE factor"});
  for (const Shape& s : shapes) {
    const ShapeResult r = push_through(s.value);
    const double factor =
        r.disarmed_cycles > 0 ? r.armed_cycles / r.disarmed_cycles : 0;
    table.add_row({s.name, std::to_string(r.elements),
                   std::to_string(r.bytes),
                   format_fixed(r.armed_cycles, 0),
                   format_fixed(r.disarmed_cycles, 0),
                   bench::fmt_x(factor)});
    const std::string key = s.name;
    report.add_metric(key + "_elements", r.elements);
    report.add_metric(key + "_wire_bytes", r.bytes);
    report.add_metric(key + "_armed_cycles", r.armed_cycles);
    report.add_metric(key + "_disarmed_cycles", r.disarmed_cycles);
    report.add_metric(key + "_mee_factor", factor);
    bench::stress::gate(factor > 1.0,
                        "serializing inside the enclave must pay the MEE "
                        "factor");
  }
  table.print();
  report.add_table("shapes", table);

  // The sharing blow-up: 4096 parents x 64 elements expand on the wire.
  bench::stress::gate(
      rmi::element_count(shapes[2].value) >=
          static_cast<std::uint64_t>(parents) * kWidth,
      "shared sublists must expand to the full product on the wire");

  for (const Shape& s : shapes) sealed_checkpoint(report, s.value, s.name);

  std::printf(
      "\nDeep chains ride the explicit work-list (no native recursion), "
      "the shared graph expands to\nits full product on the wire, and "
      "every shape survives the sealed-checkpoint round trip.\n");
  if (!opt.json_path.empty() && !report.write(opt.json_path)) return 1;
  return 0;
}
