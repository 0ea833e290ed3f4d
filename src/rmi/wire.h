// Wire encoding of relay-method parameters and return values (§5.2).
//
// A relayed call carries: primitives by value, *neutral* values (strings,
// lists, instances of neutral classes) by serialization, and annotated
// objects by proxy hash. References use two tags relative to the encoding
// side:
//   * kRefOwnedByEncoder — the encoder's concrete object; the decoder
//     materializes (or reuses) a local proxy carrying the hash;
//   * kRefOwnedByDecoder — the encoder's proxy of a decoder-owned object;
//     the decoder resolves the hash in its mirror-proxy registry.
//
// The ref classification and materialization live in ProxyRuntime; this
// module owns the byte format and the serialization cost accounting.
#pragma once

#include <cstdint>
#include <functional>

#include "runtime/value.h"
#include "sim/domain.h"
#include "sim/env.h"
#include "support/bytes.h"

namespace msv::rmi {

enum class WireTag : std::uint8_t {
  kNull = 0,
  kBool = 1,
  kI32 = 2,
  kI64 = 3,
  kF64 = 4,
  kString = 5,
  kList = 6,
  kRefOwnedByEncoder = 7,   // payload: i64 hash, class name
  kRefOwnedByDecoder = 8,   // payload: i64 hash
  kNeutralObject = 9,       // payload: class name, field values
};

// Nesting bound for neutral objects serialized field by field (a
// kNeutralObject inside a kNeutralObject ...), enforced by both RMI
// runtimes on encode and on decode. Bounding the encoder rejects cyclic
// graphs; bounding the decoder keeps a hostile frame from recursing the
// callee off its native stack.
inline constexpr std::uint32_t kMaxSerializationDepth = 64;

// Writes the tag and payload for a GcRef (classification done by caller).
using RefEncoder = std::function<void(ByteBuffer&, const rt::GcRef&)>;
// Reads a ref-tagged payload and produces the local Value.
using RefDecoder =
    std::function<rt::Value(ByteReader&, WireTag tag)>;

// Encodes one value; refs are delegated to `ref_encoder`.
void encode_value(ByteBuffer& out, const rt::Value& v,
                  const RefEncoder& ref_encoder);

// Decodes one value; ref tags are delegated to `ref_decoder`.
rt::Value decode_value(ByteReader& in, const RefDecoder& ref_decoder);

// ---- Primitive fast path -------------------------------------------------
//
// Null, bool, i32, i64 and f64 have a fixed-layout wire form (tag byte +
// fixed payload) and can never contain references, so relay signatures made
// of them need neither the tagged-encoder switch nor the std::function
// ref-encoder/decoder indirection. These helpers write/read EXACTLY the
// bytes encode_value/decode_value would: payload sizes — and therefore
// every simulated serialize/copy charge — are identical on both paths.

// True for values the fast path covers (kNull/kBool/kI32/kI64/kF64).
// Defined inline: these three sit directly on the per-argument hot loop.
inline bool is_primitive(const rt::Value& v) {
  switch (v.type()) {
    case rt::ValueType::kNull:
    case rt::ValueType::kBool:
    case rt::ValueType::kI32:
    case rt::ValueType::kI64:
    case rt::ValueType::kF64:
      return true;
    case rt::ValueType::kString:
    case rt::ValueType::kRef:
    case rt::ValueType::kList:
      return false;
  }
  return false;
}

// Encodes `v` if primitive and returns true; writes nothing otherwise.
inline bool encode_primitive(ByteBuffer& out, const rt::Value& v) {
  switch (v.type()) {
    case rt::ValueType::kNull:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kNull));
      return true;
    case rt::ValueType::kBool:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kBool));
      out.put_u8(v.as_bool() ? 1 : 0);
      return true;
    case rt::ValueType::kI32:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kI32));
      out.put_i32(v.as_i32());
      return true;
    case rt::ValueType::kI64:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kI64));
      out.put_i64(v.as_i64());
      return true;
    case rt::ValueType::kF64:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kF64));
      out.put_f64(v.as_f64());
      return true;
    case rt::ValueType::kString:
    case rt::ValueType::kRef:
    case rt::ValueType::kList:
      return false;
  }
  return false;
}

// Decodes the next value if its tag is primitive and returns true; leaves
// the reader position untouched otherwise so the generic decoder can take
// over.
inline bool decode_primitive(ByteReader& in, rt::Value& out) {
  const std::size_t start = in.position();
  switch (static_cast<WireTag>(in.get_u8())) {
    case WireTag::kNull:
      out = rt::Value();
      return true;
    case WireTag::kBool:
      out = rt::Value(in.get_u8() != 0);
      return true;
    case WireTag::kI32:
      out = rt::Value(in.get_i32());
      return true;
    case WireTag::kI64:
      out = rt::Value(in.get_i64());
      return true;
    case WireTag::kF64:
      out = rt::Value(in.get_f64());
      return true;
    default:
      in.seek(start);
      return false;
  }
}

// Serialization cost accounting (§6.3): CPU work proportional to elements
// and bytes, plus memory traffic through `domain` (so serializing inside
// the enclave pays the MEE factor — Fig. 4b's in/out asymmetry).
void charge_serialize(Env& env, MemoryDomain& domain, std::uint64_t elements,
                      std::uint64_t bytes);
void charge_deserialize(Env& env, MemoryDomain& domain, std::uint64_t elements,
                        std::uint64_t bytes);

// Number of "elements" a value contributes to serialization cost (lists
// count their items recursively). Scalar case inline: it runs once per
// relayed call on the result-charging path.
std::uint64_t element_count_list(const rt::Value& v);
inline std::uint64_t element_count(const rt::Value& v) {
  return v.type() == rt::ValueType::kList ? element_count_list(v) : 1;
}

}  // namespace msv::rmi
