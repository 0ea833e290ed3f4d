#include "rmi/wire.h"

#include "support/error.h"

namespace msv::rmi {

using rt::Value;
using rt::ValueType;

// Deep neutral-object graphs are legal payloads (a 100k-deep nested list
// is one argument), so the codec walks with explicit frame stacks — the
// byte stream is identical to the old recursive form (pre-order, list
// header then elements in order), only the traversal is iterative.

namespace {

// Encodes every non-list case exactly as the recursive encoder did.
void encode_scalar(ByteBuffer& out, const Value& v,
                   const RefEncoder& ref_encoder) {
  switch (v.type()) {
    case ValueType::kNull:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kNull));
      return;
    case ValueType::kBool:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kBool));
      out.put_u8(v.as_bool() ? 1 : 0);
      return;
    case ValueType::kI32:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kI32));
      out.put_i32(v.as_i32());
      return;
    case ValueType::kI64:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kI64));
      out.put_i64(v.as_i64());
      return;
    case ValueType::kF64:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kF64));
      out.put_f64(v.as_f64());
      return;
    case ValueType::kString:
      out.put_u8(static_cast<std::uint8_t>(WireTag::kString));
      out.put_string(v.as_string());
      return;
    case ValueType::kRef:
      if (v.as_ref().is_null()) {
        out.put_u8(static_cast<std::uint8_t>(WireTag::kNull));
        return;
      }
      ref_encoder(out, v.as_ref());
      return;
    case ValueType::kList:
      break;  // handled by the frame loop
  }
  throw RuntimeFault("encode_scalar on a list");
}

struct EncodeFrame {
  const rt::ValueList* list;
  std::size_t next = 0;
};

// A decoded list's wire count can lie: every element needs at least its
// tag byte, so a count beyond the remaining input is corrupt — reject it
// BEFORE sizing the vector, or a 2^40 count turns into a giant
// allocation from attacker-controlled bytes.
std::uint64_t checked_list_count(ByteReader& in, std::uint64_t n) {
  if (n > in.remaining()) {
    throw RuntimeFault("corrupt wire value: list count exceeds input");
  }
  return n;
}

struct DecodeFrame {
  rt::ValueList list;
  std::size_t next = 0;

  explicit DecodeFrame(std::uint64_t n)
      : list(static_cast<std::size_t>(n)) {}
};

}  // namespace

void encode_value(ByteBuffer& out, const Value& v,
                  const RefEncoder& ref_encoder) {
  if (v.type() != ValueType::kList) {
    encode_scalar(out, v, ref_encoder);
    return;
  }
  std::vector<EncodeFrame> stack;
  out.put_u8(static_cast<std::uint8_t>(WireTag::kList));
  out.put_varint(v.as_list().size());
  stack.push_back({&v.as_list(), 0});
  while (!stack.empty()) {
    EncodeFrame& f = stack.back();
    if (f.next == f.list->size()) {
      stack.pop_back();
      continue;
    }
    const Value& e = (*f.list)[f.next++];
    if (e.type() == ValueType::kList) {
      out.put_u8(static_cast<std::uint8_t>(WireTag::kList));
      out.put_varint(e.as_list().size());
      stack.push_back({&e.as_list(), 0});
    } else {
      encode_scalar(out, e, ref_encoder);
    }
  }
}

rt::Value decode_value(ByteReader& in, const RefDecoder& ref_decoder) {
  const auto decode_scalar = [&](WireTag tag) -> Value {
    switch (tag) {
      case WireTag::kNull:
        return Value();
      case WireTag::kBool:
        return Value(in.get_u8() != 0);
      case WireTag::kI32:
        return Value(in.get_i32());
      case WireTag::kI64:
        return Value(in.get_i64());
      case WireTag::kF64:
        return Value(in.get_f64());
      case WireTag::kString:
        return Value(in.get_string());
      case WireTag::kRefOwnedByEncoder:
      case WireTag::kRefOwnedByDecoder:
      case WireTag::kNeutralObject:
        return ref_decoder(in, tag);
      case WireTag::kList:
        break;  // handled by the frame loop
    }
    throw RuntimeFault("corrupt wire value: unknown tag");
  };
  const auto tag = static_cast<WireTag>(in.get_u8());
  if (tag != WireTag::kList) return decode_scalar(tag);
  std::vector<DecodeFrame> stack;
  stack.emplace_back(checked_list_count(in, in.get_varint()));
  while (true) {
    DecodeFrame& f = stack.back();
    if (f.next == f.list.size()) {
      Value done(std::move(f.list));
      stack.pop_back();
      if (stack.empty()) return done;
      DecodeFrame& parent = stack.back();
      parent.list[parent.next++] = std::move(done);
      continue;
    }
    const auto t = static_cast<WireTag>(in.get_u8());
    if (t == WireTag::kList) {
      stack.emplace_back(checked_list_count(in, in.get_varint()));
    } else {
      f.list[f.next++] = decode_scalar(t);
    }
  }
}

std::uint64_t element_count_list(const rt::Value& v) {
  // Order-independent sum: a pointer work-list replaces the recursion.
  std::uint64_t n = 0;
  std::vector<const rt::Value*> work{&v};
  while (!work.empty()) {
    const rt::Value* cur = work.back();
    work.pop_back();
    ++n;
    if (cur->type() == ValueType::kList) {
      for (const auto& e : cur->as_list()) work.push_back(&e);
    }
  }
  return n;
}

void charge_serialize(Env& env, MemoryDomain& domain, std::uint64_t elements,
                      std::uint64_t bytes) {
  env.clock.advance(env.cost.serialize_base_cycles +
                    elements * env.cost.serialize_element_cycles +
                    static_cast<Cycles>(static_cast<double>(bytes) *
                                        env.cost.serialize_cycles_per_byte));
  domain.charge_traffic(bytes);
}

void charge_deserialize(Env& env, MemoryDomain& domain, std::uint64_t elements,
                        std::uint64_t bytes) {
  env.clock.advance(env.cost.deserialize_base_cycles +
                    elements * env.cost.deserialize_element_cycles +
                    static_cast<Cycles>(static_cast<double>(bytes) *
                                        env.cost.deserialize_cycles_per_byte));
  domain.charge_traffic(bytes);
}

}  // namespace msv::rmi
