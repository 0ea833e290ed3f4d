#include "rmi/batch.h"

namespace msv::rmi {

void encode_batch_header(ByteBuffer& out, std::uint64_t count) {
  out.put_varint(count);
}

void encode_batch_entry(ByteBuffer& out, std::uint32_t call_id,
                        const std::uint8_t* payload, std::size_t size) {
  out.put_varint(call_id);
  out.put_varint(size);
  out.put_bytes(payload, size);
}

void encode_batch_result(ByteBuffer& out, bool ok, const std::uint8_t* payload,
                         std::size_t size) {
  out.put_u8(ok ? 0 : 1);
  out.put_varint(size);
  out.put_bytes(payload, size);
}

namespace {

// get_varint on a frame of attacker-reachable bytes: translate the
// ByteReader's generic truncation fault into the typed codec error.
std::uint64_t bounded_varint(ByteReader& r, const char* what) {
  try {
    return r.get_varint();
  } catch (const RuntimeFault&) {
    throw BatchCodecError(std::string("truncated batch frame reading ") +
                          what);
  }
}

}  // namespace

std::vector<BatchEntryView> decode_batch_request(const std::uint8_t* data,
                                                 std::size_t size,
                                                 const BatchLimits& limits) {
  if (size > limits.max_frame_bytes) {
    throw BatchCodecError("batch request frame of " + std::to_string(size) +
                          " bytes exceeds the " +
                          std::to_string(limits.max_frame_bytes) +
                          "-byte frame bound");
  }
  ByteReader r(data, size);
  const std::uint64_t count = bounded_varint(r, "entry count");
  if (count == 0) {
    throw BatchCodecError("empty batch request frame");
  }
  if (count > limits.max_calls) {
    throw BatchCodecError("batch entry count " + std::to_string(count) +
                          " exceeds the " + std::to_string(limits.max_calls) +
                          "-call bound");
  }
  // The count is now bounded, so reserving is safe.
  std::vector<BatchEntryView> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    BatchEntryView e;
    e.call_id = static_cast<std::uint32_t>(bounded_varint(r, "call id"));
    const std::uint64_t nbytes = bounded_varint(r, "entry size");
    if (nbytes > limits.max_entry_bytes) {
      throw BatchCodecError("batch entry " + std::to_string(i) + " of " +
                            std::to_string(nbytes) + " bytes exceeds the " +
                            std::to_string(limits.max_entry_bytes) +
                            "-byte entry bound");
    }
    if (nbytes > r.remaining()) {
      throw BatchCodecError("truncated batch frame: entry " +
                            std::to_string(i) + " claims " +
                            std::to_string(nbytes) + " bytes, " +
                            std::to_string(r.remaining()) + " remain");
    }
    e.data = data + r.position();
    e.size = static_cast<std::size_t>(nbytes);
    r.seek(r.position() + e.size);
    entries.push_back(e);
  }
  if (!r.done()) {
    throw BatchCodecError("trailing bytes after the last batch entry");
  }
  return entries;
}

std::vector<BatchResultView> decode_batch_response(const std::uint8_t* data,
                                                   std::size_t size,
                                                   std::uint64_t expected,
                                                   const BatchLimits& limits) {
  if (size > limits.max_frame_bytes) {
    throw BatchCodecError("batch response frame of " + std::to_string(size) +
                          " bytes exceeds the " +
                          std::to_string(limits.max_frame_bytes) +
                          "-byte frame bound");
  }
  ByteReader r(data, size);
  const std::uint64_t count = bounded_varint(r, "result count");
  if (count != expected) {
    throw BatchCodecError("batch response carries " + std::to_string(count) +
                          " results for " + std::to_string(expected) +
                          " calls");
  }
  std::vector<BatchResultView> results;
  results.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    BatchResultView v;
    std::uint8_t status;
    try {
      status = r.get_u8();
    } catch (const RuntimeFault&) {
      throw BatchCodecError("truncated batch frame reading result status");
    }
    if (status > 1) {
      throw BatchCodecError("corrupt batch result status " +
                            std::to_string(status));
    }
    v.ok = status == 0;
    const std::uint64_t nbytes = bounded_varint(r, "result size");
    if (nbytes > limits.max_entry_bytes) {
      throw BatchCodecError("batch result " + std::to_string(i) + " of " +
                            std::to_string(nbytes) + " bytes exceeds the " +
                            std::to_string(limits.max_entry_bytes) +
                            "-byte entry bound");
    }
    if (nbytes > r.remaining()) {
      throw BatchCodecError("truncated batch frame: result " +
                            std::to_string(i) + " claims " +
                            std::to_string(nbytes) + " bytes, " +
                            std::to_string(r.remaining()) + " remain");
    }
    v.data = data + r.position();
    v.size = static_cast<std::size_t>(nbytes);
    r.seek(r.position() + v.size);
    results.push_back(v);
  }
  if (!r.done()) {
    throw BatchCodecError("trailing bytes after the last batch result");
  }
  return results;
}

}  // namespace msv::rmi
