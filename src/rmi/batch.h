// Batched RMI (DESIGN.md §13): the wire codec of the batch frame.
//
// Every proxy invocation pays a full enclave transition (~13,100 cycles)
// plus an isolate attach on the callee side (~480,000 cycles for the
// trusted image) — the dominant cost on chatty partitioned workloads.
// ProxyRuntime::invoke_batch, the one caller-side batch builder, packs N
// calls into one frame so both are paid once. This header holds:
//
//   * the batch wire frame: N per-call payloads packed into one request
//     buffer, dispatched by a single bridge transition, with the packed
//     results returned the same way;
//   * bounded decoding of that frame (BatchLimits / BatchCodecError):
//     the callee parses attacker-reachable bytes, so counts and sizes are
//     validated before any allocation — the same discipline as the
//     sealed-storage SealedBlob deserializer.
//
// Wire layout (request):   varint count, then per entry:
//                          varint call_id, varint nbytes, payload bytes
// Wire layout (response):  varint count, then per result:
//                          u8 status (0 = ok, 1 = error), varint nbytes,
//                          payload bytes (encoded result value, or the
//                          error message for status 1)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/error.h"

namespace msv::rmi {

// A malformed batch frame: truncated, over the entry/frame bounds, or an
// impossible count. Typed so tests (and a defensive dispatcher) can tell
// codec violations from application faults.
class BatchCodecError : public RuntimeFault {
 public:
  explicit BatchCodecError(const std::string& what) : RuntimeFault(what) {}
};

// Bounds enforced while decoding a batch frame. The defaults mirror the
// BufferArena pooling bound (1 MiB per wire buffer): no legitimate batch
// entry outgrows a single unbatched call's payload.
struct BatchLimits {
  std::uint32_t max_calls = 1024;
  std::size_t max_entry_bytes = 1 << 20;   // 1 MiB per packed call
  std::size_t max_frame_bytes = 4 << 20;   // 4 MiB per frame
};

// One decoded request entry: a view into the frame buffer (valid only
// while the frame's backing bytes live).
struct BatchEntryView {
  std::uint32_t call_id = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

// One decoded response slot.
struct BatchResultView {
  bool ok = true;
  const std::uint8_t* data = nullptr;  // result payload, or error message
  std::size_t size = 0;
};

// ---- Frame encoding -------------------------------------------------------

void encode_batch_header(ByteBuffer& out, std::uint64_t count);
void encode_batch_entry(ByteBuffer& out, std::uint32_t call_id,
                        const std::uint8_t* payload, std::size_t size);
void encode_batch_result(ByteBuffer& out, bool ok, const std::uint8_t* payload,
                         std::size_t size);

// ---- Bounded frame decoding ----------------------------------------------

// Parses a request frame. Throws BatchCodecError on truncation, a count
// over limits.max_calls, an entry over limits.max_entry_bytes, a frame
// over limits.max_frame_bytes, or trailing garbage.
std::vector<BatchEntryView> decode_batch_request(const std::uint8_t* data,
                                                 std::size_t size,
                                                 const BatchLimits& limits);
inline std::vector<BatchEntryView> decode_batch_request(
    const ByteBuffer& buf, const BatchLimits& limits) {
  return decode_batch_request(buf.data(), buf.size(), limits);
}

// Parses a response frame under the same bounds; `expected` must match the
// request's entry count (a short response would silently drop calls).
std::vector<BatchResultView> decode_batch_response(const std::uint8_t* data,
                                                   std::size_t size,
                                                   std::uint64_t expected,
                                                   const BatchLimits& limits);
inline std::vector<BatchResultView> decode_batch_response(
    const ByteBuffer& buf, std::uint64_t expected, const BatchLimits& limits) {
  return decode_batch_response(buf.data(), buf.size(), expected, limits);
}

}  // namespace msv::rmi
