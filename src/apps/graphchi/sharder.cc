#include "apps/graphchi/sharder.h"

#include <algorithm>
#include <cmath>

#include "support/bytes.h"
#include "support/error.h"

namespace msv::apps::graphchi {
namespace {

// CPU cost per edge for bucketing and degree counting; sort cost is
// charged per comparison.
constexpr double kPerEdgeCycles = 9000.0;  // ~2.4 us/edge: Java text
                                            // parsing, boxing, shuffling
constexpr double kSortCyclesPerCmp = 25.0;  // comparator object calls

}  // namespace

ShardingResult FastSharder::shard(const std::string& edge_file,
                                  std::uint32_t nshards,
                                  const std::string& prefix) {
  MSV_CHECK_MSG(nshards >= 1, "need at least one shard");

  // Stream the edge list in.
  const auto in = io_.open(edge_file, vfs::OpenMode::kRead);
  std::uint8_t header_raw[12];
  MSV_CHECK_MSG(io_.read(in, header_raw, sizeof(header_raw)) ==
                    sizeof(header_raw),
                "edge list truncated");
  ByteReader header(header_raw, sizeof(header_raw));
  ShardingResult result;
  result.nvertices = header.get_u32();
  result.nedges = header.get_u64();
  result.nshards = nshards;

  // Destination intervals of (nearly) equal vertex span.
  const std::uint32_t span =
      (result.nvertices + nshards - 1) / nshards;
  for (std::uint32_t s = 0; s < nshards; ++s) {
    const std::uint32_t lo = s * span;
    const std::uint32_t hi =
        std::min(result.nvertices, (s + 1) * span);
    result.intervals.emplace_back(lo, hi);
  }

  std::vector<std::vector<std::uint8_t>> buckets(nshards);
  std::vector<std::uint32_t> out_degree(result.nvertices, 0);

  constexpr std::uint64_t kChunkEdges = 1024;  // 8 KiB buffered stream
  std::vector<std::uint8_t> chunk(kChunkEdges * 8);
  std::uint64_t remaining = result.nedges;
  while (remaining > 0) {
    const std::uint64_t want = std::min(kChunkEdges, remaining) * 8;
    const std::uint64_t got = io_.read(in, chunk.data(), want);
    MSV_CHECK_MSG(got == want, "edge list truncated mid-stream");
    ByteReader r(chunk.data(), got);
    while (!r.done()) {
      const std::uint32_t src = r.get_u32();
      const std::uint32_t dst = r.get_u32();
      MSV_CHECK_MSG(src < result.nvertices && dst < result.nvertices,
                    "edge endpoint out of range");
      ++out_degree[src];
      auto& bucket = buckets[std::min<std::uint32_t>(dst / span, nshards - 1)];
      const std::uint32_t words[2] = {src, dst};
      bucket.insert(bucket.end(),
                    reinterpret_cast<const std::uint8_t*>(words),
                    reinterpret_cast<const std::uint8_t*>(words) + 8);
      ++stats_.edges_read;
    }
    remaining -= got / 8;
  }
  io_.close(in);
  env_.clock.advance(static_cast<Cycles>(
      static_cast<double>(result.nedges) * kPerEdgeCycles));
  // Bucketing scatters every edge once.
  domain_.charge_traffic(result.nedges * 8);
  // The sharder preallocates shuffle/sort buffers at GraphChi's memory
  // budget and sweeps them twice (bucket pass + sort pass); inside the
  // enclave the working set exceeds the EPC and pages.
  constexpr std::uint64_t kShuffleBufferBytes = 110ull << 20;
  const std::uint64_t buffer_region = domain_.register_region();
  const std::uint64_t buffer_pages =
      kShuffleBufferBytes / env_.cost.page_bytes;
  for (int pass = 0; pass < 2; ++pass) {
    domain_.touch_pages(buffer_region, 0, buffer_pages);
    domain_.charge_traffic(kShuffleBufferBytes / 2);
  }

  // Sort each shard by source and write it out.
  for (std::uint32_t s = 0; s < nshards; ++s) {
    auto& raw = buckets[s];
    const std::uint64_t count = raw.size() / 8;
    auto* pairs = reinterpret_cast<std::uint64_t*>(raw.data());
    // Little-endian (src, dst) pairs: sorting the raw u64 orders by dst
    // first; sort via explicit comparator on src.
    std::sort(pairs, pairs + count,
              [](std::uint64_t lhs, std::uint64_t rhs) {
                return static_cast<std::uint32_t>(lhs) <
                       static_cast<std::uint32_t>(rhs);
              });
    if (count > 1) {
      env_.clock.advance(static_cast<Cycles>(
          static_cast<double>(count) *
          std::max(1.0, std::log2(static_cast<double>(count))) *
          kSortCyclesPerCmp));
      domain_.charge_traffic(count * 8 * 2);  // sort reads + writes
    }

    const std::string path = prefix + ".shard" + std::to_string(s);
    const auto out = io_.open(path, vfs::OpenMode::kWrite);
    ByteBuffer shard_header;
    shard_header.put_u64(count);
    io_.write(out, shard_header.data(), shard_header.size());
    // Write in chunks as a buffered stream would.
    constexpr std::uint64_t kWriteChunk = 8 << 10;  // BufferedOutputStream
    for (std::uint64_t off = 0; off < raw.size(); off += kWriteChunk) {
      const std::uint64_t n = std::min<std::uint64_t>(kWriteChunk,
                                                      raw.size() - off);
      io_.write(out, raw.data() + off, n);
      stats_.bytes_written += n;
    }
    io_.flush(out);
    io_.close(out);
    result.shard_paths.push_back(path);
  }

  // Out-degree file, needed by PageRank's gather.
  result.degree_path = prefix + ".deg";
  const auto deg = io_.open(result.degree_path, vfs::OpenMode::kWrite);
  ByteBuffer deg_bytes;
  for (const auto d : out_degree) deg_bytes.put_u32(d);
  io_.write(deg, deg_bytes.data(), deg_bytes.size());
  stats_.bytes_written += deg_bytes.size();
  io_.flush(deg);
  io_.close(deg);
  return result;
}

}  // namespace msv::apps::graphchi
