#include "apps/graphchi/engine.h"

#include "support/bytes.h"
#include "support/error.h"

namespace msv::apps::graphchi {
namespace {

constexpr double kPerEdgeCycles = 4000.0;  // ~1 us/edge: GraphChi-Java's
                                            // ChiPointer/DataBlock machinery
constexpr double kPerVertexCycles = 200.0;  // apply + callback dispatch
constexpr std::uint64_t kEdgeTrafficBytes = 12;  // edge + touched value

std::vector<std::uint32_t> load_degrees(shim::IoService& io,
                                        const std::string& path,
                                        std::uint32_t nvertices) {
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(nvertices) * 4);
  const auto f = io.open(path, vfs::OpenMode::kRead);
  MSV_CHECK_MSG(io.read(f, raw.data(), raw.size()) == raw.size(),
                "degree file truncated");
  io.close(f);
  std::vector<std::uint32_t> deg(nvertices);
  ByteReader r(raw.data(), raw.size());
  for (auto& d : deg) d = r.get_u32();
  return deg;
}

void store_values(shim::IoService& io, const std::string& path,
                  const std::vector<double>& values) {
  ByteBuffer buf;
  for (const auto v : values) buf.put_f64(v);
  const auto f = io.open(path, vfs::OpenMode::kWrite);
  io.write(f, buf.data(), buf.size());
  io.flush(f);
  io.close(f);
}

std::vector<double> load_values(shim::IoService& io, const std::string& path,
                                std::uint32_t nvertices) {
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(nvertices) * 8);
  const auto f = io.open(path, vfs::OpenMode::kRead);
  MSV_CHECK_MSG(io.read(f, raw.data(), raw.size()) == raw.size(),
                "vertex data truncated");
  io.close(f);
  std::vector<double> values(nvertices);
  ByteReader r(raw.data(), raw.size());
  for (auto& v : values) v = r.get_f64();
  return values;
}

}  // namespace

std::vector<double> GraphChiEngine::run(const ShardingResult& sharding,
                                        const GatherApplyProgram& program,
                                        std::uint32_t iterations,
                                        const std::string& prefix) {
  const std::string vdata_path = prefix + ".vdata";
  const std::uint64_t buffer_region = domain_.register_region();
  const std::uint64_t buffer_pages =
      config_.membudget_bytes / env_.cost.page_bytes;
  const std::vector<std::uint32_t> out_degree =
      load_degrees(io_, sharding.degree_path, sharding.nvertices);

  // Initialise vertex data on disk.
  std::vector<double> values(sharding.nvertices);
  for (std::uint32_t v = 0; v < sharding.nvertices; ++v) {
    values[v] = program.init_value(v);
  }
  store_values(io_, vdata_path, values);

  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    ++stats_.iterations;
    // The out-of-core engine re-reads vertex data at the start of every
    // pass and writes it back at the end.
    values = load_values(io_, vdata_path, sharding.nvertices);
    std::vector<double> gathered(sharding.nvertices, 0.0);

    for (std::uint32_t s = 0; s < sharding.nshards; ++s) {
      ++stats_.shard_loads;
      const auto f = io_.open(sharding.shard_paths[s], vfs::OpenMode::kRead);
      std::uint8_t count_raw[8];
      MSV_CHECK_MSG(io_.read(f, count_raw, 8) == 8, "shard truncated");
      ByteReader count_reader(count_raw, 8);
      std::uint64_t remaining = count_reader.get_u64();

      constexpr std::uint64_t kChunkEdges = 1024;  // 8 KiB buffered stream
      std::vector<std::uint8_t> chunk(kChunkEdges * 8);
      while (remaining > 0) {
        const std::uint64_t want = std::min(kChunkEdges, remaining) * 8;
        MSV_CHECK_MSG(io_.read(f, chunk.data(), want) == want,
                      "shard truncated mid-stream");
        ByteReader r(chunk.data(), want);
        while (!r.done()) {
          const std::uint32_t src = r.get_u32();
          const std::uint32_t dst = r.get_u32();
          gathered[dst] += program.gather(values[src], out_degree[src]);
          ++stats_.edges_processed;
        }
        remaining -= want / 8;
      }
      io_.close(f);
    }

    for (std::uint32_t v = 0; v < sharding.nvertices; ++v) {
      values[v] = program.apply(gathered[v]);
    }

    // Cost of the pass: per-edge gather work + per-vertex apply, plus the
    // memory traffic of streaming edges and vertex values.
    env_.clock.advance(static_cast<Cycles>(
        static_cast<double>(sharding.nedges) * kPerEdgeCycles +
        static_cast<double>(sharding.nvertices) * kPerVertexCycles));
    // Streaming the edges and scattering into the gather array is memory
    // traffic; inside the enclave it pays the MEE factor (Fig. 9's engine
    // slowdown under SGX).
    domain_.charge_traffic(sharding.nedges * kEdgeTrafficBytes +
                           sharding.nvertices * 16);
    // Every pass cycles the engine's block buffers (the membudget). That
    // working set exceeds the EPC, so inside the enclave this is a paging
    // sweep; outside it stays in the page cache.
    domain_.touch_pages(buffer_region, 0, buffer_pages);
    domain_.charge_traffic(config_.membudget_bytes / 2);
    store_values(io_, vdata_path, values);
  }
  return values;
}

}  // namespace msv::apps::graphchi
