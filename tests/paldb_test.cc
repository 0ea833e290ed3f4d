// Tests for src/apps/paldb: store format round trips, the write/read I/O
// asymmetry (§6.5), and enclave-vs-host cost behaviour.
#include <gtest/gtest.h>

#include <functional>

#include "apps/paldb/model.h"
#include "apps/paldb/store.h"
#include "sgx/bridge.h"
#include "sgx/enclave.h"
#include "shim/enclave_shim.h"
#include "shim/host_io.h"
#include "support/error.h"
#include "support/sha256.h"

namespace msv::apps::paldb {
namespace {

class PaldbTest : public ::testing::Test {
 protected:
  PaldbTest() : domain_(env_), io_(env_, domain_) {}

  void write_store(const std::string& path, int n) {
    StoreWriter writer(env_, io_, path);
    for (int i = 0; i < n; ++i) {
      writer.put("key" + std::to_string(i), "value" + std::to_string(i));
    }
    writer.close();
  }

  Env env_;
  UntrustedDomain domain_;
  shim::HostIo io_;
};

TEST_F(PaldbTest, WriteThenReadBack) {
  write_store("s.paldb", 100);
  StoreReader reader(env_, io_, "s.paldb");
  EXPECT_EQ(reader.key_count(), 100u);
  for (int i = 0; i < 100; ++i) {
    const auto v = reader.get("key" + std::to_string(i));
    ASSERT_TRUE(v.has_value()) << "key" << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  EXPECT_EQ(reader.stats().hits, 100u);
}

TEST_F(PaldbTest, MissingKeyReturnsNothing) {
  write_store("s.paldb", 10);
  StoreReader reader(env_, io_, "s.paldb");
  EXPECT_FALSE(reader.get("nope").has_value());
  EXPECT_FALSE(reader.get("").has_value());
}

TEST_F(PaldbTest, EmptyStoreIsValid) {
  {
    StoreWriter writer(env_, io_, "empty.paldb");
    writer.close();
  }
  StoreReader reader(env_, io_, "empty.paldb");
  EXPECT_EQ(reader.key_count(), 0u);
  EXPECT_FALSE(reader.get("k").has_value());
}

TEST_F(PaldbTest, LargeValuesSurvive) {
  {
    StoreWriter writer(env_, io_, "big.paldb");
    writer.put("big", std::string(100'000, 'x'));
    writer.put("small", "y");
    writer.close();
  }
  StoreReader reader(env_, io_, "big.paldb");
  EXPECT_EQ(reader.get("big")->size(), 100'000u);
  EXPECT_EQ(*reader.get("small"), "y");
}

TEST_F(PaldbTest, DuplicateKeyRejectedAtClose) {
  StoreWriter writer(env_, io_, "dup.paldb");
  writer.put("k", "v1");
  writer.put("k", "v2");
  EXPECT_THROW(writer.close(), RuntimeFault);
}

TEST_F(PaldbTest, WriteOnceEnforced) {
  StoreWriter writer(env_, io_, "once.paldb");
  writer.put("k", "v");
  writer.close();
  EXPECT_THROW(writer.put("k2", "v2"), RuntimeFault);
  EXPECT_THROW(writer.close(), RuntimeFault);
}

TEST_F(PaldbTest, StagingFilesRemovedAfterClose) {
  write_store("clean.paldb", 5);
  EXPECT_FALSE(io_.exists("clean.paldb.keys.tmp"));
  EXPECT_FALSE(io_.exists("clean.paldb.values.tmp"));
  EXPECT_TRUE(io_.exists("clean.paldb"));
}

TEST_F(PaldbTest, CorruptMagicRejected) {
  {
    const auto f = env_.fs->open("bad.paldb", vfs::OpenMode::kWrite);
    const std::string junk(64, 'j');
    f->write(junk.data(), junk.size());
  }
  EXPECT_THROW(StoreReader(env_, io_, "bad.paldb"), RuntimeFault);
}

TEST_F(PaldbTest, CorruptHeaderRejected) {
  write_store("good.paldb", 1);
  const auto good = env_.fs->map("good.paldb");
  const std::uint64_t size = good->size();
  const std::uint64_t index_offset = size - 16 * kSlotBytes;
  // Writes a copy of the good store with the u64 at `offset` replaced.
  auto corrupt = [&](std::uint64_t offset, std::uint64_t value) {
    std::vector<std::uint8_t> bytes = *good;
    for (int i = 0; i < 8; ++i) {
      bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    env_.fs->open("bad.paldb", vfs::OpenMode::kWrite)
        ->write(bytes.data(), bytes.size());
  };
  {
    StoreReader reader(env_, io_, "good.paldb");
    ASSERT_EQ(reader.get("key0"), "value0");
  }

  // The index must lie inside the file, after the header. At 2^64 - 8 an
  // unchecked `offset + len` wraps back into the file.
  for (const std::uint64_t bad_index :
       {~std::uint64_t{0} - 7, std::uint64_t{0}, kHeaderBytes - 1, size + 1,
        index_offset + 8}) {
    corrupt(16, bad_index);
    EXPECT_THROW(StoreReader(env_, io_, "bad.paldb"), RuntimeFault)
        << "index at " << bad_index;
  }
  // The slot count must be a nonzero power of two that fits the file.
  for (const std::uint64_t bad_slots :
       {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{24},
        std::uint64_t{32}, std::uint64_t{1} << 60}) {
    corrupt(24, bad_slots);
    EXPECT_THROW(StoreReader(env_, io_, "bad.paldb"), RuntimeFault)
        << bad_slots << " slots";
  }
  // A slot must point inside the data region: its stored offset + 1 is
  // neither 0 nor past the data.
  auto u64_at = [&](std::uint64_t offset) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>((*good)[offset + i]) << (8 * i);
    }
    return v;
  };
  std::uint64_t slot = index_offset;  // key0's: the one slot in use
  while (u64_at(slot) == 0) slot += kSlotBytes;
  const std::uint64_t data_bytes = index_offset - kHeaderBytes;
  for (const std::uint64_t bad_offset :
       {std::uint64_t{0}, data_bytes + 1, ~std::uint64_t{0}}) {
    corrupt(slot + 8, bad_offset);
    StoreReader reader(env_, io_, "bad.paldb");
    EXPECT_THROW(reader.get("key0"), RuntimeFault)
        << "slot offset field " << bad_offset;
  }
}

TEST_F(PaldbTest, WritesDoRegularIoReadsUseMmap) {
  const auto writes_before = io_.stats().writes;
  write_store("asym.paldb", 1000);
  const auto writes_during = io_.stats().writes - writes_before;
  EXPECT_GE(writes_during, 2000u) << "two write()s per put, plus the merge";

  const auto maps_before = io_.stats().maps;
  const auto writes_after_build = io_.stats().writes;
  StoreReader reader(env_, io_, "asym.paldb");
  for (int i = 0; i < 1000; ++i) reader.get("key" + std::to_string(i));
  EXPECT_EQ(io_.stats().maps, maps_before + 1) << "reads go through mmap";
  EXPECT_EQ(io_.stats().writes, writes_after_build) << "reads never write";
}

TEST_F(PaldbTest, EnclaveReaderPaysMoreThanHostReader) {
  write_store("cost.paldb", 2000);

  // Host-side reads.
  const Cycles t0 = env_.clock.now();
  {
    StoreReader reader(env_, io_, "cost.paldb");
    for (int i = 0; i < 2000; ++i) reader.get("key" + std::to_string(i));
  }
  const Cycles host_cost = env_.clock.now() - t0;

  // The same reads issued from inside an enclave (mapped pages copied in,
  // MEE on every probe).
  Env enclave_env;
  sgx::Enclave enclave(enclave_env, "e", Sha256::hash("img"), 4096);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain trusted(enclave_env, enclave);
  UntrustedDomain untrusted(enclave_env);
  shim::HostIo host(enclave_env, untrusted);
  sgx::TransitionBridge bridge(enclave_env, enclave);
  shim::EnclaveShim shim(enclave_env, bridge, host, trusted);
  shim.register_ocalls();

  // Copy the store into the enclave test's fs.
  {
    auto data = env_.fs->map("cost.paldb");
    auto f = enclave_env.fs->open("cost.paldb", vfs::OpenMode::kWrite);
    f->write(data->data(), data->size());
  }

  // Reads must run "inside": wrap in an ecall.
  const sgx::CallId read_all =
      bridge.register_ecall("read_all", [&](ByteReader&) {
        StoreReader reader(enclave_env, shim, "cost.paldb");
        for (int i = 0; i < 2000; ++i) reader.get("key" + std::to_string(i));
        return ByteBuffer();
      });
  const Cycles t1 = enclave_env.clock.now();
  ByteBuffer read_resp;
  bridge.ecall(read_all, ByteBuffer(), read_resp);
  const Cycles enclave_cost = enclave_env.clock.now() - t1;

  // The read-side penalty is real but modest — which is exactly why the
  // paper's RUWT scheme (reads outside) barely improves on NoPart (§6.5).
  EXPECT_GT(enclave_cost, host_cost + host_cost / 4);
}

// Pins the store build as run from inside an enclave: the file it
// writes, the shim ocalls it makes and the cycles it is charged. The
// values staging stream is read back in 64 KiB chunks; its records are
// laid out so that one value is longer than a chunk and one record's
// varint length prefix is cut by a chunk boundary.
TEST(PaldbEnclaveBuild, FileOcallsAndCyclesArePinned) {
  Env env;
  sgx::Enclave enclave(env, "e", Sha256::hash("img"), 4096);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain trusted(env, enclave);
  UntrustedDomain untrusted(env);
  shim::HostIo host(env, untrusted);
  sgx::TransitionBridge bridge(env, enclave);
  shim::EnclaveShim shim(env, bridge, host, trusted);
  shim.register_ocalls();

  constexpr std::uint64_t kChunk = 64 << 10;
  auto value_of = [](std::size_t i, std::size_t n) {
    std::string v(n, ' ');
    for (std::size_t j = 0; j < n; ++j) {
      v[j] = static_cast<char>('a' + (i * 7 + j) % 26);
    }
    return v;
  };
  // Value 0: 100,000 bytes behind a 3-byte prefix, longer than a chunk.
  // Value 1 fills the values stream up to one byte short of the second
  // chunk boundary, where value 2's 2-byte prefix then starts.
  std::vector<std::string> values = {value_of(0, 100'000),
                                     value_of(1, 2 * kChunk - 1 - 100'003 - 3),
                                     value_of(2, 200)};
  for (std::size_t i = 3; i < 12; ++i) values.push_back(value_of(i, i * 5));

  Cycles build_cycles = 0;
  const sgx::CallId build = bridge.register_ecall("build", [&](ByteReader&) {
    const Cycles t0 = env.clock.now();
    StoreWriter writer(env, shim, "pin.paldb");
    for (std::size_t i = 0; i < values.size(); ++i) {
      writer.put("key" + std::to_string(i), values[i]);
    }
    writer.close();
    build_cycles = env.clock.now() - t0;
    return ByteBuffer();
  });
  ByteBuffer resp;
  bridge.ecall(build, ByteBuffer(), resp);

  const auto file = env.fs->map("pin.paldb");
  const std::string bytes(file->begin(), file->end());
  EXPECT_EQ(Sha256::hex(Sha256::hash(bytes)),
            "7277040ee11e6e2c42b04ce13929bd7e687b7040414a609a40780730770f6cc8");
  EXPECT_EQ(build_cycles, 1'156'781u);

  const auto& per_call = bridge.stats().per_call;
  const sgx::CallStats& fwrite = per_call.at("ocall_fwrite");
  const sgx::CallStats& fread = per_call.at("ocall_fread");
  const sgx::CallStats& unlink = per_call.at("ocall_unlink");
  EXPECT_EQ(fwrite.calls, 27u);  // 2 per put + header, data, index
  EXPECT_EQ(fwrite.bytes_in, 264'113u);
  EXPECT_EQ(fwrite.bytes_out, 0u);
  EXPECT_EQ(fread.calls, 4u);  // keys: 1 chunk; values: 3
  EXPECT_EQ(fread.bytes_in, 41u);
  EXPECT_EQ(fread.bytes_out, 131'668u);
  EXPECT_EQ(unlink.calls, 2u);
  EXPECT_EQ(unlink.bytes_in, 40u);
  EXPECT_EQ(unlink.bytes_out, 0u);

  // The store reads back what was put, and the staging files are gone.
  StoreReader reader(env, host, "pin.paldb");
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(reader.get("key" + std::to_string(i)), values[i]) << i;
  }
  EXPECT_FALSE(env.fs->exists("pin.paldb.keys.tmp"));
  EXPECT_FALSE(env.fs->exists("pin.paldb.values.tmp"));
}

// An initialized enclave whose code reaches the files through the shim:
// every file call the store makes from inside it is an ocall.
struct ShimmedEnclave {
  ShimmedEnclave() {
    enclave.init(Sha256::hash("img"));
    shim.register_ocalls();
  }

  // Runs `body` inside the enclave, in one ecall.
  void run(const std::function<void()>& body) {
    const sgx::CallId id = bridge.register_ecall("run", [&](ByteReader&) {
      body();
      return ByteBuffer();
    });
    ByteBuffer resp;
    bridge.ecall(id, ByteBuffer(), resp);
  }

  const sgx::CallStats& ocall(const std::string& name) const {
    return bridge.stats().per_call.at(name);
  }

  Env env;
  sgx::Enclave enclave{env, "e", Sha256::hash("img"), 4096};
  sgx::EnclaveDomain trusted{env, enclave};
  UntrustedDomain untrusted{env};
  shim::HostIo host{env, untrusted};
  sgx::TransitionBridge bridge{env, enclave};
  shim::EnclaveShim shim{env, bridge, host, trusted};
};

// Pins a store of realistic size built from inside an enclave: 20,000 of
// Fig. 7's keys with 128-byte values, so both staging streams span
// several 64 KiB chunks and the index holds long probe clusters. The
// file's bytes, the build's cycles and its file ocalls must not move
// when the store is built in a different way.
TEST(PaldbEnclaveBuild, LargeStoreIsPinned) {
  PaldbWorkload workload;
  workload.n_keys = 20'000;
  std::vector<std::string> keys;
  std::vector<std::string> values;
  for (std::uint64_t i = 0; i < workload.n_keys; ++i) {
    keys.push_back(workload_key(workload, i));
    values.push_back(workload_value(workload, i));
  }

  ShimmedEnclave e;
  Cycles build_cycles = 0;
  e.run([&] {
    const Cycles t0 = e.env.clock.now();
    StoreWriter writer(e.env, e.shim, "large.paldb");
    for (std::size_t i = 0; i < keys.size(); ++i) {
      writer.put(keys[i], values[i]);
    }
    writer.close();
    build_cycles = e.env.clock.now() - t0;
  });

  const auto file = e.env.fs->map("large.paldb");
  const std::string bytes(file->begin(), file->end());
  EXPECT_EQ(Sha256::hex(Sha256::hash(bytes)),
            "4b3ae9626294b83566f13f4910d01a49f875cd30b41242f529ab0702a9e4dcf1");
  EXPECT_EQ(build_cycles, 690'149'576u);

  struct Pin {
    const char* ocall;
    std::uint64_t calls, bytes_in, bytes_out;
  };
  for (const Pin& pin : {
           // 2 per put + header, data, index
           Pin{"ocall_fwrite", 40'003, 7'265'834, 0},
           // keys: 5 chunks; values: 40
           Pin{"ocall_fread", 45, 495, 2'918'732},
           // 2 staging streams written, 2 read back, the store file
           Pin{"ocall_fopen", 5, 105, 40},
           Pin{"ocall_fclose", 5, 40, 0},
           Pin{"ocall_unlink", 2, 44, 0}}) {
    const sgx::CallStats& got = e.ocall(pin.ocall);
    EXPECT_EQ(got.calls, pin.calls) << pin.ocall;
    EXPECT_EQ(got.bytes_in, pin.bytes_in) << pin.ocall;
    EXPECT_EQ(got.bytes_out, pin.bytes_out) << pin.ocall;
  }

  StoreReader reader(e.env, e.host, "large.paldb");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(reader.get(keys[i]), values[i]) << i;
  }
}

// A duplicate key fails close() before anything is written: the store
// file is never created, both staging files stay in place, and no write
// ocall follows the puts.
TEST(PaldbEnclaveBuild, DuplicateKeyWritesNothing) {
  ShimmedEnclave e;
  std::uint64_t fwrites_after_puts = 0;
  bool threw = false;
  e.run([&] {
    StoreWriter writer(e.env, e.shim, "dup.paldb");
    for (int i = 0; i < 1000; ++i) {
      writer.put("key" + std::to_string(i), "value" + std::to_string(i));
    }
    writer.put("key500", "again");
    writer.put("key1000", "value1000");
    fwrites_after_puts = e.ocall("ocall_fwrite").calls;
    try {
      writer.close();
    } catch (const RuntimeFault&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(fwrites_after_puts, 2u * 1002);
  EXPECT_EQ(e.ocall("ocall_fwrite").calls, fwrites_after_puts);
  EXPECT_FALSE(e.env.fs->exists("dup.paldb"));
  EXPECT_TRUE(e.env.fs->exists("dup.paldb.keys.tmp"));
  EXPECT_TRUE(e.env.fs->exists("dup.paldb.values.tmp"));
}

}  // namespace
}  // namespace msv::apps::paldb
