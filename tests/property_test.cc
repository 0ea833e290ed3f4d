// Property-based tests (parameterized sweeps over seeds/configurations).
//
// Each suite checks an invariant against a shadow model under randomized
// operation sequences:
//   * HeapFuzz      — GC preserves exactly the reachable object graph.
//   * WireFuzz      — wire encoding round-trips arbitrary neutral values.
//   * PaldbFuzz     — the store returns exactly what was put.
//   * RmiConsistency— partitioned bank state matches an in-process shadow
//                     ledger under random transfers, drops, GCs and scans.
#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "apps/illustrative/bank.h"
#include "apps/paldb/store.h"
#include "core/montsalvat.h"
#include "rmi/wire.h"
#include "shim/host_io.h"
#include "support/rng.h"

namespace msv {
namespace {

using rt::Value;

// ---- HeapFuzz --------------------------------------------------------------

class HeapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapFuzz, CollectionPreservesReachableGraph) {
  Rng rng(GetParam());
  Env env;
  UntrustedDomain domain(env);
  rt::Isolate iso(env, domain, rt::Isolate::Config{"fuzz", 4 << 20});

  // Shadow model: rooted objects with (int value, optional child index).
  struct Node {
    rt::GcRef ref;
    std::int32_t value;
    int child;  // index into nodes, -1 for none
  };
  std::vector<Node> nodes;

  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 45 || nodes.empty()) {
      // Allocate a rooted node.
      const auto value = static_cast<std::int32_t>(rng.next_u64());
      const rt::GcRef ref = iso.new_instance(1, 2);
      iso.set_field(ref, 0, Value(value));
      int child = -1;
      if (!nodes.empty() && rng.next_bool(0.5)) {
        child = static_cast<int>(rng.next_below(nodes.size()));
        iso.set_field(ref, 1, Value(nodes[child].ref));
      }
      nodes.push_back(Node{ref, value, child});
    } else if (op < 70) {
      // Allocate garbage.
      iso.heap().alloc_string(std::string(rng.next_below(200), 'g'));
    } else if (op < 85 && nodes.size() > 1) {
      // Drop a root that nobody links to, keeping the shadow exact.
      const std::size_t victim = rng.next_below(nodes.size());
      bool linked = false;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (i != victim && nodes[i].child == static_cast<int>(victim)) {
          linked = true;
        }
      }
      if (!linked) {
        nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(victim));
        for (auto& n : nodes) {
          if (n.child > static_cast<int>(victim)) --n.child;
        }
      }
    } else {
      iso.heap().collect();
    }
  }
  iso.heap().collect();

  // Every shadow node must still hold its value and child link.
  for (const auto& n : nodes) {
    EXPECT_EQ(iso.get_field(n.ref, 0).as_i32(), n.value);
    if (n.child >= 0) {
      EXPECT_TRUE(iso.get_field(n.ref, 1)
                      .as_ref()
                      .same_object(nodes[n.child].ref));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- WireFuzz --------------------------------------------------------------

Value random_neutral_value(Rng& rng, int depth = 0) {
  switch (depth < 3 ? rng.next_below(6) : rng.next_below(5)) {
    case 0:
      return Value();
    case 1:
      return Value(rng.next_bool(0.5));
    case 2:
      return Value(static_cast<std::int32_t>(rng.next_u64()));
    case 3:
      return Value(rng.next_double() * 1e6);
    case 4: {
      std::string s(rng.next_below(40), ' ');
      for (auto& c : s) c = static_cast<char>('!' + rng.next_below(90));
      return Value(std::move(s));
    }
    default: {
      rt::ValueList list(rng.next_below(6));
      for (auto& e : list) e = random_neutral_value(rng, depth + 1);
      return Value(std::move(list));
    }
  }
}

bool values_equal(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case rt::ValueType::kNull:
      return true;
    case rt::ValueType::kBool:
      return a.as_bool() == b.as_bool();
    case rt::ValueType::kI32:
      return a.as_i32() == b.as_i32();
    case rt::ValueType::kI64:
      return a.as_i64() == b.as_i64();
    case rt::ValueType::kF64:
      return a.as_f64() == b.as_f64();
    case rt::ValueType::kString:
      return a.as_string() == b.as_string();
    case rt::ValueType::kList: {
      if (a.as_list().size() != b.as_list().size()) return false;
      for (std::size_t i = 0; i < a.as_list().size(); ++i) {
        if (!values_equal(a.as_list()[i], b.as_list()[i])) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, NeutralValuesRoundTrip) {
  Rng rng(GetParam());
  const rmi::RefEncoder no_enc = [](ByteBuffer&, const rt::GcRef&) {
    FAIL() << "neutral values only";
  };
  const rmi::RefDecoder no_dec = [](ByteReader&, rmi::WireTag) -> Value {
    throw RuntimeFault("neutral values only");
  };
  for (int i = 0; i < 300; ++i) {
    const Value original = random_neutral_value(rng);
    ByteBuffer buf;
    rmi::encode_value(buf, original, no_enc);
    ByteReader r(buf);
    const Value decoded = rmi::decode_value(r, no_dec);
    EXPECT_TRUE(values_equal(original, decoded))
        << original.to_debug_string() << " != " << decoded.to_debug_string();
    EXPECT_TRUE(r.done());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---- PaldbFuzz -------------------------------------------------------------

// gtest names a case after the raw bytes of its param, so a param with
// padding gets stale stack bytes in its name and a new name on each build.
// `tail` takes the place of that padding; its values keep the names the
// cases are listed under.
struct PaldbParam {
  std::uint64_t seed;
  int keys;
  std::uint32_t tail;
};
static_assert(std::has_unique_object_representations_v<PaldbParam>);

class PaldbFuzz : public ::testing::TestWithParam<PaldbParam> {};

TEST_P(PaldbFuzz, StoreReturnsExactlyWhatWasPut) {
  Rng rng(GetParam().seed);
  Env env;
  UntrustedDomain domain(env);
  shim::HostIo io(env, domain);

  std::map<std::string, std::string> shadow;
  {
    apps::paldb::StoreWriter writer(env, io, "fuzz.paldb");
    while (static_cast<int>(shadow.size()) < GetParam().keys) {
      std::string key(1 + rng.next_below(24), ' ');
      for (auto& c : key) c = static_cast<char>('a' + rng.next_below(26));
      if (shadow.count(key)) continue;  // write-once store
      std::string value(rng.next_below(300), ' ');
      for (auto& c : value) c = static_cast<char>('0' + rng.next_below(75));
      writer.put(key, value);
      shadow.emplace(std::move(key), std::move(value));
    }
    writer.close();
  }

  apps::paldb::StoreReader reader(env, io, "fuzz.paldb");
  EXPECT_EQ(reader.key_count(), shadow.size());
  for (const auto& [key, value] : shadow) {
    const auto got = reader.get(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, value);
  }
  // Keys not in the shadow are absent.
  for (int i = 0; i < 50; ++i) {
    std::string key = "missing-" + std::to_string(rng.next_u64());
    EXPECT_FALSE(reader.get(key).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PaldbFuzz,
    ::testing::Values(PaldbParam{101, 1, 0xFFFFFFFF},
                      PaldbParam{102, 17, 0xAA},
                      PaldbParam{103, 200, 0xFFFFFFFF},
                      PaldbParam{104, 1500, 0xFA},
                      PaldbParam{105, 400, 0}));

// ---- RmiConsistency --------------------------------------------------------

struct RmiParam {
  std::uint64_t seed;
  rmi::HashScheme scheme;
  std::uint32_t tail = 0;  // in place of padding, as in PaldbParam
};
static_assert(std::has_unique_object_representations_v<RmiParam>);

class RmiConsistency : public ::testing::TestWithParam<RmiParam> {};

TEST_P(RmiConsistency, PartitionedStateMatchesShadowLedger) {
  Rng rng(GetParam().seed);
  core::AppConfig config;
  config.hash_scheme = GetParam().scheme;
  config.gc_scan_period_seconds = 0.01;
  core::PartitionedApp app(apps::build_bank_app(), config);
  auto& u = app.untrusted_context();

  struct Shadow {
    Value person;
    std::int32_t balance;
  };
  std::vector<Shadow> people;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 30 || people.size() < 2) {
      const auto start = static_cast<std::int32_t>(rng.next_below(1000));
      people.push_back(Shadow{
          u.construct("Person",
                      {Value("p" + std::to_string(step)), Value(start)}),
          start});
    } else if (op < 75) {
      const std::size_t a = rng.next_below(people.size());
      const std::size_t b = rng.next_below(people.size());
      if (a == b) continue;
      const auto amount = static_cast<std::int32_t>(rng.next_below(50));
      u.invoke(people[a].person.as_ref(), "transfer",
               {people[b].person, Value(amount)});
      people[a].balance -= amount;
      people[b].balance += amount;
    } else if (op < 90 && people.size() > 2) {
      people.erase(people.begin() +
                   static_cast<std::ptrdiff_t>(rng.next_below(people.size())));
    } else {
      u.isolate().heap().collect();
      app.rmi().force_gc_scan();
    }
  }

  // Ledger check through the public API.
  for (const auto& p : people) {
    const Value acct = u.invoke(p.person.as_ref(), "getAccount", {});
    EXPECT_EQ(u.invoke(acct.as_ref(), "getBalance", {}).as_i32(), p.balance);
  }

  // GC consistency: after a final collect+scan, the enclave registry holds
  // exactly one Account mirror per live Person (no registry entries leak,
  // none vanish early).
  u.isolate().heap().collect();
  app.rmi().force_gc_scan();
  // Account proxies may be cached per Person; count distinct live ones.
  EXPECT_EQ(app.rmi().registry(Side::kTrusted).size(), people.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RmiConsistency,
    ::testing::Values(RmiParam{7, rmi::HashScheme::kMd5},
                      RmiParam{8, rmi::HashScheme::kMd5},
                      RmiParam{9, rmi::HashScheme::kMd5},
                      RmiParam{10, rmi::HashScheme::kIdentityHash},
                      RmiParam{11, rmi::HashScheme::kIdentityHash}));

}  // namespace
}  // namespace msv
