// Tests for src/runtime: handles, heap + semispace GC, weak references,
// isolates and value conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/isolate.h"
#include "sgx/enclave.h"
#include "sim/domain.h"
#include "sim/env.h"
#include "support/error.h"

namespace msv::rt {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest()
      : domain_(env_),
        iso_(env_, domain_, Isolate::Config{"test-iso", 1ull << 20}) {}

  Env env_;
  UntrustedDomain domain_;
  Isolate iso_;
};

TEST_F(RuntimeTest, HandleTableBasics) {
  HandleTable t;
  const auto a = t.create(8);
  const auto b = t.create(16);
  EXPECT_EQ(t.get(a), 8u);
  EXPECT_EQ(t.get(b), 16u);
  EXPECT_EQ(t.live(), 2u);
  t.release(a);
  EXPECT_EQ(t.live(), 1u);
  EXPECT_THROW(t.get(a), RuntimeFault);
  const auto c = t.create(24);  // reuses the freed slot
  EXPECT_EQ(c, a);
}

TEST_F(RuntimeTest, AllocAndAccessInstance) {
  Heap& heap = iso_.heap();
  const ObjAddr obj = heap.alloc_instance(/*class_id=*/7, /*field_count=*/3);
  EXPECT_EQ(heap.kind(obj), ObjectKind::kInstance);
  EXPECT_EQ(heap.class_id(obj), 7u);
  EXPECT_EQ(heap.count(obj), 3u);
  EXPECT_NE(heap.identity_hash(obj), 0u);

  heap.set_slot(obj, 0, SlotValue::from_i32(-5));
  heap.set_slot(obj, 1, SlotValue::from_f64(2.5));
  heap.set_slot(obj, 2, SlotValue::from_bool(true));
  EXPECT_EQ(heap.slot(obj, 0).as_i32(), -5);
  EXPECT_DOUBLE_EQ(heap.slot(obj, 1).as_f64(), 2.5);
  EXPECT_TRUE(heap.slot(obj, 2).as_bool());
  EXPECT_EQ(heap.slot(obj, 0).tag, SlotTag::kI32);
}

TEST_F(RuntimeTest, StringsRoundTrip) {
  Heap& heap = iso_.heap();
  const ObjAddr s = heap.alloc_string("montsalvat");
  EXPECT_EQ(heap.kind(s), ObjectKind::kString);
  EXPECT_EQ(heap.string_at(s), "montsalvat");
  EXPECT_EQ(heap.count(s), 10u);
}

TEST_F(RuntimeTest, SlotIndexOutOfRangeThrows) {
  Heap& heap = iso_.heap();
  const ObjAddr obj = heap.alloc_instance(1, 2);
  EXPECT_THROW(heap.slot(obj, 2), RuntimeFault);
  EXPECT_THROW(heap.set_slot(obj, 99, SlotValue::null()), RuntimeFault);
}

TEST_F(RuntimeTest, NullDereferenceThrows) {
  EXPECT_THROW(iso_.heap().kind(kNullAddr), RuntimeFault);
}

TEST_F(RuntimeTest, GcPreservesReachableGraph) {
  Heap& heap = iso_.heap();
  const GcRef root = iso_.make_ref(heap.alloc_instance(1, 2));
  {
    // child reachable only through root
    const ObjAddr child = heap.alloc_string("payload");
    heap.set_slot(root.address(), 0, SlotValue::from_ref(child));
  }
  heap.set_slot(root.address(), 1, SlotValue::from_i32(42));

  const auto gcs_before = heap.stats().gc_count;
  heap.collect();
  EXPECT_EQ(heap.stats().gc_count, gcs_before + 1);

  // The root handle was forwarded and the graph survived.
  EXPECT_EQ(heap.slot(root.address(), 1).as_i32(), 42);
  const ObjAddr child = heap.slot(root.address(), 0).as_ref();
  EXPECT_EQ(heap.string_at(child), "payload");
}

TEST_F(RuntimeTest, GcReclaimsGarbage) {
  Heap& heap = iso_.heap();
  const GcRef keep = iso_.make_ref(heap.alloc_instance(1, 1));
  for (int i = 0; i < 1000; ++i) heap.alloc_string("garbage-garbage");
  const std::uint64_t used_before = heap.used_bytes();
  heap.collect();
  EXPECT_LT(heap.used_bytes(), used_before / 10);
  EXPECT_EQ(heap.kind(keep.address()), ObjectKind::kInstance);
}

TEST_F(RuntimeTest, GcPreservesIdentityHash) {
  Heap& heap = iso_.heap();
  const GcRef obj = iso_.make_ref(heap.alloc_instance(1, 0));
  const std::uint32_t hash = heap.identity_hash(obj.address());
  heap.collect();
  EXPECT_EQ(heap.identity_hash(obj.address()), hash);
}

TEST_F(RuntimeTest, GcHandlesCycles) {
  Heap& heap = iso_.heap();
  const GcRef a = iso_.make_ref(heap.alloc_instance(1, 1));
  const GcRef b = iso_.make_ref(heap.alloc_instance(1, 1));
  heap.set_slot(a.address(), 0, SlotValue::from_ref(b.address()));
  heap.set_slot(b.address(), 0, SlotValue::from_ref(a.address()));
  heap.collect();
  EXPECT_EQ(heap.slot(a.address(), 0).as_ref(), b.address());
  EXPECT_EQ(heap.slot(b.address(), 0).as_ref(), a.address());
}

TEST_F(RuntimeTest, SharedObjectCopiedOnce) {
  Heap& heap = iso_.heap();
  const GcRef a = iso_.make_ref(heap.alloc_instance(1, 1));
  const GcRef b = iso_.make_ref(heap.alloc_instance(1, 1));
  const ObjAddr shared = heap.alloc_string("shared");
  heap.set_slot(a.address(), 0, SlotValue::from_ref(shared));
  heap.set_slot(b.address(), 0, SlotValue::from_ref(shared));
  heap.collect();
  EXPECT_EQ(heap.slot(a.address(), 0).as_ref(),
            heap.slot(b.address(), 0).as_ref());
}

TEST_F(RuntimeTest, AllocationTriggersGcWhenFull) {
  // 64 KiB heap -> 32 KiB semispace; allocate far more garbage than that.
  UntrustedDomain domain(env_);
  Isolate small(env_, domain, Isolate::Config{"small", 64 << 10});
  for (int i = 0; i < 10'000; ++i) small.heap().alloc_string("0123456789abcdef");
  EXPECT_GT(small.heap().stats().gc_count, 0u);
}

TEST_F(RuntimeTest, OutOfMemoryWhenLiveSetTooLarge) {
  UntrustedDomain domain(env_);
  Isolate small(env_, domain, Isolate::Config{"small", 64 << 10});
  std::vector<GcRef> pins;
  EXPECT_THROW(
      {
        for (int i = 0; i < 10'000; ++i) {
          pins.push_back(
              small.make_ref(small.heap().alloc_string("0123456789abcdef")));
        }
      },
      OutOfMemoryError);
}

TEST_F(RuntimeTest, WeakRefClearedWhenReferentDies) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  const ObjAddr doomed = heap.alloc_instance(1, 0);
  const auto w = weak.add(doomed, /*payload=*/777);
  EXPECT_FALSE(weak.is_cleared(w));
  heap.collect();  // no root -> dies
  EXPECT_TRUE(weak.is_cleared(w));
  EXPECT_EQ(weak.entry(w).payload, 777u);
}

TEST_F(RuntimeTest, WeakRefForwardedWhenReferentSurvives) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  const GcRef keep = iso_.make_ref(heap.alloc_instance(1, 0));
  const auto w = weak.add(keep.address(), 1);
  heap.collect();
  EXPECT_FALSE(weak.is_cleared(w));
  EXPECT_EQ(weak.entry(w).target, keep.address());
}

TEST_F(RuntimeTest, WeakRefDoesNotKeepObjectAlive) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  weak.add(heap.alloc_string("weakly-held"), 2);
  const std::uint64_t used_before = heap.used_bytes();
  heap.collect();
  EXPECT_LT(heap.used_bytes(), used_before);
  EXPECT_EQ(weak.cleared_count(), 1u);
}

TEST_F(RuntimeTest, RemoveIfCompactsWeakTable) {
  Heap& heap = iso_.heap();
  WeakRefTable& weak = iso_.weak_refs();
  const GcRef keep = iso_.make_ref(heap.alloc_instance(1, 0));
  weak.add(keep.address(), 1);
  weak.add(heap.alloc_string("dies"), 2);
  heap.collect();
  weak.remove_if([](const WeakEntry& e) { return e.target == kNullAddr; });
  EXPECT_EQ(weak.size(), 1u);
  EXPECT_EQ(weak.entry(0).payload, 1u);
}

TEST_F(RuntimeTest, GcRefSharesRootSlot) {
  const GcRef a = iso_.make_ref(iso_.heap().alloc_instance(1, 0));
  const std::size_t live = iso_.handles().live();
  const GcRef b = a;  // copy shares the root
  EXPECT_EQ(iso_.handles().live(), live);
  EXPECT_TRUE(a.same_object(b));
}

TEST_F(RuntimeTest, GcRefReleasesRootOnDestruction) {
  const std::size_t live_before = iso_.handles().live();
  {
    const GcRef r = iso_.make_ref(iso_.heap().alloc_instance(1, 0));
    EXPECT_EQ(iso_.handles().live(), live_before + 1);
  }
  EXPECT_EQ(iso_.handles().live(), live_before);
}

TEST_F(RuntimeTest, HandleTableCountsReferencesAndRejectsDeadSlots) {
  HandleTable t;
  const auto a = t.create(8);
  t.retain(a);
  t.release(a);
  EXPECT_EQ(t.live(), 1u) << "one reference is still held";
  EXPECT_EQ(t.get(a), 8u);
  t.release(a);
  EXPECT_EQ(t.live(), 0u);
  EXPECT_THROW(t.release(a), RuntimeFault);
  EXPECT_THROW(t.retain(a), RuntimeFault);
  EXPECT_THROW(t.release(99), RuntimeFault);
}

TEST_F(RuntimeTest, GcRefCopyMoveAndAssignment) {
  const HandleTable& handles = iso_.handles();
  const std::size_t base = handles.live();
  GcRef a = iso_.make_ref(iso_.heap().alloc_instance(1, 0));
  GcRef b = iso_.make_ref(iso_.heap().alloc_instance(2, 0));
  ASSERT_EQ(handles.live(), base + 2);

  GcRef copy(a);
  EXPECT_TRUE(copy.same_object(a));
  GcRef moved(std::move(copy));
  EXPECT_TRUE(copy.is_null());
  EXPECT_FALSE(copy);
  EXPECT_EQ(copy.address(), kNullAddr);
  EXPECT_EQ(copy.isolate(), nullptr);
  EXPECT_TRUE(moved.same_object(a));
  EXPECT_EQ(moved.isolate(), &iso_);
  EXPECT_EQ(handles.live(), base + 2);

  // Self-assignment (through an alias, so the compiler cannot see it)
  // keeps the slot.
  GcRef& alias = moved;
  moved = alias;
  EXPECT_TRUE(moved.same_object(a));
  moved = std::move(alias);
  EXPECT_TRUE(moved.same_object(a));
  EXPECT_EQ(handles.live(), base + 2);

  // Copy-assignment onto a live ref frees its old slot only with the last
  // reference to it.
  GcRef b_copy = b;
  b = a;
  EXPECT_TRUE(b.same_object(a));
  EXPECT_EQ(handles.live(), base + 2);
  b_copy = a;
  EXPECT_EQ(handles.live(), base + 1);

  // Move-assignment onto a live ref frees its old slot and nulls the
  // source.
  GcRef c = iso_.make_ref(iso_.heap().alloc_instance(3, 0));
  EXPECT_EQ(handles.live(), base + 2);
  c = std::move(b);
  EXPECT_TRUE(b.is_null());
  EXPECT_TRUE(c.same_object(a));
  EXPECT_EQ(handles.live(), base + 1);

  // A moved-from ref is usable again, and null assignment releases.
  b = c;
  EXPECT_TRUE(b.same_object(a));
  a = GcRef();
  b = GcRef();
  c = GcRef();
  b_copy = GcRef();
  EXPECT_EQ(handles.live(), base + 1) << "`moved` still holds the slot";
  moved = GcRef();
  EXPECT_EQ(handles.live(), base);
}

TEST_F(RuntimeTest, RootSlotFreedByLastOfNCopiesInAnyOrder) {
  std::array<int, 4> order{0, 1, 2, 3};
  const std::size_t base = iso_.handles().live();
  do {
    std::vector<std::optional<GcRef>> copies(order.size());
    {
      const GcRef first = iso_.make_ref(iso_.heap().alloc_instance(1, 0));
      for (auto& c : copies) c.emplace(first);
    }
    for (const int i : order) {
      EXPECT_EQ(iso_.handles().live(), base + 1);
      copies[i].reset();
    }
    EXPECT_EQ(iso_.handles().live(), base);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST_F(RuntimeTest, SurvivorsCrossingFirstChunkDuringCheneyScan) {
  // One root array, copied while the roots are forwarded, whose children
  // only get copied by the Cheney scan: they take the to-space past its
  // first buffer (Heap::kFirstChunkBytes), so the semispace is reserved
  // (and the buffer moves) in the middle of the scan. The array's 9 bytes
  // per child keep it inside the first buffer; each child and its name
  // take ~200.
  constexpr std::uint32_t kChildren = Heap::kFirstChunkBytes / 32;
  Heap& heap = iso_.heap();
  const GcRef root = iso_.make_ref(heap.alloc_array(kChildren));
  std::vector<std::uint32_t> hashes;
  auto name_of = [](std::uint32_t i) {
    return std::string(120, static_cast<char>('a' + i % 26));
  };
  for (std::uint32_t i = 0; i < kChildren; ++i) {
    const GcRef child = iso_.make_ref(heap.alloc_instance(9, 2));
    const ObjAddr name = heap.alloc_string(name_of(i));
    heap.set_slot(child.address(), 0, SlotValue::from_ref(name));
    heap.set_slot(child.address(), 1,
                  SlotValue::from_i32(static_cast<std::int32_t>(i)));
    heap.set_slot(root.address(), i, SlotValue::from_ref(child.address()));
    hashes.push_back(heap.identity_hash(child.address()));
  }
  const std::uint32_t root_hash = heap.identity_hash(root.address());
  ASSERT_LT(heap.object_bytes(root.address()) + 8, Heap::kFirstChunkBytes);
  ASSERT_EQ(heap.stats().gc_count, 0u);

  heap.collect();
  EXPECT_GT(heap.used_bytes(), Heap::kFirstChunkBytes);
  EXPECT_EQ(heap.identity_hash(root.address()), root_hash);
  for (std::uint32_t i = 0; i < kChildren; ++i) {
    const ObjAddr child = heap.slot(root.address(), i).as_ref();
    EXPECT_EQ(heap.class_id(child), 9u);
    EXPECT_EQ(heap.identity_hash(child), hashes[i]);
    EXPECT_EQ(heap.slot(child, 1).as_i32(), static_cast<std::int32_t>(i));
    EXPECT_EQ(heap.string_at(heap.slot(child, 0).as_ref()), name_of(i));
  }
}

TEST_F(RuntimeTest, ValueFieldRoundTrip) {
  const GcRef obj = iso_.new_instance(1, 5);
  iso_.set_field(obj, 0, Value(std::int32_t{41}));
  iso_.set_field(obj, 1, Value("alice"));
  iso_.set_field(obj, 2, Value(ValueList{Value(1), Value("x")}));
  iso_.set_field(obj, 3, Value(3.25));
  iso_.set_field(obj, 4, Value(obj));

  EXPECT_EQ(iso_.get_field(obj, 0).as_i32(), 41);
  EXPECT_EQ(iso_.get_field(obj, 1).as_string(), "alice");
  const Value list = iso_.get_field(obj, 2);
  ASSERT_EQ(list.as_list().size(), 2u);
  EXPECT_EQ(list.as_list()[0].as_i32(), 1);
  EXPECT_EQ(list.as_list()[1].as_string(), "x");
  EXPECT_DOUBLE_EQ(iso_.get_field(obj, 3).as_f64(), 3.25);
  EXPECT_TRUE(iso_.get_field(obj, 4).as_ref().same_object(obj));
}

TEST_F(RuntimeTest, NeutralValuesAreCopies) {
  // Stored strings are snapshots: mutating the Value after the store must
  // not affect the heap (neutral classes "may evolve independently", §5.1).
  const GcRef obj = iso_.new_instance(1, 1);
  std::string s = "original";
  iso_.set_field(obj, 0, Value(s));
  s[0] = 'X';
  EXPECT_EQ(iso_.get_field(obj, 0).as_string(), "original");
}

TEST_F(RuntimeTest, CrossIsolateReferenceRejected) {
  UntrustedDomain domain2(env_);
  Isolate other(env_, domain2, Isolate::Config{"other", 1 << 20});
  const GcRef foreign = other.new_instance(1, 0);
  const GcRef obj = iso_.new_instance(1, 1);
  EXPECT_THROW(iso_.set_field(obj, 0, Value(foreign)), SecurityFault);
}

TEST_F(RuntimeTest, FieldSurvivesGcDuringStringStore) {
  UntrustedDomain domain(env_);
  Isolate small(env_, domain, Isolate::Config{"small", 256 << 10});
  const GcRef obj = small.new_instance(1, 1);
  // Repeatedly storing strings forces collections mid set_field.
  for (int i = 0; i < 5'000; ++i) {
    small.set_field(obj, 0, Value(std::string(64, 'a' + (i % 26))));
  }
  EXPECT_GT(small.heap().stats().gc_count, 0u);
  EXPECT_EQ(small.get_field(obj, 0).as_string()[0], 'a' + (4999 % 26));
}

TEST_F(RuntimeTest, EnclaveGcAboutAnOrderOfMagnitudeSlower) {
  // Fig. 5a: the same GC work inside an enclave costs ~10x more.
  auto run_gc = [](Env& env, MemoryDomain& domain) {
    Isolate iso(env, domain, Isolate::Config{"gc-iso", 32 << 20});
    std::vector<GcRef> live;
    for (int i = 0; i < 20'000; ++i) {
      live.push_back(iso.make_ref(iso.heap().alloc_string(
          "some live payload kept across the collection....")));
    }
    const Cycles before = env.clock.now();
    iso.heap().collect();
    return env.clock.now() - before;
  };

  Env env_out;
  UntrustedDomain out(env_out);
  const Cycles outside = run_gc(env_out, out);

  Env env_in;
  sgx::Enclave enclave(env_in, "e", Sha256::hash("img"), 1 << 20);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain in(env_in, enclave);
  const Cycles inside = run_gc(env_in, in);

  const double ratio = static_cast<double>(inside) / static_cast<double>(outside);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 20.0);
}

TEST_F(RuntimeTest, ImageHeapStartupTouchesPages) {
  Env env;
  sgx::Enclave enclave(env, "e", Sha256::hash("img"), 1 << 20);
  enclave.init(Sha256::hash("img"));
  sgx::EnclaveDomain domain(env, enclave);
  const auto faults_before = enclave.epc().stats().faults;
  Isolate iso(env, domain,
              Isolate::Config{"with-image", 1 << 20, /*image_heap=*/64 << 10});
  EXPECT_EQ(enclave.epc().stats().faults, faults_before + 16);
}

TEST_F(RuntimeTest, ValueTypeChecksThrow) {
  Value v(std::int32_t{1});
  EXPECT_THROW(v.as_string(), RuntimeFault);
  EXPECT_THROW(v.as_bool(), RuntimeFault);
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(v.as_i64(), 1) << "i32 widens to i64";
  EXPECT_DOUBLE_EQ(v.as_f64(), 1.0) << "i32 widens to f64";
}

TEST_F(RuntimeTest, ValuePayloadBytes) {
  EXPECT_EQ(Value(std::int32_t{1}).payload_bytes(), 4u);
  EXPECT_EQ(Value("abcd").payload_bytes(), 8u);
  const Value list(ValueList{Value(std::int32_t{1}), Value("ab")});
  EXPECT_EQ(list.payload_bytes(), 4u + 4u + 6u);
}

// ---- Deep neutral-object graphs ----------------------------------------
//
// Checkpoints and RMI arguments legally carry 100k-deep nested lists, so
// every graph walk (including ~Value) uses an explicit work-list. These
// tests fail by crashing the process (native stack overflow) on the old
// recursive walks.

// [[[...leaf...]]] nested `depth` times, built iteratively.
Value deep_chain(std::size_t depth, Value leaf) {
  Value cur = std::move(leaf);
  for (std::size_t i = 0; i < depth; ++i) {
    ValueList wrap;
    wrap.push_back(std::move(cur));
    cur = Value(std::move(wrap));
  }
  return cur;
}

// Walks down single-element lists, checks the leaf, returns the depth.
std::size_t chain_depth(const Value& v, std::int32_t expect_leaf) {
  std::size_t depth = 0;
  const Value* cur = &v;
  while (cur->type() == ValueType::kList) {
    EXPECT_EQ(cur->as_list().size(), 1u);
    cur = &cur->as_list()[0];
    ++depth;
  }
  EXPECT_EQ(cur->as_i32(), expect_leaf);
  return depth;
}

TEST_F(RuntimeTest, DeepValueChainDestructsWithoutNativeRecursion) {
  constexpr std::size_t kDepth = 300'000;
  {
    const Value v = deep_chain(kDepth, Value(std::int32_t{7}));
    EXPECT_EQ(chain_depth(v, 7), kDepth);
    EXPECT_EQ(v.payload_bytes(), 4u * kDepth + 4u);
  }  // ~Value drains 300k uniquely-owned frames here
}

TEST_F(RuntimeTest, SiblingSharedDeepChainDrainsOnLastOwner) {
  // Two siblings share one deep chain: neither copy is uniquely owned
  // when the first dies, so the drain must trigger for the *last* sibling
  // destroyed, not just the stack head.
  constexpr std::size_t kDepth = 200'000;
  {
    Value chain = deep_chain(kDepth, Value(std::int32_t{3}));
    ValueList sibs;
    sibs.push_back(chain);             // shares the chain head
    sibs.push_back(std::move(chain));  // same head again
    const Value parent(std::move(sibs));
  }
}

TEST_F(RuntimeTest, DeepValueDebugStringIsIterative) {
  constexpr std::size_t kDepth = 100'000;
  const Value v = deep_chain(kDepth, Value(std::int32_t{3}));
  const std::string s = v.to_debug_string();
  ASSERT_EQ(s.size(), 2 * kDepth + 1);
  EXPECT_EQ(s[0], '[');
  EXPECT_EQ(s[kDepth], '3');
  EXPECT_EQ(s[s.size() - 1], ']');
}

TEST_F(RuntimeTest, DeepListRoundTripsThroughHeapSlots) {
  // to_slot materializes one heap array per nesting level; from_slot walks
  // them back out. 100k levels needs a larger heap than the fixture's 1MB
  // but must never need a larger native stack.
  constexpr std::size_t kDepth = 100'000;
  Isolate big(env_, domain_, Isolate::Config{"deep-iso", 64ull << 20});
  const GcRef holder = big.new_instance(1, 1);
  big.set_field(holder, 0, deep_chain(kDepth, Value(std::int32_t{41})));
  const Value back = big.get_field(holder, 0);
  EXPECT_EQ(chain_depth(back, 41), kDepth);
}

}  // namespace
}  // namespace msv::rt
