// Tests for src/sgx: EPC paging, enclave lifecycle, transition bridge,
// EDL/Edger8r generation and attestation.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <vector>

#include "sgx/attestation.h"
#include "sgx/bridge.h"
#include "sgx/edl.h"
#include "sgx/enclave.h"
#include "sgx/epc.h"
#include "sim/env.h"
#include "support/error.h"
#include "support/rng.h"
#include "telemetry/flight.h"

namespace msv::sgx {
namespace {

Sha256::Digest test_measurement() { return Sha256::hash("trusted-image"); }

std::unique_ptr<Enclave> make_enclave(Env& env) {
  auto e = std::make_unique<Enclave>(env, "test", test_measurement(),
                                     /*image_bytes=*/1 << 20);
  e->init(test_measurement());
  return e;
}

TEST(Epc, HitsAreFree) {
  Env env;
  EpcModel epc(env);
  epc.access(1, 0);
  const Cycles after_fault = env.clock.now();
  epc.access(1, 0);
  EXPECT_EQ(env.clock.now(), after_fault) << "resident page costs nothing";
  EXPECT_EQ(epc.stats().faults, 1u);
  EXPECT_EQ(epc.stats().accesses, 2u);
}

TEST(Epc, MissChargesPageIn) {
  Env env;
  EpcModel epc(env);
  const Cycles before = env.clock.now();
  epc.access(1, 7);
  EXPECT_EQ(env.clock.now() - before, env.cost.epc_page_in_cycles);
}

TEST(Epc, EvictsLruWhenFull) {
  Env env;
  env.cost.epc_usable_bytes = 4 * env.cost.page_bytes;  // 4-page EPC
  EpcModel epc(env);
  ASSERT_EQ(epc.capacity_pages(), 4u);
  for (std::uint64_t p = 0; p < 4; ++p) epc.access(1, p);
  EXPECT_EQ(epc.resident_pages(), 4u);
  // Touch page 0 to make it MRU, then fault a 5th page: page 1 must go.
  epc.access(1, 0);
  epc.access(1, 4);
  EXPECT_EQ(epc.stats().evictions, 1u);
  const auto faults_before = epc.stats().faults;
  epc.access(1, 0);  // still resident
  EXPECT_EQ(epc.stats().faults, faults_before);
  epc.access(1, 1);  // was evicted -> faults again
  EXPECT_EQ(epc.stats().faults, faults_before + 1);
}

TEST(Epc, ReleaseRegionDropsPages) {
  Env env;
  EpcModel epc(env);
  epc.access(1, 0);
  epc.access(2, 0);
  epc.release_region(1);
  EXPECT_EQ(epc.resident_pages(), 1u);
}

TEST(Epc, RegionsDoNotCollide) {
  Env env;
  EpcModel epc(env);
  epc.access(1, 5);
  const auto faults = epc.stats().faults;
  epc.access(2, 5);
  EXPECT_EQ(epc.stats().faults, faults + 1) << "same page id, other region";
}

TEST(Epc, ShrinkMidRunChargesLazyEvictionExactlyOnce) {
  // Regression (stress_epc shrink-mid-run find): after set_limit drops
  // the capacity below the resident set, the pre-fix model drained the
  // excess only on the next *miss* — a hit on any resident page stayed
  // free and the set stayed physically over capacity indefinitely. The
  // drain must happen on the next access of any kind, each excess page
  // charging its page-out exactly once, and a drained page must fault
  // when touched again.
  Env env;
  env.cost.epc_usable_bytes = 8 * env.cost.page_bytes;  // 8-page EPC
  EpcModel epc(env);
  ASSERT_EQ(epc.capacity_pages(), 8u);
  for (std::uint64_t p = 0; p < 8; ++p) epc.access(1, p);
  ASSERT_EQ(epc.resident_pages(), 8u);
  ASSERT_EQ(epc.stats().evictions, 0u);

  epc.set_limit(4);  // shrink mid-run: 4 excess pages, evicted lazily
  EXPECT_EQ(epc.resident_pages(), 8u) << "eviction is lazy, not eager";

  // A HIT on the MRU page (page 7) must first drain the 4 LRU pages
  // (0..3), charging page-out per page — exactly once each.
  const Cycles before = env.clock.now();
  epc.access(1, 7);
  EXPECT_EQ(env.clock.now() - before, 4 * env.cost.epc_page_out_cycles)
      << "4 excess pages drain on the first post-shrink access";
  EXPECT_EQ(epc.stats().evictions, 4u);
  EXPECT_EQ(epc.resident_pages(), 4u);

  // Subsequent hits within the shrunken set are free again.
  const Cycles after_drain = env.clock.now();
  epc.access(1, 7);
  epc.access(1, 6);
  EXPECT_EQ(env.clock.now(), after_drain);
  EXPECT_EQ(epc.stats().evictions, 4u) << "no double-charged evictions";

  // A drained page is gone: touching it faults and evicts the new LRU.
  const auto faults_before = epc.stats().faults;
  epc.access(1, 0);
  EXPECT_EQ(epc.stats().faults, faults_before + 1);
  EXPECT_EQ(epc.stats().evictions, 5u);
  EXPECT_EQ(epc.resident_pages(), 4u);

  // Regrow: the limit lifts, faults refill without evicting.
  epc.set_limit(8);
  const auto evictions_before = epc.stats().evictions;
  for (std::uint64_t p = 8; p < 12; ++p) epc.access(1, p);
  EXPECT_EQ(epc.resident_pages(), 8u);
  EXPECT_EQ(epc.stats().evictions, evictions_before)
      << "regrown capacity absorbs new pages without eviction";

  // Conservation: every page that ever faulted in either left through a
  // counted exit (eviction/release/invalidation) or is still resident.
  EXPECT_TRUE(epc.stats_reconcile())
      << "faults=" << epc.stats().faults
      << " evictions=" << epc.stats().evictions
      << " resident=" << epc.resident_pages();
}

TEST(Epc, StatsReconcileAcrossReleaseAndInvalidate) {
  Env env;
  env.cost.epc_usable_bytes = 4 * env.cost.page_bytes;
  EpcModel epc(env);
  for (std::uint64_t p = 0; p < 6; ++p) epc.access(1, p);  // 2 evictions
  epc.access(2, 0);
  epc.release_region(2);
  EXPECT_EQ(epc.stats().released, 1u);
  EXPECT_TRUE(epc.stats_reconcile());
  epc.invalidate_all();
  EXPECT_EQ(epc.stats().invalidated, 3u);
  EXPECT_EQ(epc.resident_pages(), 0u);
  EXPECT_TRUE(epc.stats_reconcile());
  // Reserved-pressure shrink reconciles the same way as set_limit.
  for (std::uint64_t p = 0; p < 4; ++p) epc.access(3, p);
  epc.set_reserved_pages(2);
  epc.access(3, 3);  // hit; drains 2 pages first
  EXPECT_EQ(epc.resident_pages(), 2u);
  EXPECT_TRUE(epc.stats_reconcile());
}

// Reference model for the oracle test below: the EPC's LRU written the
// plainest way (a std::list in recency order plus a hash index), with the
// same drain-before-lookup rule and per-page charges as EpcModel.
class ReferenceEpc {
 public:
  explicit ReferenceEpc(const CostModel& cost)
      : cost_(cost),
        capacity_(cost.epc_usable_bytes / cost.page_bytes),
        limit_(capacity_) {}

  void access(std::uint64_t region, std::uint64_t page) {
    ++stats_.accesses;
    drain(0);
    const std::uint64_t key = (region << 40) | page;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    ++stats_.faults;
    clock_ += cost_.epc_page_in_cycles;
    drain(1);
    lru_.push_front(key);
    index_[key] = lru_.begin();
    peak_ = std::max<std::uint64_t>(peak_, lru_.size());
  }
  void release_region(std::uint64_t region) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if ((*it >> 40) == region) {
        index_.erase(*it);
        it = lru_.erase(it);
        ++stats_.released;
      } else {
        ++it;
      }
    }
  }
  void invalidate_all() {
    stats_.invalidated += lru_.size();
    index_.clear();
    lru_.clear();
    peak_ = 0;
  }
  void set_reserved_pages(std::uint64_t n) { reserved_ = n; }
  void set_limit(std::uint64_t pages) {
    limit_ = pages < capacity_ ? pages : capacity_;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t resident() const { return lru_.size(); }
  bool holds(std::uint64_t region, std::uint64_t page) const {
    return index_.count((region << 40) | page) != 0;
  }
  // The largest resident set since construction or invalidate_all.
  std::uint64_t peak() const { return peak_; }
  Cycles clock() const { return clock_; }
  const EpcStats& stats() const { return stats_; }

 private:
  void drain(std::uint64_t headroom) {
    const std::uint64_t share = capacity_ - reserved_;
    const std::uint64_t cap = share < limit_ ? share : limit_;
    while (lru_.size() + headroom > cap) {
      ++stats_.evictions;
      clock_ += cost_.epc_page_out_cycles;
      index_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  CostModel cost_;
  std::uint64_t capacity_;
  std::uint64_t reserved_ = 0;
  std::uint64_t limit_;
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
  std::uint64_t peak_ = 0;
  EpcStats stats_;
  Cycles clock_ = 0;
};

TEST(Epc, MatchesReferenceLruOnRandomSequences) {
  // Seeded random operation mixes over EPCs of 1-64 pages (every other
  // trial: 1,100-2,200 pages, so whole runs fit) and 1-6 regions. The key
  // pool includes the extreme key (2^24-1, 2^40-1), one region touched at
  // pages 0 and 2^39, and accesses that cross a 512-page boundary. Runs
  // of 1-1,100 pages go through EnclaveDomain::touch_pages: they start
  // cold, on resident pages or across a 512-page chunk, some under
  // set_limit / set_reserved_pages pressure and some inside
  // measure_detached, whose cycles the reference charges to its clock.
  // Fresh runs cover only absent pages and fit, so they are linked in one
  // pass; each follows a release of its region or a set_limit drain, so
  // most start while the free list holds frames. After every operation
  // the clock, all five counters, the resident count, the frame count
  // (the reference's peak resident set: free frames are taken first) and
  // the conservation check must equal the reference's; an LRU-order slip
  // shows up as a fault or eviction count that drifts.
  constexpr std::uint64_t kExtremeRegion = (1ull << 24) - 1;
  constexpr std::uint64_t kExtremePage = (1ull << 40) - 1;
  constexpr int kTrials = 60;
  constexpr int kOpsPerTrial = 2000;
  Rng rng(2024);
  std::uint64_t ops = 0, runs = 0, run_pages = 0;
  std::uint64_t fresh_runs = 0, fresh_runs_on_free_frames = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Env env;
    const std::uint64_t capacity = trial % 2 == 0
                                       ? 1 + rng.next_below(64)
                                       : 1100 + rng.next_below(1101);
    env.cost.epc_usable_bytes = capacity * env.cost.page_bytes;
    Enclave enclave(env, "epc", test_measurement(), /*image_bytes=*/4096);
    EnclaveDomain domain(env, enclave);
    EpcModel& epc = enclave.epc();
    ReferenceEpc ref(env.cost);
    ASSERT_EQ(epc.capacity_pages(), ref.capacity());
    const Cycles start = env.clock.now();
    Cycles detached = 0;

    const std::uint64_t n_regions = 1 + rng.next_below(6);
    std::vector<std::uint64_t> regions;
    for (std::uint64_t r = 0; r < n_regions; ++r) {
      regions.push_back(r == 0 && trial % 3 == 0 ? kExtremeRegion : r + 1);
    }
    const std::uint64_t span = 2 * capacity + 8;
    const auto pick_page = [&](std::uint64_t region) -> std::uint64_t {
      const std::uint64_t roll = rng.next_below(100);
      if (region == kExtremeRegion && roll < 10) return kExtremePage;
      if (region == regions.back() && roll < 8) {
        return roll < 4 ? 0 : 1ull << 39;
      }
      if (roll < 20) return 500 + rng.next_below(span);  // crosses 512
      return rng.next_below(span);
    };
    // The last run, so a later one can revisit its (resident) pages.
    std::uint64_t last_region = regions[0], last_first = 0, last_n = 0;
    const auto run = [&](std::uint64_t region) {
      const std::uint64_t roll = rng.next_below(100);
      const std::uint64_t n = roll < 50 ? 1 + rng.next_below(16)
                                        : 1 + rng.next_below(1100);
      std::uint64_t first;
      if (roll % 4 == 0 && last_n > 0) {
        region = last_region;  // overlaps the previous run
        first = last_first + rng.next_below(last_n);
      } else if (roll % 4 == 1) {
        const std::uint64_t boundary = 512 * (1 + rng.next_below(3));
        first = boundary - std::min(boundary, 1 + rng.next_below(n));
      } else {
        first = rng.next_below(span);
      }
      if (region == kExtremeRegion && roll % 5 == 0) {
        first = kExtremePage - (n - 1);  // ends on the extreme key
      }
      first = std::min(first, kExtremePage - (n - 1));
      if (rng.next_below(4) == 0) {
        detached += env.clock.measure_detached(
            [&] { domain.touch_pages(region, first, n); });
      } else {
        domain.touch_pages(region, first, n);
      }
      for (std::uint64_t p = first; p < first + n; ++p) ref.access(region, p);
      last_region = region;
      last_first = first;
      last_n = n;
      ++runs;
      run_pages += n;
    };
    const auto fresh_run = [&](std::uint64_t region) {
      if (rng.next_below(2) == 0) {
        epc.release_region(region);
        ref.release_region(region);
      } else if (epc.resident_pages() > 1) {
        // Shrink below the resident set, drain it with one access, and
        // lift the limit again.
        const std::uint64_t limit = epc.limit_pages();
        const std::uint64_t shrunk =
            1 + rng.next_below(epc.resident_pages() - 1);
        epc.set_limit(shrunk);
        ref.set_limit(shrunk);
        const std::uint64_t page = pick_page(region);
        epc.access(region, page);
        ref.access(region, page);
        epc.set_limit(limit);
        ref.set_limit(limit);
      }
      const std::uint64_t cap = epc.effective_capacity_pages();
      if (epc.resident_pages() >= cap) return;
      const std::uint64_t first = pick_page(region);
      const std::uint64_t max_n =
          1 + rng.next_below(
                  std::min<std::uint64_t>(cap - epc.resident_pages(), 1100));
      std::uint64_t n = 0;
      while (n < max_n && first + n <= kExtremePage &&
             !ref.holds(region, first + n)) {
        ++n;
      }
      if (n == 0) return;
      ++fresh_runs;
      if (epc.frame_count() > epc.resident_pages()) {
        ++fresh_runs_on_free_frames;
      }
      domain.touch_pages(region, first, n);
      for (std::uint64_t p = first; p < first + n; ++p) ref.access(region, p);
      last_region = region;
      last_first = first;
      last_n = n;
    };

    for (int i = 0; i < kOpsPerTrial; ++i, ++ops) {
      const std::uint64_t roll = rng.next_below(1000);
      const std::uint64_t region = regions[rng.next_below(n_regions)];
      if (roll < 880) {
        const std::uint64_t page = pick_page(region);
        epc.access(region, page);
        ref.access(region, page);
      } else if (roll < 900) {
        fresh_run(region);
      } else if (roll < 940) {
        run(region);
      } else if (roll < 960) {
        const std::uint64_t limit = 1 + rng.next_below(capacity + 2);
        epc.set_limit(limit);
        ref.set_limit(limit);
      } else if (roll < 975) {
        const std::uint64_t reserved = rng.next_below(capacity);
        epc.set_reserved_pages(reserved);
        ref.set_reserved_pages(reserved);
      } else if (roll < 995) {
        epc.release_region(region);
        ref.release_region(region);
      } else {
        epc.invalidate_all();
        ref.invalidate_all();
      }
      ASSERT_EQ(env.clock.now() - start + detached, ref.clock())
          << "trial " << trial << " op " << i;
      ASSERT_EQ(epc.stats().accesses, ref.stats().accesses);
      ASSERT_EQ(epc.stats().faults, ref.stats().faults)
          << "trial " << trial << " op " << i;
      ASSERT_EQ(epc.stats().evictions, ref.stats().evictions);
      ASSERT_EQ(epc.stats().released, ref.stats().released);
      ASSERT_EQ(epc.stats().invalidated, ref.stats().invalidated);
      ASSERT_EQ(epc.resident_pages(), ref.resident());
      ASSERT_EQ(epc.frame_count(), ref.peak())
          << "trial " << trial << " op " << i;
      ASSERT_TRUE(epc.stats_reconcile());
    }
  }
  EXPECT_GE(ops, 100'000u);
  EXPECT_GE(runs, 4'000u);
  EXPECT_GE(run_pages, 1'000'000u);
  EXPECT_GE(fresh_runs, 1'500u);
  EXPECT_GE(fresh_runs_on_free_frames, 1'500u);
}

TEST(Epc, TracedRunsKeepOneSpanPerPageInAndPageOut) {
  // With the EPC category traced, a run through touch_pages must leave
  // the span sequence that page-by-page accesses leave: one page-in span
  // per fault and one page-out span per eviction, each with its own
  // charge, in the same order and at the same instants.
  const auto traced_env = [](Env& env) {
    env.cost.epc_usable_bytes = 600 * env.cost.page_bytes;
    env.telemetry.configure({telemetry::TraceMode::kFull,
                             telemetry::kAllCategories, 1u << 16});
  };
  Env by_run, by_page;
  traced_env(by_run);
  traced_env(by_page);
  Enclave run_enclave(by_run, "epc", test_measurement(), 4096);
  Enclave page_enclave(by_page, "epc", test_measurement(), 4096);
  EnclaveDomain run_domain(by_run, run_enclave);
  struct Run {
    std::uint64_t region, first, n, limit;
  };
  // Cold runs that fit, a run crossing a chunk over resident pages, runs
  // that evict, and runs under a shrunken limit.
  const Run script[] = {{1, 0, 257, 600},   {2, 400, 300, 600},
                        {1, 100, 500, 600}, {3, 0, 1100, 600},
                        {2, 500, 40, 250},  {1, 0, 300, 250},
                        {4, 511, 2, 600}};
  for (const Run& r : script) {
    run_enclave.epc().set_limit(r.limit);
    page_enclave.epc().set_limit(r.limit);
    run_domain.touch_pages(r.region, r.first, r.n);
    for (std::uint64_t p = r.first; p < r.first + r.n; ++p) {
      page_enclave.epc().access(r.region, p);
    }
  }
  EXPECT_EQ(by_run.clock.now(), by_page.clock.now());
  EXPECT_GT(run_enclave.epc().stats().evictions, 0u);
  const auto& got = by_run.telemetry.tracer().spans();
  const auto& want = by_page.telemetry.tracer().spans();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), run_enclave.epc().stats().faults +
                            run_enclave.epc().stats().evictions);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(by_run.telemetry.tracer().name(got[i].name),
              by_page.telemetry.tracer().name(want[i].name))
        << "span " << i;
    EXPECT_EQ(got[i].category, telemetry::Category::kEpc);
    EXPECT_EQ(got[i].start, want[i].start) << "span " << i;
    EXPECT_EQ(got[i].end, want[i].end) << "span " << i;
  }
}

TEST(Epc, OutOfRangeIndicesAreRejectedNotAliased) {
  // A region id >= 2^24 (or a page >= 2^40) would shift bits off the top
  // of the packed (region << 40) | page key and silently alias another
  // region's pages; the model must fault instead.
  Env env;
  sgx::EpcModel epc(env);
  EXPECT_THROW(epc.access(1ull << 24, 0), RuntimeFault);
  EXPECT_THROW(epc.access(0, 1ull << 40), RuntimeFault);
  EXPECT_NO_THROW(epc.access((1ull << 24) - 1, (1ull << 40) - 1));
}

TEST(Enclave, CreationChargesMeasurementTime) {
  Env env;
  const Cycles before = env.clock.now();
  Enclave e(env, "e", test_measurement(), /*image_bytes=*/1 << 20);
  const Cycles elapsed = env.clock.now() - before;
  EXPECT_GE(elapsed, env.cost.enclave_create_base_cycles);
}

TEST(Enclave, InitVerifiesMeasurement) {
  Env env;
  Enclave e(env, "e", test_measurement(), 4096);
  EXPECT_THROW(e.init(Sha256::hash("tampered-image")), SecurityFault);
  EXPECT_EQ(e.state(), EnclaveState::kCreated);
  e.init(test_measurement());
  EXPECT_EQ(e.state(), EnclaveState::kInitialized);
}

TEST(Enclave, DomainAppliesMeeFactor) {
  Env env;
  auto enclave = make_enclave(env);
  EnclaveDomain trusted(env, *enclave);
  UntrustedDomain untrusted(env);

  const Cycles t0 = env.clock.now();
  untrusted.charge_traffic(1 << 20);
  const Cycles plain = env.clock.now() - t0;

  const Cycles t1 = env.clock.now();
  trusted.charge_traffic(1 << 20);
  const Cycles shielded = env.clock.now() - t1;

  EXPECT_NEAR(static_cast<double>(shielded) / static_cast<double>(plain),
              env.cost.mee_traffic_factor, 0.01);
}

TEST(Bridge, EcallRunsHandlerOnTrustedSide) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  Side observed = Side::kUntrusted;
  const CallId probe = bridge.register_ecall("probe", [&](ByteReader&) {
    observed = bridge.side();
    return ByteBuffer();
  });
  EXPECT_EQ(bridge.side(), Side::kUntrusted);
  ByteBuffer resp;
  bridge.ecall(probe, ByteBuffer(), resp);
  EXPECT_EQ(observed, Side::kTrusted);
  EXPECT_EQ(bridge.side(), Side::kUntrusted);
}

TEST(Bridge, OcallOnlyFromTrustedSide) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId host_fn =
      bridge.register_ocall("host_fn", [](ByteReader&) { return ByteBuffer(); });
  ByteBuffer resp;
  EXPECT_THROW(bridge.ocall(host_fn, ByteBuffer(), resp), SecurityFault);
}

TEST(Bridge, NestedOcallFromEcall) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  bool ocall_ran = false;
  const CallId host_fn = bridge.register_ocall("host_fn", [&](ByteReader&) {
    ocall_ran = true;
    EXPECT_EQ(bridge.side(), Side::kUntrusted);
    return ByteBuffer();
  });
  const CallId enter =
      bridge.register_ecall("enter", [&, host_fn](ByteReader&) {
        ByteBuffer nested;
        bridge.ocall(host_fn, ByteBuffer(), nested);
        return ByteBuffer();
      });
  ByteBuffer resp;
  bridge.ecall(enter, ByteBuffer(), resp);
  EXPECT_TRUE(ocall_ran);
  EXPECT_EQ(bridge.stats().ecalls, 1u);
  EXPECT_EQ(bridge.stats().ocalls, 1u);
}

TEST(Bridge, EcallIntoUninitializedEnclaveFaults) {
  Env env;
  Enclave e(env, "e", test_measurement(), 4096);  // not init()ed
  TransitionBridge bridge(env, e);
  const CallId f =
      bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); });
  ByteBuffer resp;
  EXPECT_THROW(bridge.ecall(f, ByteBuffer(), resp), SecurityFault);
}

TEST(Bridge, UnknownCallThrows) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  EXPECT_THROW(bridge.ecall_id("nope"), RuntimeFault);
  EXPECT_EQ(bridge.find_call("nope"), kNoCallId);
}

TEST(Bridge, DuplicateRegistrationThrows) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); });
  EXPECT_THROW(
      bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); }),
      RuntimeFault);
}

TEST(Bridge, TransitionCostsCharged) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId f =
      bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); });

  const Cycles before = env.clock.now();
  ByteBuffer resp;
  bridge.ecall(f, ByteBuffer(), resp);
  const Cycles cost = env.clock.now() - before;
  EXPECT_GE(cost, env.cost.ecall_cycles);
  EXPECT_LT(cost, env.cost.ecall_cycles + 10'000);
}

TEST(Bridge, PayloadBytesChargedAndCounted) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId f = bridge.register_ecall("f", [](ByteReader& r) {
    ByteBuffer out;
    out.put_u32(r.get_u32() + 1);
    return out;
  });

  ByteBuffer small;
  small.put_u32(1);
  ByteBuffer resp;
  bridge.ecall(f, small, resp);

  const Cycles t0 = env.clock.now();
  bridge.ecall(f, small, resp);
  const Cycles small_cost = env.clock.now() - t0;

  ByteBuffer big;
  big.put_u32(1);
  for (int i = 0; i < 100'000; ++i) big.put_u8(0);
  const Cycles t1 = env.clock.now();
  bridge.ecall(f, big, resp);
  const Cycles big_cost = env.clock.now() - t1;

  EXPECT_GT(big_cost, small_cost + 30'000) << "per-byte marshalling cost";
  EXPECT_EQ(bridge.stats().ecalls, 3u);
  EXPECT_EQ(bridge.stats().per_call.at("f").calls, 3u);
  EXPECT_GT(bridge.stats().bytes_in, 100'000u);
}

TEST(Bridge, SwitchlessSkipsTransitionCost) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId f =
      bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); });

  const Cycles t0 = env.clock.now();
  ByteBuffer resp;
  bridge.ecall(f, ByteBuffer(), resp);
  const Cycles normal = env.clock.now() - t0;

  bridge.set_switchless(f, true);
  const Cycles t1 = env.clock.now();
  bridge.ecall(f, ByteBuffer(), resp);
  const Cycles switchless = env.clock.now() - t1;

  EXPECT_LT(switchless, normal / 5);
  EXPECT_EQ(bridge.stats().switchless_calls, 1u);
}

TEST(Bridge, SwitchlessByUnknownNameThrowsAndAddsNoCall) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId f =
      bridge.register_ecall("f", [](ByteReader&) { return ByteBuffer(); });
  EXPECT_THROW(bridge.set_switchless("nope", true), RuntimeFault);
  EXPECT_EQ(bridge.find_call("nope"), kNoCallId);
  EXPECT_EQ(bridge.call_names(), std::vector<std::string>{"f"});
  EXPECT_EQ(bridge.stats().per_call.count("nope"), 0u);

  bridge.set_switchless("f", true);
  EXPECT_TRUE(bridge.is_switchless(f));
}

// Bridge span names are interned when spans are first recorded: a tracer
// switched to full mode after registration still names every transition,
// with the category its name's prefix gives it.
TEST(Bridge, TracerConfiguredAfterRegistrationNamesSpans) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId f = bridge.register_ecall(
      "ecall_gc_scan_trusted", [](ByteReader&) { return ByteBuffer(); });
  const CallId g =
      bridge.register_ecall("ecall_main", [](ByteReader&) { return ByteBuffer(); });
  ByteBuffer resp;
  bridge.ecall(f, ByteBuffer(), resp);  // untraced
  env.telemetry.configure(
      {telemetry::TraceMode::kFull, telemetry::kAllCategories, 1024});
  bridge.ecall(g, ByteBuffer(), resp);
  bridge.ecall(f, ByteBuffer(), resp);
  bridge.ecall(g, ByteBuffer(), resp);

  const telemetry::Tracer& tracer = env.telemetry.tracer();
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.name(tracer.spans()[0].name), "ecall_main");
  EXPECT_EQ(tracer.spans()[0].category, telemetry::Category::kBridge);
  EXPECT_EQ(tracer.name(tracer.spans()[1].name), "ecall_gc_scan_trusted");
  EXPECT_EQ(tracer.spans()[1].category, telemetry::Category::kGc);
  EXPECT_EQ(tracer.spans()[2].name, tracer.spans()[0].name);
}

TEST(Bridge, HandlerExceptionRestoresSide) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId boom =
      bridge.register_ecall("boom", [](ByteReader&) -> ByteBuffer {
        throw RuntimeFault("inside");
      });
  ByteBuffer resp;
  EXPECT_THROW(bridge.ecall(boom, ByteBuffer(), resp), RuntimeFault);
  EXPECT_EQ(bridge.side(), Side::kUntrusted);
}

TEST(Bridge, CallIdDispatchResolvesInternedNames) {
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  const CallId id = bridge.register_ecall("f", [](ByteReader& r) {
    ByteBuffer out;
    out.put_u32(r.get_u32() + 1);
    return out;
  });
  ASSERT_NE(id, kNoCallId);
  EXPECT_EQ(bridge.ecall_id("f"), id);
  EXPECT_EQ(bridge.find_call("f"), id);
  EXPECT_EQ(bridge.call_name(id), "f");
  EXPECT_EQ(bridge.find_call("nope"), kNoCallId);
  EXPECT_THROW(bridge.ocall_id("f"), RuntimeFault) << "no ocall slot filled";
  EXPECT_THROW(bridge.ecall_id("nope"), RuntimeFault);

  ByteBuffer req;
  req.put_u32(41);
  ByteBuffer resp;
  bridge.ecall(id, req, resp);
  EXPECT_EQ(ByteReader(resp).get_u32(), 42u);
}

// One ocall of a 4-byte header plus a 1000-byte buffer, issued from inside
// an ecall with a flight recorder armed. The buffer is either appended to
// the request or passed out of line.
struct PayloadRun {
  Cycles cycles = 0;
  BridgeStats stats;
  std::int64_t recorded_bytes = 0;  // the ocall's flight-recorder size
  std::vector<std::uint8_t> seen;   // the buffer as the handler read it
  bool read_in_place = false;
};

PayloadRun run_payload_ocall(bool out_of_line) {
  Env env;
  telemetry::FlightBus bus(env.telemetry);
  env.telemetry.set_flight(&bus);
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  PayloadRun run;
  const CallId sink = bridge.register_ocall("sink", [&](ByteReader& r) {
    EXPECT_EQ(r.get_u32(), 7u);
    const Payload p = bridge.current_payload();
    if (out_of_line) {
      run.read_in_place = p.data() == data.data();
      run.seen.assign(p.begin(), p.end());
    } else {
      EXPECT_TRUE(p.empty());
      run.seen.assign(r.raw() + r.position(), r.raw() + r.position() +
                                                  r.remaining());
    }
    return ByteBuffer();
  });
  const CallId enter = bridge.register_ecall("enter", [&](ByteReader&) {
    ByteBuffer req, resp;
    req.put_u32(7);
    if (out_of_line) {
      bridge.ocall(sink, req, resp, data);
    } else {
      req.put_bytes(data.data(), data.size());
      bridge.ocall(sink, req, resp);
    }
    EXPECT_TRUE(bridge.current_payload().empty())
        << "the payload belongs to the ocall's frame only";
    return ByteBuffer();
  });
  ByteBuffer resp;
  bridge.ecall(enter, ByteBuffer(), resp);
  run.cycles = env.clock.now();
  run.stats = bridge.stats();
  for (const auto& ev : bus.recorder("test").events()) {
    if (ev.name == "sink") run.recorded_bytes = ev.a;
  }
  env.telemetry.set_flight(nullptr);
  return run;
}

TEST(Bridge, OutOfLinePayloadChargedAsIfAppended) {
  const PayloadRun appended = run_payload_ocall(false);
  const PayloadRun out_of_line = run_payload_ocall(true);
  EXPECT_EQ(out_of_line.cycles, appended.cycles);
  EXPECT_EQ(out_of_line.stats.bytes_out, appended.stats.bytes_out);
  EXPECT_EQ(out_of_line.stats.bytes_in, appended.stats.bytes_in);
  EXPECT_EQ(appended.stats.per_call.at("sink").bytes_in, 1004u);
  EXPECT_EQ(out_of_line.stats.per_call.at("sink").bytes_in, 1004u);
  EXPECT_EQ(appended.recorded_bytes, 1004);
  EXPECT_EQ(out_of_line.recorded_bytes, 1004);
  EXPECT_EQ(out_of_line.seen, appended.seen);
  EXPECT_TRUE(out_of_line.read_in_place)
      << "the handler read the caller's buffer, not a copy";
}

TEST(Bridge, PerCallStatsSurviveIdTableMixedTraffic) {
  // Regression for the string-table -> flat-ID-table migration: per_call
  // must stay name-keyed and correct under mixed ecall / nested-ocall /
  // switchless traffic.
  Env env;
  auto enclave = make_enclave(env);
  TransitionBridge bridge(env, *enclave);

  const CallId log_id = bridge.register_ocall("log", [](ByteReader& r) {
    r.get_u32();
    return ByteBuffer();
  });
  const CallId work_id =
      bridge.register_ecall("work", [&bridge, log_id](ByteReader& r) {
        ByteBuffer msg;
        msg.put_u32(r.get_u32());
        ByteBuffer nested;
        bridge.ocall(log_id, msg, nested);  // nested ocall from trusted side
        ByteBuffer out;
        out.put_u32(1);
        return out;
      });
  const CallId ping_id =
      bridge.register_ecall("ping", [](ByteReader&) { return ByteBuffer(); });
  bridge.set_switchless(ping_id, true);

  ByteBuffer req;
  req.put_u32(9);
  ByteBuffer resp;
  for (int i = 0; i < 3; ++i) bridge.ecall(work_id, req, resp);
  for (int i = 0; i < 4; ++i) bridge.ecall(ping_id, ByteBuffer(), resp);

  const BridgeStats& s = bridge.stats();
  EXPECT_EQ(s.ecalls, 7u);
  EXPECT_EQ(s.ocalls, 3u);
  EXPECT_EQ(s.switchless_calls, 4u);
  ASSERT_TRUE(s.per_call.count("work"));
  ASSERT_TRUE(s.per_call.count("log"));
  ASSERT_TRUE(s.per_call.count("ping"));
  EXPECT_EQ(s.per_call.at("work").calls, 3u);
  EXPECT_EQ(s.per_call.at("log").calls, 3u);
  EXPECT_EQ(s.per_call.at("ping").calls, 4u);
  EXPECT_EQ(s.per_call.at("work").bytes_in, 3 * req.size());
  EXPECT_EQ(s.per_call.at("work").bytes_out, 12u);  // 3 x put_u32 response
  EXPECT_EQ(s.per_call.at("ping").bytes_in, 0u);
}

TEST(Edl, RendersTrustedAndUntrustedSections) {
  EdlSpec spec;
  spec.enclave_name = "demo";
  spec.add_ecall(EdlFunction{
      "ecall_relayAccount",
      "void",
      {{"int", "hash", EdlDirection::kIn, ""},
       {"const char*", "buf", EdlDirection::kIn, "len"},
       {"size_t", "len", EdlDirection::kIn, ""}}});
  spec.add_ocall(EdlFunction{"ocall_write", "long", {}});
  EXPECT_EQ(spec.to_edl_text().find("transition_using_threads"),
            std::string::npos);
  spec.switchless = true;
  const std::string text = spec.to_edl_text();
  EXPECT_NE(text.find("trusted {"), std::string::npos);
  EXPECT_NE(text.find("untrusted {"), std::string::npos);
  EXPECT_NE(text.find("ecall_relayAccount"), std::string::npos);
  EXPECT_NE(text.find("[in, size=len] const char* buf"), std::string::npos);
  EXPECT_NE(text.find("transition_using_threads"), std::string::npos);
  EXPECT_TRUE(spec.has_ecall("ecall_relayAccount"));
  EXPECT_FALSE(spec.has_ocall("ecall_relayAccount"));
}

TEST(Edl, Edger8rGeneratesBothStubs) {
  EdlSpec spec;
  spec.enclave_name = "demo";
  spec.add_ecall(EdlFunction{"ecall_f", "void", {}});
  spec.add_ocall(EdlFunction{"ocall_g", "void", {}});
  const EdgeRoutines gen = edger8r_generate(spec);
  EXPECT_EQ(gen.routine_count, 4u);
  EXPECT_NE(gen.trusted_source.find("ecall_f"), std::string::npos);
  EXPECT_NE(gen.untrusted_source.find("ocall_g"), std::string::npos);
  EXPECT_NE(gen.header.find("ecall_f"), std::string::npos);
}

TEST(Attestation, QuoteVerifies) {
  Env env;
  auto enclave = make_enclave(env);
  QuotingEnclave qe("platform-key");
  const Report report = QuotingEnclave::create_report(*enclave, "channel-pk");
  const Quote quote = qe.quote(report);
  EXPECT_TRUE(
      QuotingEnclave::verify(quote, "platform-key", test_measurement()));
}

TEST(Attestation, WrongKeyOrMeasurementRejected) {
  Env env;
  auto enclave = make_enclave(env);
  QuotingEnclave qe("platform-key");
  Quote quote = qe.quote(QuotingEnclave::create_report(*enclave, "data"));
  EXPECT_FALSE(QuotingEnclave::verify(quote, "other-key", test_measurement()));
  EXPECT_FALSE(QuotingEnclave::verify(quote, "platform-key",
                                      Sha256::hash("other-image")));
  // Tampered user data breaks the MAC.
  quote.report.user_data[0] ^= 1;
  EXPECT_FALSE(
      QuotingEnclave::verify(quote, "platform-key", test_measurement()));
}

}  // namespace
}  // namespace msv::sgx
