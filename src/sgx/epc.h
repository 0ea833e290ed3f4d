// Enclave Page Cache model (§2.1).
//
// Recent SGX processors expose a small protected memory region (93.5 MB
// usable on the paper's testbed). The kernel driver swaps pages between the
// EPC and regular DRAM when an enclave's working set exceeds it; this
// paging is very expensive (tens of thousands of cycles per page). The
// model below tracks resident pages with an LRU policy and charges page-in
// and page-out costs to the virtual clock on misses and evictions.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/env.h"

namespace msv::sgx {

struct EpcStats {
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;       // page not resident, paged in
  std::uint64_t evictions = 0;    // resident page pushed out to DRAM
  std::uint64_t released = 0;     // dropped free by release_region
  std::uint64_t invalidated = 0;  // dropped free by invalidate_all
};

class EpcModel {
 public:
  // Capacity is taken from env.cost (epc_usable_bytes / page_bytes).
  explicit EpcModel(Env& env);

  // Notes an access to `page` of `region`, charging fault/eviction costs:
  // a run of one page.
  void access(std::uint64_t region, std::uint64_t page) {
    access(region, page, 1);
  }

  // Notes accesses to pages [first, first + n) of `region`, in order. The
  // simulated outcome is that of n single-page accesses — the same LRU
  // order, counters and cycles — but the run range-checks its keys once
  // and looks up one page-table chunk per 512 pages. A run that fits
  // (resident + n within the effective capacity) evicts nothing, so it
  // skips the per-page drain, and, untraced, links each stretch of
  // absent pages in one pass. Untraced, the run's page-ins and page-outs
  // are one clock charge; with the EPC category traced each keeps its
  // own span and charge.
  void access(std::uint64_t region, std::uint64_t first, std::uint64_t n);

  // Sizes the frame store for `frames` frames in all (at most
  // capacity_pages()). A launch calls it once, before it pages in its
  // image heaps, with what it will page in, so the launch never regrows
  // the store. Past that, the store doubles when it is full.
  void reserve_frames(std::uint64_t frames);

  // Drops all pages of `region` (e.g. a GC semispace that was released);
  // no cost — the driver just reclaims the EPC pages.
  void release_region(std::uint64_t region);

  // Drops every resident page without cost: the enclave that owned them is
  // gone (SGX_ERROR_ENCLAVE_LOST), so there is nothing to write back.
  void invalidate_all();

  // External EPC pressure (other enclaves on the platform grabbing
  // frames): `n` pages are withheld from this enclave's share, shrinking
  // the effective capacity. Pages already resident beyond the shrunken
  // capacity are evicted lazily, on the next access. 0 restores the full
  // share. Must leave at least one usable page.
  void set_reserved_pages(std::uint64_t n);
  std::uint64_t reserved_pages() const { return reserved_pages_; }

  // Administrative capacity limit (the cgroup/driver-quota analog used by
  // the stress suite to shrink capacity mid-run): the enclave's share is
  // clamped to `pages` regardless of external pressure. Like reservation
  // pressure, a shrink below the resident set evicts lazily — each excess
  // page charges its page-out exactly once, on the next access (any
  // access, hit or miss: a "hit" on a page the shrunken EPC cannot hold
  // is physically impossible, so the drain happens before the lookup).
  // capacity_pages() (the default) removes the limit. Must be >= 1.
  void set_limit(std::uint64_t pages);
  std::uint64_t limit_pages() const { return limit_pages_; }

  std::uint64_t capacity_pages() const { return capacity_pages_; }
  std::uint64_t effective_capacity_pages() const {
    const std::uint64_t share = capacity_pages_ - reserved_pages_;
    return share < limit_pages_ ? share : limit_pages_;
  }
  std::uint64_t resident_pages() const { return resident_; }
  // Frames handed out, resident or free. Free frames are reused before a
  // new one is taken, so this is the peak resident set since
  // construction or invalidate_all, never more than capacity_pages().
  std::uint64_t frame_count() const { return frames_.size(); }
  const EpcStats& stats() const { return stats_; }

  // Page-count conservation: every fault brought one page in, and every
  // page left through exactly one of eviction / region release /
  // enclave-loss invalidation or is still resident. The stress suite
  // asserts this after every shrink/regrow storm; a drift means an
  // eviction was double-charged or skipped.
  bool stats_reconcile() const {
    return stats_.faults == stats_.evictions + stats_.released +
                                stats_.invalidated + resident_;
  }

 private:
  using Key = std::uint64_t;  // (region << 40) | page

  // The page table is two-level: Key >> kChunkShift names a chunk of
  // 512 frame indices, so a run of pages in one region costs one
  // directory lookup per chunk, and a sparse key costs one 2 KiB chunk.
  // Chunks are allocated one by one and never move, so a slot pointer
  // stays valid while other chunks are added.
  static constexpr unsigned kChunkShift = 9;
  static constexpr std::uint32_t kNoFrame = ~std::uint32_t{0};
  using Chunk = std::array<std::uint32_t, std::size_t{1} << kChunkShift>;

  // A resident page: its key, its page-table slot, and its links in the
  // LRU list (prev toward the MRU end). A free frame chains through next.
  struct Frame {
    Key key = 0;
    std::uint32_t* slot = nullptr;
    std::uint32_t prev = kNoFrame;
    std::uint32_t next = kNoFrame;
  };

  // The page-table chunk holding `key`'s slot, allocated on first use.
  Chunk& chunk_for(Key key);
  void unlink(std::uint32_t f);
  void link_front(std::uint32_t f);
  // Unlinks frame `f`, clears its slot and puts it on the free list.
  void free_frame(std::uint32_t f);
  // Pages in the `n` absent pages from `key` on, whose page-table slots
  // are slots[0, n), in one pass: the frames, LRU order and counters of
  // n single page-ins. Frames come from the free list first, then from
  // the end of the vector. The caller has made room for the pages in the
  // EPC and charges the clock.
  void page_in_absent(Key key, std::uint32_t* slots, std::uint64_t n);

  // Evicts LRU pages until the resident set fits the effective capacity
  // (strictly, or leaving `headroom` free frames) and returns how many
  // it evicted. Traced, each page-out opens its span and charges the
  // clock; untraced, the caller charges them with the run.
  std::uint64_t drain_to_capacity(std::uint64_t headroom, bool traced);

  Env& env_;
  std::uint64_t capacity_pages_;
  std::uint64_t reserved_pages_ = 0;
  std::uint64_t limit_pages_;
  // The frames handed out since construction or invalidate_all. Free ones
  // are recycled before the vector grows, so it never holds more than
  // capacity_pages_ frames. A launch sizes it once (reserve_frames).
  std::vector<Frame> frames_;
  std::uint32_t mru_frame_ = kNoFrame;
  std::uint32_t lru_frame_ = kNoFrame;
  std::uint32_t free_ = kNoFrame;
  std::uint64_t resident_ = 0;
  std::unordered_map<Key, std::unique_ptr<Chunk>> chunks_;
  // The chunk of the last lookup: consecutive runs skip the directory.
  Key last_chunk_key_ = ~Key{0};
  Chunk* last_chunk_ = nullptr;
  EpcStats stats_;
};

}  // namespace msv::sgx
