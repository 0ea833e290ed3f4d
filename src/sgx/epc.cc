#include "sgx/epc.h"

#include <algorithm>

#include "support/error.h"

namespace msv::sgx {

EpcModel::EpcModel(Env& env)
    : env_(env),
      capacity_pages_(env.cost.epc_usable_bytes / env.cost.page_bytes),
      limit_pages_(capacity_pages_) {
  MSV_CHECK_MSG(capacity_pages_ > 0, "EPC capacity must be at least a page");
  MSV_CHECK_MSG(capacity_pages_ < kNoFrame, "EPC capacity out of range");
}

EpcModel::Chunk& EpcModel::chunk_for(Key key) {
  const Key chunk_key = key >> kChunkShift;
  if (chunk_key != last_chunk_key_) {
    std::unique_ptr<Chunk>& chunk = chunks_[chunk_key];
    if (chunk == nullptr) {
      chunk = std::make_unique_for_overwrite<Chunk>();
      chunk->fill(kNoFrame);
    }
    last_chunk_key_ = chunk_key;
    last_chunk_ = chunk.get();
  }
  return *last_chunk_;
}

void EpcModel::unlink(std::uint32_t f) {
  Frame& frame = frames_[f];
  (frame.prev == kNoFrame ? mru_frame_ : frames_[frame.prev].next) =
      frame.next;
  (frame.next == kNoFrame ? lru_frame_ : frames_[frame.next].prev) =
      frame.prev;
}

void EpcModel::link_front(std::uint32_t f) {
  Frame& frame = frames_[f];
  frame.prev = kNoFrame;
  frame.next = mru_frame_;
  (mru_frame_ == kNoFrame ? lru_frame_ : frames_[mru_frame_].prev) = f;
  mru_frame_ = f;
}

void EpcModel::free_frame(std::uint32_t f) {
  unlink(f);
  *frames_[f].slot = kNoFrame;
  frames_[f].next = free_;
  free_ = f;
  --resident_;
}

void EpcModel::page_in_absent(Key key, std::uint32_t* slots,
                              std::uint64_t n) {
  // Page i goes in front of page i - 1, and the first page in front of
  // the old MRU page: the order n link_fronts leave.
  std::uint32_t below = mru_frame_;
  const auto link = [&](std::uint32_t f, std::uint64_t i) {
    Frame& frame = frames_[f];
    frame.key = key + i;
    frame.slot = slots + i;
    frame.prev = kNoFrame;
    frame.next = below;
    (below == kNoFrame ? lru_frame_ : frames_[below].prev) = f;
    slots[i] = f;
    below = f;
  };
  std::uint64_t i = 0;
  for (; i < n && free_ != kNoFrame; ++i) {
    const std::uint32_t f = free_;
    free_ = frames_[f].next;
    link(f, i);
  }
  if (i < n) {
    // The free list is empty, so the vector holds exactly the resident
    // pages and the EPC has room for the rest: appending keeps it within
    // capacity_pages_ frames. It doubles when full.
    const std::uint64_t size = frames_.size() + (n - i);
    if (size > frames_.capacity()) {
      frames_.reserve(std::min<std::uint64_t>(
          capacity_pages_,
          std::max<std::uint64_t>(size, 2 * frames_.capacity())));
    }
    auto f = static_cast<std::uint32_t>(frames_.size());
    frames_.resize(size);
    for (; i < n; ++i) link(f++, i);
  }
  mru_frame_ = below;
  resident_ += n;
  stats_.faults += n;
}

std::uint64_t EpcModel::drain_to_capacity(std::uint64_t headroom,
                                          bool traced) {
  // Each excess page charges its page-out exactly once, here: the lazy
  // eviction promised by set_reserved_pages / set_limit. With the
  // resident set within capacity this loop is a no-op, so the
  // no-pressure path stays byte-identical to the pre-limit model.
  const std::uint64_t cap = effective_capacity_pages();
  std::uint64_t evicted = 0;
  while (resident_ + headroom > cap) {
    ++stats_.evictions;
    ++evicted;
    if (traced) {
      telemetry::SpanScope span(env_.telemetry.tracer(),
                                telemetry::Category::kEpc,
                                env_.telemetry.names().epc_page_out);
      env_.clock.advance(env_.cost.epc_page_out_cycles);
    }
    free_frame(lru_frame_);
  }
  return evicted;
}

void EpcModel::access(std::uint64_t region, std::uint64_t first,
                      std::uint64_t n) {
  if (n == 0) return;
  // Both halves of every key must be range-checked: a region id >= 2^24
  // would shift bits off the top and silently alias another region's
  // keys. The run's pages are consecutive, so its ends bound them all.
  MSV_CHECK_MSG(region < (1ull << 24), "EPC region index out of range");
  MSV_CHECK_MSG(first < (1ull << 40) && n <= (1ull << 40) - first,
                "EPC page index out of range");
  stats_.accesses += n;
  const bool traced =
      env_.telemetry.tracer().enabled(telemetry::Category::kEpc);
  // The pressure drain runs before each lookup: a page beyond the
  // (possibly just-shrunk) effective capacity cannot be EPC-resident, so
  // touching one must fault and page back in — treating it as a free hit
  // (the pre-set_limit behaviour) both skipped the eviction charge and
  // left the resident count physically over capacity indefinitely. A run
  // that fits never drains: before its i-th page at most
  // capacity - n + i pages are resident, so neither the pre-access drain
  // nor the drain that makes room for a page-in finds an excess.
  const bool fits = resident_ + n <= effective_capacity_pages();
  std::uint64_t page_ins = 0;
  std::uint64_t page_outs = 0;
  constexpr Key kSlotMask = (Key{1} << kChunkShift) - 1;
  // Counted, not bounded by an end key: the run may end on the last key,
  // (2^24 - 1, 2^40 - 1), past which a key would wrap.
  Key key = (region << 40) | first;
  for (std::uint64_t left = n; left > 0;) {
    std::uint32_t* const slots = &chunk_for(key)[key & kSlotMask];
    const std::uint64_t in_chunk =
        std::min(left, kSlotMask + 1 - (key & kSlotMask));
    left -= in_chunk;
    for (std::uint64_t i = 0; i < in_chunk;) {
      if (!fits) page_outs += drain_to_capacity(0, traced);
      const std::uint32_t slot = slots[i];
      if (slot != kNoFrame) {
        if (slot != mru_frame_) {
          unlink(slot);
          link_front(slot);
        }
        ++i;
        continue;
      }
      // Miss. A run that fits, untraced, has nothing to drain and no
      // span to open, so the whole stretch of absent pages from here is
      // paged in at once. Otherwise one page is: the driver pages the
      // frame in, evicting the LRU page if full (at most one eviction
      // here — the pre-access drain already clamped the set to capacity).
      std::uint64_t absent = 1;
      if (fits && !traced) {
        while (i + absent < in_chunk && slots[i + absent] == kNoFrame) {
          ++absent;
        }
      } else {
        if (traced) {
          telemetry::SpanScope span(env_.telemetry.tracer(),
                                    telemetry::Category::kEpc,
                                    env_.telemetry.names().epc_page_in);
          env_.clock.advance(env_.cost.epc_page_in_cycles);
        }
        if (!fits) page_outs += drain_to_capacity(1, traced);
      }
      page_in_absent(key + i, slots + i, absent);
      page_ins += absent;
      i += absent;
    }
    key += in_chunk;
  }
  // Charges are additive (VirtualClock::advance is a plain add), so one
  // charge for the run equals the per-page charges it stands for.
  if (!traced) {
    env_.clock.advance(page_ins * env_.cost.epc_page_in_cycles +
                       page_outs * env_.cost.epc_page_out_cycles);
  }
}

void EpcModel::reserve_frames(std::uint64_t frames) {
  frames_.reserve(std::min(capacity_pages_, frames));
}

void EpcModel::invalidate_all() {
  stats_.invalidated += resident_;
  for (std::uint32_t f = mru_frame_; f != kNoFrame; f = frames_[f].next) {
    *frames_[f].slot = kNoFrame;
  }
  frames_.clear();
  mru_frame_ = lru_frame_ = free_ = kNoFrame;
  resident_ = 0;
}

void EpcModel::set_reserved_pages(std::uint64_t n) {
  MSV_CHECK_MSG(n < capacity_pages_,
                "EPC pressure must leave at least one usable page");
  reserved_pages_ = n;
}

void EpcModel::set_limit(std::uint64_t pages) {
  MSV_CHECK_MSG(pages > 0, "EPC limit must leave at least one usable page");
  limit_pages_ = pages < capacity_pages_ ? pages : capacity_pages_;
}

void EpcModel::release_region(std::uint64_t region) {
  for (std::uint32_t f = mru_frame_; f != kNoFrame;) {
    const std::uint32_t next = frames_[f].next;
    if ((frames_[f].key >> 40) == region) {
      free_frame(f);
      ++stats_.released;
    }
    f = next;
  }
}

}  // namespace msv::sgx
