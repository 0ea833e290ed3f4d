#include "sgx/epc.h"

#include "support/error.h"

namespace msv::sgx {

EpcModel::EpcModel(Env& env)
    : env_(env),
      capacity_pages_(env.cost.epc_usable_bytes / env.cost.page_bytes),
      limit_pages_(capacity_pages_) {
  MSV_CHECK_MSG(capacity_pages_ > 0, "EPC capacity must be at least a page");
  MSV_CHECK_MSG(capacity_pages_ < kNoFrame, "EPC capacity out of range");
}

EpcModel::Key EpcModel::make_key(std::uint64_t region, std::uint64_t page) {
  // Both halves must be range-checked: a region id >= 2^24 would shift
  // bits off the top and silently alias another region's keys.
  MSV_CHECK_MSG(region < (1ull << 24), "EPC region index out of range");
  MSV_CHECK_MSG(page < (1ull << 40), "EPC page index out of range");
  return (region << 40) | page;
}

std::uint32_t& EpcModel::slot_for(Key key) {
  const Key chunk_key = key >> kChunkShift;
  if (chunk_key != last_chunk_key_) {
    std::unique_ptr<Chunk>& chunk = chunks_[chunk_key];
    if (chunk == nullptr) {
      chunk = std::make_unique<Chunk>();
      chunk->fill(kNoFrame);
    }
    last_chunk_key_ = chunk_key;
    last_chunk_ = chunk.get();
  }
  return (*last_chunk_)[key & ((Key{1} << kChunkShift) - 1)];
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

void EpcModel::drain_to_capacity(std::uint64_t headroom) {
  // Each excess page charges its page-out exactly once, here: the lazy
  // eviction promised by set_reserved_pages / set_limit. With the
  // resident set within capacity this loop is a no-op, so the
  // no-pressure path stays byte-identical to the pre-limit model.
  const std::uint64_t cap = effective_capacity_pages();
  while (resident_ + headroom > cap) {
    ++stats_.evictions;
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kEpc,
                              env_.telemetry.names().epc_page_out);
    env_.clock.advance(env_.cost.epc_page_out_cycles);
    free_frame(lru_frame_);
  }
}

void EpcModel::access(std::uint64_t region, std::uint64_t page) {
  ++stats_.accesses;
  // The pressure drain runs before the lookup: a page beyond the
  // (possibly just-shrunk) effective capacity cannot be EPC-resident, so
  // touching one must fault and page back in — treating it as a free hit
  // (the pre-set_limit behaviour) both skipped the eviction charge and
  // left the resident count physically over capacity indefinitely.
  drain_to_capacity(0);
  const Key key = make_key(region, page);
  std::uint32_t& slot = slot_for(key);
  if (slot != kNoFrame) {
    if (slot != mru_frame_) {
      unlink(slot);
      link_front(slot);
    }
    return;
  }
  // Miss: the driver pages the frame in, evicting the LRU page if full.
  ++stats_.faults;
  {
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kEpc,
                              env_.telemetry.names().epc_page_in);
    env_.clock.advance(env_.cost.epc_page_in_cycles);
  }
  // Make room for the incoming page (at most one eviction here — the
  // pre-access drain already clamped the set to capacity).
  drain_to_capacity(1);
  std::uint32_t f = free_;
  if (f != kNoFrame) {
    free_ = frames_[f].next;
  } else {
    f = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  }
  frames_[f].key = key;
  frames_[f].slot = &slot;
  link_front(f);
  slot = f;
  ++resident_;
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
