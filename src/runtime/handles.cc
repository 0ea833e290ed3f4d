#include "runtime/handles.h"

namespace msv::rt {

std::uint32_t HandleTable::create(ObjAddr addr) {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    slots_[idx] = addr;
    refs_[idx] = 1;
    return idx;
  }
  slots_.push_back(addr);
  refs_.push_back(1);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void HandleTable::release(std::uint32_t index) {
  MSV_CHECK_MSG(index < refs_.size() && refs_[index] != 0,
                "releasing a dead handle");
  if (--refs_[index] != 0) return;
  slots_[index] = kNullAddr;
  free_.push_back(index);
}

ObjAddr HandleTable::get(std::uint32_t index) const {
  MSV_CHECK_MSG(index < refs_.size() && refs_[index] != 0,
                "reading a dead handle");
  return slots_[index];
}

void HandleTable::set(std::uint32_t index, ObjAddr addr) {
  MSV_CHECK_MSG(index < refs_.size() && refs_[index] != 0,
                "writing a dead handle");
  slots_[index] = addr;
}

}  // namespace msv::rt
