// The mirror-proxy registry (§5.2).
//
// Each runtime keeps a registry mapping proxy hashes to strong references
// to the local *mirror* objects (the concrete objects that proxies in the
// opposite runtime stand for). The strong reference keeps the mirror alive
// while its proxy lives; the GC helper (§5.5) removes the entry once the
// proxy has been collected, making the mirror eligible for collection.
//
// A reverse index (mirror identity hash -> proxy hash) supports passing
// already-mirrored objects as parameters: the hash travels instead of the
// object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "runtime/isolate.h"

namespace msv::rmi {

struct RegistryStats {
  std::uint64_t adds = 0;
  std::uint64_t removes = 0;
  std::uint64_t lookups = 0;
};

class MirrorProxyRegistry {
 public:
  explicit MirrorProxyRegistry(rt::Isolate& isolate) : isolate_(isolate) {
    // by_hash_ is the hottest RMI lookup (one get() per relayed instance
    // call): keep the load factor low so lookups stay at one probe. Both
    // indices grow on demand; most registries hold a handful of mirrors.
    by_hash_.max_load_factor(0.7f);
    by_identity_.max_load_factor(0.7f);
  }

  // Registers `mirror` under `hash`. Throws RuntimeFault on a hash
  // collision — the paper's motivation for MD5-based hashing (§5.2).
  void add(std::int64_t hash, rt::GcRef mirror);

  // Strong lookup; throws RuntimeFault when absent (a consistency
  // violation: an RMI arrived for a mirror that was already evicted).
  rt::GcRef get(std::int64_t hash) const { return get_ref(hash); }

  // Reference-returning lookup for the relay hot path: same charge and
  // lookup counter, no refcount churn. The reference is invalidated by the
  // next add() (rehash), so callers must not hold it across a nested
  // relay that could register mirrors on this side.
  const rt::GcRef& get_ref(std::int64_t hash) const;

  bool contains(std::int64_t hash) const;

  // Eviction by the GC helper. Missing hashes are ignored (the proxy may
  // have died before its mirror was ever registered under races the paper
  // tolerates; eviction is idempotent).
  void remove(std::int64_t hash);

  // Proxy hash under which `mirror` is registered, if any.
  std::optional<std::int64_t> hash_for(const rt::GcRef& mirror) const;

  // Drops every entry at once — the enclave-restart path, where the peer
  // runtime's proxies are all gone and the strong references would pin
  // dead state forever. Counted as removes.
  void clear() {
    stats_.removes += by_hash_.size();
    by_hash_.clear();
    by_identity_.clear();
  }

  std::size_t size() const { return by_hash_.size(); }
  const RegistryStats& stats() const { return stats_; }

 private:
  void charge() const;

  rt::Isolate& isolate_;
  std::unordered_map<std::int64_t, rt::GcRef> by_hash_;
  // Keyed by object identity hash, which is GC-stable.
  std::unordered_map<std::uint32_t, std::int64_t> by_identity_;
  mutable RegistryStats stats_;
};

}  // namespace msv::rmi
