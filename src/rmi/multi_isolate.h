// Multi-isolate proxy/mirror pairs — the paper's second future-work item
// (§7): "extend our proxy-mirror system to permit creation and interaction
// of proxy-mirror object pairs across multiple isolates".
//
// This extension hosts N trusted isolates inside one enclave (GraalVM
// isolates: separate heaps, independently collected — §2.2), all running
// the same trusted image, paired with a single untrusted runtime. Every
// relayed call carries the target isolate id — exactly the `Isolate ctx`
// parameter the paper's relay methods already take (Listing 4) — and the
// untrusted runtime routes each proxy to the isolate that owns its mirror.
//
// Use case: multi-tenant enclave services. Each tenant's objects live in
// their own isolate; a GC pause in one tenant's heap never stops another
// (exercised by the MultiIsolate tests).
//
// Scope: untrusted <-> trusted-isolate-k pairs in both directions. Passing
// a proxy of isolate A's object into a call on isolate B (a trusted-to-
// trusted edge) is detected and rejected — full cross-isolate pairs would
// need trusted-to-trusted transitions the paper also leaves as future
// work.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/exec_context.h"
#include "interp/remote.h"
#include "rmi/batch.h"
#include "rmi/hasher.h"
#include "rmi/registry.h"
#include "rmi/wire.h"
#include "sgx/bridge.h"

namespace msv::rmi {

// Thrown when a proxy minted against a previous enclave incarnation is
// invoked after a restart: its mirror died with the old enclave heap, so
// the call can never be routed. Typed so the serving layer can rebuild the
// session instead of treating it as a bug.
class StaleProxyError : public RuntimeFault {
 public:
  explicit StaleProxyError(const std::string& what) : RuntimeFault(what) {}
};

class MultiIsolateRuntime final : public interp::RemoteInvoker {
 public:
  struct Config {
    HashScheme hash_scheme = HashScheme::kMd5;
  };

  // `trusted` contexts all execute the same trusted image in their own
  // isolates; `untrusted` is the single host-side runtime.
  MultiIsolateRuntime(Env& env, sgx::TransitionBridge& bridge,
                      std::vector<interp::ExecContext*> trusted,
                      interp::ExecContext& untrusted, Config config);

  void register_handlers();

  std::uint32_t isolate_count() const {
    return static_cast<std::uint32_t>(trusted_.size());
  }

  // Constructs a proxy in the untrusted runtime whose mirror lives in
  // trusted isolate `isolate_index`.
  rt::Value construct_in(std::uint32_t isolate_index, const std::string& cls,
                         std::vector<rt::Value> args);

  // ---- RemoteInvoker (plain `new Proxy(...)` defaults to isolate 0) ----
  rt::Value construct_proxy(interp::ExecContext& caller,
                            const model::ClassDecl& proxy_cls,
                            std::vector<rt::Value>& args) override;
  rt::Value invoke_proxy(interp::ExecContext& caller, const rt::GcRef& proxy,
                         const model::ClassDecl& proxy_cls,
                         const model::MethodDecl& stub,
                         std::vector<rt::Value>& args) override;

  // ---- Batched RMI (DESIGN.md §13) ----
  // One packed invocation inside a batch: an instance call on an
  // untrusted-side proxy whose mirror lives in a trusted isolate.
  struct BatchCall {
    rt::GcRef proxy;
    const model::MethodDecl* stub = nullptr;
    std::vector<rt::Value> args;
  };
  // Per-call outcome. Application faults inside one entry do not abort
  // the rest of the batch; they come back in-band so the caller (the
  // request server's coalescer) can fail just that request.
  struct BatchOutcome {
    bool ok = false;
    rt::Value value;
    std::string error;
  };

  // Packs `calls` into one "ecall_multi_rmi_batch" transition. All proxies
  // must be owned by the same trusted isolate, and every proxy is epoch-
  // fenced *up front*: a stale proxy fails the whole batch with
  // StaleProxyError before any transition happens, so the serving layer's
  // recovery ladder retries the batch as a unit. Transition-level faults
  // (enclave lost mid-batch) likewise abort the whole batch by throwing.
  std::vector<BatchOutcome> invoke_batch(const std::vector<BatchCall>& calls);

  // Scans every weak list and evicts dead mirrors across all pairs.
  void force_gc_scan();

  // Authority fence (DESIGN.md §14). Marks every *currently minted*
  // untrusted-side proxy stale without restarting the enclave: the fleet
  // calls this on a shard's demoted runtime when a replica is promoted, so
  // requests still holding old sessions fault with StaleProxyError instead
  // of double-executing against an enclave that is no longer the shard's
  // authority (which may be perfectly healthy in a planned failover).
  // Proxies minted afterwards record the live epoch and work normally.
  void fence_proxies();

  // Enclave-restart fence (DESIGN.md §12). The trusted heaps are gone:
  // drops every trusted-side registry/proxy table and the untrusted-side
  // mirror registry (whose in-enclave proxies died with the heap).
  // Untrusted proxies minted against the old incarnation survive as
  // objects but their next invocation throws StaleProxyError — the epoch
  // recorded at mint no longer matches Enclave::epoch().
  void on_enclave_restart();

  const MirrorProxyRegistry& trusted_registry(std::uint32_t index) const;
  const MirrorProxyRegistry& untrusted_registry() const {
    return untrusted_->registry;
  }

 private:
  // Sentinel isolate id for the (single) untrusted runtime.
  static constexpr std::uint32_t kUntrustedId = 0xffffffffu;
  // Sentinel epoch marking a proxy fenced by fence_proxies(). Real enclave
  // epochs start at 1, so 0 can never match.
  static constexpr std::uint64_t kFencedEpoch = 0;

  struct SideState {
    SideState(interp::ExecContext& c, HashScheme scheme,
              const std::string& domain)
        : ctx(c), registry(c.isolate()), hasher(scheme, domain) {}

    interp::ExecContext& ctx;
    MirrorProxyRegistry registry;
    ProxyHasher hasher;
    std::unordered_map<std::int64_t, std::uint32_t> proxy_by_hash;
  };

  SideState& state_of(interp::ExecContext& ctx);
  SideState& state_by_id(std::uint32_t id);
  std::uint32_t id_of(const SideState& s) const;

  // `depth` counts the enclosing neutral objects; both directions stop at
  // kMaxSerializationDepth.
  RefEncoder make_ref_encoder(SideState& from, std::uint32_t callee_id,
                              std::uint32_t depth = 0);
  RefDecoder make_ref_decoder(SideState& to, std::uint32_t peer_id,
                              std::uint32_t depth = 0);

  rt::GcRef materialize_proxy(SideState& s, std::int64_t hash,
                              const std::string& class_name,
                              std::uint32_t owner_id);

  rt::Value do_construct(SideState& from, std::uint32_t target_id,
                         const model::ClassDecl& proxy_cls,
                         std::vector<rt::Value>& args);

  // Throws StaleProxyError when `hash` was minted under an earlier enclave
  // epoch than the current one.
  void check_proxy_epoch(std::int64_t hash);

  // Decodes and executes one relayed call (the body shared by the
  // per-relay handlers and the batch dispatcher). `in` is positioned at
  // the per-call payload (self hash onward); the isolate-attach cost is
  // charged only when `charge_attach` — the batch handler pays it once
  // for the whole frame.
  ByteBuffer dispatch_one(SideState& callee, std::uint32_t caller_id,
                          const std::string& cls_name,
                          const std::string& relay_name, ByteReader& in,
                          bool charge_attach);

  Env& env_;
  sgx::TransitionBridge& bridge_;
  Config config_;
  std::vector<std::unique_ptr<SideState>> trusted_;
  std::unique_ptr<SideState> untrusted_;
  // Untrusted-side routing: proxy hash -> owning trusted isolate.
  std::unordered_map<std::int64_t, std::uint32_t> hash_owner_;
  // Enclave epoch each untrusted-side proxy hash was minted under; stale
  // entries make invoke_proxy fault with StaleProxyError after a restart.
  std::unordered_map<std::int64_t, std::uint64_t> hash_epoch_;
  bool handlers_registered_ = false;
  // Relay-stub dispatch IDs, memoized per proxy-stub decl (ecall and ocall
  // registrations of one relay name share the interned ID).
  sgx::CallId relay_id(const model::MethodDecl& stub);
  std::unordered_map<const model::MethodDecl*, sgx::CallId> relay_ids_;
  // GC-helper transition IDs, interned at registration.
  sgx::CallId gc_evict_ecall_id_ = sgx::kNoCallId;
  sgx::CallId gc_scan_ecall_id_ = sgx::kNoCallId;
  sgx::CallId gc_evict_ocall_id_ = sgx::kNoCallId;
  // Batch endpoint + per-relay routing table (CallId -> class, relay),
  // built as the relay handlers register.
  sgx::CallId batch_ecall_id_ = sgx::kNoCallId;
  std::unordered_map<sgx::CallId, std::pair<std::string, std::string>>
      batch_targets_;
};

}  // namespace msv::rmi
