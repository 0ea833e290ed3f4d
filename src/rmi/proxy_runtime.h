// The proxy/mirror RMI machinery (§5.2) and the GC helpers (§5.5).
//
// ProxyRuntime connects the two ExecContexts (trusted and untrusted native
// images) through the transition bridge:
//
//   * `new Proxy(args)` on one side creates the local proxy object (hash
//     field only), serializes the constructor arguments, transitions to
//     the relay entry point on the other side, constructs the mirror there
//     and registers it (hash -> strong ref) in that side's mirror-proxy
//     registry;
//   * `proxy.m(args)` transitions to the relay of m, which looks the
//     mirror up by hash and invokes the concrete method;
//   * annotated objects passed as arguments or returned travel as hashes
//     (kRefOwnedByEncoder/kRefOwnedByDecoder, see wire.h); proxies are
//     materialized on demand and cached per hash so each object has at
//     most one live proxy per runtime;
//   * neutral values are serialized and copied.
//
// GC synchronisation: every proxy is also recorded in its isolate's weak
// reference list together with its hash. The two GC helpers periodically
// (default: every simulated second) scan their list for cleared entries
// and evict the corresponding mirrors in the opposite registry — the
// untrusted helper via an ecall, the in-enclave helper via an ocall. The
// helpers are driven deterministically from pump_gc(), which the runtime
// invokes before every top-level transition.
#pragma once

#include <cstdint>
#include <deque>
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

struct GcHelperStats {
  std::uint64_t scans = 0;
  std::uint64_t proxies_collected = 0;  // cleared weak entries processed
  std::uint64_t eviction_calls = 0;     // cross-runtime eviction batches
};

struct RmiStats {
  std::uint64_t proxies_created = 0;
  std::uint64_t proxies_materialized = 0;  // from received hashes
  std::uint64_t mirrors_registered = 0;
  // Logical remote calls (every proxy invocation, batched or not).
  std::uint64_t remote_invocations = 0;
  // Calls whose request marshalling stayed entirely on the primitive
  // fixed-layout path (no ref-encoder indirection).
  std::uint64_t fast_path_calls = 0;
  // RMI-layer bridge round trips. A batched flush dispatches N logical
  // calls over ONE transition, so under batching this grows slower than
  // remote_invocations — the per-call accounting the batching layer must
  // keep honest (a transition != a call once batches exist).
  std::uint64_t transitions = 0;
  // Logical calls that travelled inside a batch frame, and the number of
  // flushes that dispatched at least one pending call.
  std::uint64_t batched_calls = 0;
  std::uint64_t batch_flushes = 0;
};

class ProxyRuntime final : public interp::RemoteInvoker,
                           public BatchFlushSink {
 public:
  struct Config {
    HashScheme hash_scheme = HashScheme::kMd5;
    // §5.5: the helper threads scan "periodically (e.g., every second)".
    double gc_scan_period_seconds = 1.0;
    // Cross-boundary call batching (DESIGN.md §13): invoke_proxy_async
    // packs calls into one wire frame dispatched by a single transition.
    // Off by default — the sync API is byte-identical either way; only
    // the async API changes behaviour.
    bool batching = false;
  };

  ProxyRuntime(Env& env, sgx::TransitionBridge& bridge,
               interp::ExecContext& trusted_ctx,
               interp::ExecContext& untrusted_ctx, Config config);
  ~ProxyRuntime() override;

  // Registers the relay handlers (every kRelay method of both images) and
  // the GC eviction transitions on the bridge. Call exactly once.
  void register_handlers();

  // ---- RemoteInvoker ----
  rt::Value construct_proxy(interp::ExecContext& caller,
                            const model::ClassDecl& proxy_cls,
                            std::vector<rt::Value>& args) override;
  rt::Value invoke_proxy(interp::ExecContext& caller, const rt::GcRef& proxy,
                         const model::ClassDecl& proxy_cls,
                         const model::MethodDecl& stub,
                         std::vector<rt::Value>& args) override;

  // ---- Batched & async RMI (DESIGN.md §13) ----
  // Enables (or disables) call batching at run time. Flushes any pending
  // batch first, so toggling never reorders calls.
  void set_batching(bool enabled);
  // Enqueues one invocation into the pending batch and returns a future
  // for its result. Marshalling (and its cycle charge) happens now; the
  // transition is deferred to the flush. Strict program order per
  // (caller task, direction) is preserved: the batch flushes before any
  // synchronous call, on a direction or caller-side change, when the
  // size bounds fill, at every scheduler suspension point, and on the
  // first get(). Calls with non-primitive arguments (which may alias
  // proxy state earlier batched calls mutate) conservatively flush and
  // run synchronously — their future returns already resolved.
  RmiFuture invoke_proxy_async(interp::ExecContext& caller,
                               const rt::GcRef& proxy,
                               const model::ClassDecl& proxy_cls,
                               const model::MethodDecl& stub,
                               std::vector<rt::Value>& args);
  // Dispatches the pending batch (one bridge transition for N calls);
  // no-op when nothing is pending. Whole-batch failures (enclave loss
  // mid-batch) resolve every pending future with the error — surfaced at
  // each get(), retried by the serving layer's existing backoff ladder.
  void flush_batches() override;
  std::size_t pending_batch_calls() const { return pending_calls_.size(); }

  // ---- GC helpers (§5.5) ----
  // Runs any helper whose scan period elapsed. Only effective at top level
  // (untrusted side); nested invocations are skipped, like a helper thread
  // that cannot preempt an enclave call it depends on.
  void pump_gc();
  // Makes both helpers scan immediately (tests and Fig. 5b sampling).
  void force_gc_scan();

  // ---- Introspection for tests and benchmarks ----
  const MirrorProxyRegistry& registry(Side side) const;
  std::size_t live_proxy_count(Side side) const;
  const GcHelperStats& gc_stats(Side side) const;
  const RmiStats& stats() const { return stats_; }

 private:
  struct SideState {
    SideState(interp::ExecContext& c, HashScheme scheme)
        : ctx(c),
          registry(c.isolate()),
          hasher(scheme, c.isolate().name()) {}

    interp::ExecContext& ctx;
    MirrorProxyRegistry registry;
    ProxyHasher hasher;
    // hash -> weak-table index of the live local proxy for that hash.
    std::unordered_map<std::int64_t, std::uint32_t> proxy_by_hash;
    Cycles next_scan = 0;
    GcHelperStats gc_stats;
  };

  SideState& state(Side side);
  const SideState& state(Side side) const;
  SideState& state_of(interp::ExecContext& ctx);
  SideState& other(SideState& s);

  Side side_of(const SideState& s) const {
    return s.ctx.isolate().trusted() ? Side::kTrusted : Side::kUntrusted;
  }

  // Creates (or reuses) the local proxy object for `hash` of class
  // `class_name` in `s`.
  rt::GcRef materialize_proxy(SideState& s, std::int64_t hash,
                              const std::string& class_name);

  RefEncoder make_ref_encoder(SideState& s, std::uint32_t depth = 0);
  RefDecoder make_ref_decoder(SideState& s, std::uint32_t depth = 0);

  // Per-stub dispatch plan, resolved once per proxy-stub MethodDecl: the
  // interned bridge call ID plus the primitive-signature flag. Subsequent
  // invocations dispatch by ID through the bridge's flat tables instead of
  // re-hashing the relay name.
  struct RelayPlan {
    sgx::CallId id;
    bool via_ecall;
    bool primitive;  // declared all-primitive signature (app model hint)
    // Caller-side span name ("rmi.invoke <relay>"), interned once here so
    // tracing adds no per-call string work.
    std::uint32_t span_name = 0;
  };
  const RelayPlan& plan_for(const model::MethodDecl& stub);

  // Everything one registered relay handler needs, resolved at
  // registration. The bridge closure captures a single pointer to its
  // site, so the std::function fits its small-object buffer (a fat
  // capture would heap-allocate and indirect every dispatch).
  struct RelaySite {
    ProxyRuntime* rt;
    SideState* callee;
    const model::ClassDecl* cls;
    const model::MethodDecl* relay;
    const model::MethodDecl* target;  // null for constructor relays
    // The target's quickening classification, made at registration.
    interp::ExecContext::QuickInfo quick;
  };

  // Encodes self-hash + args into `buf` (an arena lease), taking the
  // fixed-layout shortcut per primitive argument. Byte-for-byte identical
  // to the generic encoder; charges charge_serialize the same.
  void encode_call(ByteBuffer& buf, SideState& caller, std::int64_t self_hash,
                   std::vector<rt::Value>& args);
  // Pumps the GC helpers, then dispatches `payload` by the plan's interned
  // ID; the response is written into `response`.
  void transition(const RelayPlan& plan, const ByteBuffer& payload,
                  ByteBuffer& response);

  // Bridge handler body for one relay site. Writes the marshalled result
  // into `out`. Batched dispatch passes charge_attach=false: the batch
  // handler charges the isolate attach once for the whole frame — the
  // cost batching exists to amortize.
  void dispatch_relay(const RelaySite& site, ByteReader& in, ByteBuffer& out,
                      bool charge_attach = true);

  // Callee-side body of the batch transition: bounded-decodes the frame,
  // dispatches every entry through its RelaySite (isolate attach charged
  // once), packs per-entry results/errors into the response frame.
  void dispatch_batch(SideState& callee, ByteReader& in, ByteBuffer& out);

  // One enqueued-but-not-yet-dispatched batched call. The bare payload
  // (identical bytes to the unbatched wire form) lives at
  // [offset, offset + size) of batch_buf_.
  struct PendingCall {
    const RelayPlan* plan;
    std::shared_ptr<RmiFutureState> state;
    std::size_t offset;
    std::size_t size;
  };
  void install_suspend_hook();
  void do_flush();

  // Scans `local`'s weak list; returns the hashes of collected proxies and
  // compacts the list and the proxy cache.
  std::vector<std::int64_t> collect_dead_proxies(SideState& local);
  void evict_remote(SideState& local, const std::vector<std::int64_t>& dead);

  Env& env_;
  sgx::TransitionBridge& bridge_;
  Config config_;
  SideState trusted_;
  SideState untrusted_;
  Cycles scan_period_;
  bool pumping_ = false;
  bool handlers_registered_ = false;
  // GC-helper transition IDs, interned once at registration.
  sgx::CallId gc_evict_ecall_id_ = sgx::kNoCallId;
  sgx::CallId gc_evict_ocall_id_ = sgx::kNoCallId;
  sgx::CallId gc_scan_ecall_id_ = sgx::kNoCallId;
  RmiStats stats_;
  // Request/response wire buffers, reused across calls (nested chains pull
  // additional buffers; steady state allocates nothing).
  BufferArena arena_;
  std::unordered_map<const model::MethodDecl*, RelayPlan> plans_;
  // Monomorphic plan cache: a hot loop invokes one stub repeatedly, so
  // remembering the last resolution skips the map probe entirely.
  const model::MethodDecl* last_plan_stub_ = nullptr;
  const RelayPlan* last_plan_ = nullptr;
  // Relay dispatch sites (deque: handlers capture stable pointers), plus
  // the CallId index the batch dispatcher routes entries through.
  std::deque<RelaySite> relay_sites_;
  std::unordered_map<sgx::CallId, const RelaySite*> sites_by_id_;

  // ---- Pending batch (one per runtime: one caller side + direction) ----
  std::vector<PendingCall> pending_calls_;
  ByteBuffer batch_buf_;  // concatenated bare payloads; capacity reused
  SideState* pending_from_ = nullptr;
  bool pending_via_ecall_ = false;
  bool flushing_ = false;
  bool hook_installed_ = false;
  BatchLimits batch_limits_;
  // Flush bounds of the pending batch (calls / marshalled bytes).
  static constexpr std::size_t kFlushCalls = 64;
  static constexpr std::size_t kFlushBytes = 64 * 1024;
  sgx::CallId batch_ecall_id_ = sgx::kNoCallId;
  sgx::CallId batch_ocall_id_ = sgx::kNoCallId;

  // Argument-vector pool for relay dispatch (constructor relays consume
  // their vector and simply don't return it).
  std::vector<rt::Value> args_take() {
    if (args_pool_.empty()) return {};
    std::vector<rt::Value> v = std::move(args_pool_.back());
    args_pool_.pop_back();
    return v;
  }
  void args_put(std::vector<rt::Value>&& v) {
    // Clear before pooling: a parked Value would keep its GcRef rooted.
    v.clear();
    if (args_pool_.size() < 16) args_pool_.push_back(std::move(v));
  }
  std::vector<std::vector<rt::Value>> args_pool_;
};

}  // namespace msv::rmi
