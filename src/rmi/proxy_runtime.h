// The proxy/mirror RMI machinery (§5.2) and the GC helpers (§5.5).
//
// ProxyRuntime connects the untrusted native image's ExecContext with the
// enclave's N >= 1 trusted isolates through the transition bridge:
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
//     most one live proxy per isolate;
//   * neutral values are serialized and copied;
//   * invoke_batch packs N calls into one frame for one trusted isolate,
//     crossing on one `ecall_rmi_batch` transition and one isolate attach
//     (DESIGN.md §13).
//
// Every trusted isolate runs the same trusted image in its own heap,
// collected independently (§2.2); N = 1 is the paper's deployment. With
// N >= 2 (§7's multi-isolate pairs) each relayed frame opens with a u32
// target and a u32 caller isolate id — the `Isolate ctx` of the paper's
// relay signature (Listing 4) — and each untrusted proxy stays bound to
// the isolate owning its mirror; a proxy passed to another isolate (a
// trusted-to-trusted edge) is rejected. One isolate needs no address, so
// its frames carry no prefix.
//
// GC synchronisation: every proxy is also recorded in its isolate's weak
// reference list together with its hash. The GC helpers scan these lists
// for cleared entries and evict the mirrors in the opposite registry — the
// untrusted helper via an ecall to the owning isolate, the in-enclave
// helpers via an ocall. With one trusted isolate pump_gc() runs them every
// scan period (default: every simulated second) before each top-level
// transition; with more, force_gc_scan() or pump_gc() runs them.
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
#include "sgx/edl.h"

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
  // RMI-layer bridge round trips. A batch frame dispatches N logical
  // calls over ONE transition, so under batching this grows slower than
  // remote_invocations — the per-call accounting the batching layer must
  // keep honest (a transition != a call once batches exist).
  std::uint64_t transitions = 0;
  // Logical calls that travelled inside a batch frame, and the number of
  // batch frames dispatched (a batch of one sends no frame).
  std::uint64_t batched_calls = 0;
  std::uint64_t batch_flushes = 0;
};

// Thrown when a proxy minted against a previous enclave incarnation (or
// fenced by fence_proxies) is invoked: its mirror is gone or no longer
// authoritative, so the call can never be routed. Typed so the serving
// layer can rebuild the session instead of treating it as a bug.
class StaleProxyError : public RuntimeFault {
 public:
  explicit StaleProxyError(const std::string& what) : RuntimeFault(what) {}
};

class ProxyRuntime final : public interp::RemoteInvoker {
 public:
  struct Config {
    HashScheme hash_scheme = HashScheme::kMd5;
    // §5.5: the helper threads scan "periodically (e.g., every second)".
    double gc_scan_period_seconds = 1.0;
  };

  // `trusted` holds one context per trusted isolate (at least one), all
  // executing the same trusted image; `untrusted` is the host runtime.
  ProxyRuntime(Env& env, sgx::TransitionBridge& bridge,
               const std::vector<interp::ExecContext*>& trusted,
               interp::ExecContext& untrusted, Config config);

  // Registers the relay handlers (every kRelay method of both images,
  // under the transition names the transformer gave them), the batch
  // endpoint and the GC eviction transitions on the bridge. Call exactly
  // once.
  void register_handlers();

  // The GC helper's transitions (§5.5), the one definition of their names
  // and signatures, built once per process and linked into every
  // partitioned enclave's EDL: trusted [ecall_gc_evict_mirrors,
  // ecall_gc_scan_trusted], untrusted [ocall_gc_evict_mirrors].
  static const sgx::EdlInterface& gc_edl_interface();

  std::uint32_t isolate_count() const {
    return static_cast<std::uint32_t>(trusted_.size());
  }

  // Constructs a proxy in the untrusted runtime whose mirror lives in
  // trusted isolate `isolate`. A plain `new` of a proxy class targets
  // isolate 0.
  rt::Value construct_in(std::uint32_t isolate, const std::string& cls,
                         std::vector<rt::Value> args);

  // ---- RemoteInvoker ----
  rt::Value construct_proxy(interp::ExecContext& caller,
                            const model::ClassDecl& proxy_cls,
                            std::vector<rt::Value>& args) override;
  rt::Value invoke_proxy(interp::ExecContext& caller, const rt::GcRef& proxy,
                         const model::ClassDecl& proxy_cls,
                         const model::MethodDecl& stub,
                         std::vector<rt::Value>& args) override;

  // ---- Batched RMI (DESIGN.md §13) ----
  // One packed invocation for invoke_batch: an instance call on an
  // untrusted-side proxy whose mirror lives in a trusted isolate.
  struct BatchCall {
    rt::GcRef proxy;
    const model::MethodDecl* stub = nullptr;
    std::vector<rt::Value> args;
  };
  // Per-call outcome. Application faults inside one entry do not abort
  // the rest of the batch; they come back in-band so the caller (a
  // serving coalescer) can fail just that request.
  struct BatchOutcome {
    bool ok = false;
    rt::Value value;
    std::string error;
  };
  // Packs `calls` into one batch transition and waits for it: the one
  // caller-side batch builder. All proxies must be owned by the same
  // trusted isolate, and every proxy is fenced *up front*: a stale proxy
  // fails the whole batch with StaleProxyError before any transition
  // happens, so the serving layer's recovery ladder retries the batch as
  // a unit. Transition-level faults (enclave lost mid-batch) likewise
  // abort the whole batch by throwing. A batch of one is the unbatched
  // call byte for byte (no frame; the relay's own transition, span and
  // charges), so its application fault throws as invoke_proxy's would.
  std::vector<BatchOutcome> invoke_batch(const std::vector<BatchCall>& calls);

  // ---- Fencing (DESIGN.md §12, §14) ----
  // Authority fence: every untrusted proxy minted so far turns stale
  // without an enclave restart. The fleet fences a shard's demoted runtime
  // when a replica is promoted, so old sessions fault with StaleProxyError
  // instead of double-executing. Proxies minted afterwards work normally.
  void fence_proxies();
  // Enclave-restart fence: the trusted heaps are gone, so every trusted
  // registry and proxy table and the untrusted mirror registry are
  // dropped, and proxies minted against the old incarnation turn stale.
  void on_enclave_restart();

  // ---- GC helpers (§5.5) ----
  // Runs any helper whose scan period elapsed. Only effective at top level
  // (untrusted side); nested invocations are skipped, like a helper thread
  // that cannot preempt an enclave call it depends on.
  void pump_gc();
  // Makes every helper scan immediately (tests and Fig. 5b sampling).
  void force_gc_scan();

  // ---- Introspection for tests and benchmarks ----
  // `isolate` selects the trusted isolate; the untrusted side has one.
  const MirrorProxyRegistry& registry(Side side,
                                      std::uint32_t isolate = 0) const;
  std::size_t live_proxy_count(Side side, std::uint32_t isolate = 0) const;
  const GcHelperStats& gc_stats(Side side, std::uint32_t isolate = 0) const;
  const RmiStats& stats() const { return stats_; }

 private:
  // Wire id of the (single) untrusted runtime; trusted isolates are
  // numbered from 0.
  static constexpr std::uint32_t kUntrustedId = 0xffffffffu;
  // Marks a proxy stale by fence_proxies(). Enclave epochs start at 1.
  static constexpr std::uint64_t kFencedEpoch = 0;

  struct SideState {
    SideState(interp::ExecContext& c, HashScheme scheme, std::uint32_t i)
        : ctx(c),
          registry(c.isolate()),
          hasher(scheme, c.isolate().name()),
          id(i) {}

    interp::ExecContext& ctx;
    MirrorProxyRegistry registry;
    ProxyHasher hasher;
    std::uint32_t id;  // trusted isolate index, or kUntrustedId
    // hash -> weak-table index of the live local proxy for that hash.
    std::unordered_map<std::int64_t, std::uint32_t> proxy_by_hash;
    Cycles next_scan = 0;
    GcHelperStats gc_stats;
  };

  const SideState& state(Side side, std::uint32_t isolate) const;
  SideState& state_of(interp::ExecContext& ctx);
  // The side a wire id names; throws on ids no isolate has.
  SideState& state_by_id(std::uint32_t id);
  bool is_trusted(const SideState& s) const { return s.id != kUntrustedId; }

  // The callee of a call from `from`: the untrusted runtime for trusted
  // callers, else the trusted isolate owning `self_hash`'s mirror
  // (isolate 0 for static calls). Untrusted instance calls are fenced
  // here.
  SideState& callee_of(SideState& from, std::int64_t self_hash,
                       bool is_static);
  // Bookkeeping for a new untrusted proxy of `hash` whose mirror lives in
  // isolate `owner`.
  void track_proxy(std::int64_t hash, std::uint32_t owner);
  // Throws StaleProxyError when `hash` was minted before the last fence or
  // enclave restart.
  void check_stale(std::int64_t hash) const;
  // Adds every live untrusted proxy to stale_ under `epoch`; `overwrite`
  // also re-marks proxies already in it.
  void mark_live_proxies_stale(std::uint64_t epoch, bool overwrite);

  // The hash field of `proxy` (0 for static stubs, which have none).
  static std::int64_t self_hash_of(interp::ExecContext& caller,
                                   const rt::GcRef& proxy,
                                   const model::ClassDecl& proxy_cls,
                                   const model::MethodDecl& stub);
  // Creates the local proxy in `from` and its mirror in `to`.
  rt::Value construct(SideState& from, SideState& to,
                      const model::ClassDecl& proxy_cls,
                      std::vector<rt::Value>& args);

  // Creates (or reuses) the local proxy object for `hash` of class
  // `class_name` in `s`, owned by the side with wire id `owner`.
  rt::GcRef materialize_proxy(SideState& s, std::int64_t hash,
                              const std::string& class_name,
                              std::uint32_t owner);

  // `peer` is the wire id of the side at the other end of the frame.
  RefEncoder make_ref_encoder(SideState& s, std::uint32_t peer,
                              std::uint32_t depth = 0);
  RefDecoder make_ref_decoder(SideState& s, std::uint32_t peer,
                              std::uint32_t depth = 0);

  // Per-stub dispatch plan, resolved once per proxy-stub MethodDecl: the
  // interned bridge call ID. Subsequent invocations dispatch by ID through
  // the bridge's flat tables instead of re-hashing the relay name.
  struct RelayPlan {
    sgx::CallId id;
    bool via_ecall;
    // Caller-side span name ("rmi.invoke <relay>"), interned once here so
    // tracing adds no per-call string work.
    std::uint32_t span_name = 0;
  };
  const RelayPlan& plan_for(const model::MethodDecl& stub);

  // Everything one registered relay handler needs, resolved at
  // registration. The bridge closure captures a single pointer to its
  // site, so the std::function fits its small-object buffer (a fat
  // capture would heap-allocate and indirect every dispatch). The trusted
  // image is shared by every trusted isolate, so one site serves them all.
  struct RelaySite {
    ProxyRuntime* rt;
    // The callee with one trusted isolate; with more, the frame's route
    // picks an isolate on this side.
    SideState* callee;
    const model::ClassDecl* cls;
    const model::MethodDecl* relay;
    const model::MethodDecl* target;  // null for constructor relays
    // The target's quickening classification, made at registration.
    interp::QuickInfo quick;
  };

  // Encodes [route] + self-hash + args into `buf` (empty on entry),
  // taking the fixed-layout shortcut per primitive argument, and charges
  // charge_serialize for every byte written. `routed` writes the u32
  // target/caller prefix: set for single calls with N >= 2, never for
  // invoke_batch's entries.
  void encode_call(ByteBuffer& buf, SideState& caller, SideState& callee,
                   std::int64_t self_hash, const std::vector<rt::Value>& args,
                   bool routed);
  // Decodes one marshalled result on the caller side and charges
  // charge_deserialize for it.
  rt::Value decode_result(SideState& caller, std::uint32_t peer,
                          const std::uint8_t* data, std::size_t size);
  // The single-call wire path of invoke_proxy and of a batch of one:
  // routes (and fences) the call, marshals it with its route, makes the
  // relay transition and decodes the result. The caller has counted the
  // transition and opened the call's span.
  rt::Value relay_call(SideState& from, const RelayPlan& plan,
                       std::int64_t self_hash, bool is_static,
                       const std::vector<rt::Value>& args);
  // Top-level transition of the RMI layer: pumps the periodic GC helpers
  // (one trusted isolate only), then dispatches `payload` by interned ID;
  // the response is written into `response`.
  void transition(sgx::CallId id, bool via_ecall, const ByteBuffer& payload,
                  ByteBuffer& response);
  // Reads a frame's route: with N >= 2 the u32 target/caller prefix,
  // checked against the side `site_callee` lives on; with N = 1 the
  // callee is `site_callee` itself. Returns the callee; sets `caller`.
  SideState& read_route(SideState& site_callee, ByteReader& in,
                        std::uint32_t& caller);

  // Bridge handler body for one relay site.
  void dispatch_relay(const RelaySite& site, ByteReader& in, ByteBuffer& out);
  // Decodes and runs one relayed call on `callee` and writes the
  // marshalled result into `out`. Batched dispatch passes
  // charge_attach=false: the batch handler charges the isolate attach
  // once for the whole frame — the cost batching exists to amortize.
  void run_relay(const RelaySite& site, SideState& callee,
                 std::uint32_t caller, ByteReader& in, ByteBuffer& out,
                 bool charge_attach);

  // Callee-side body of the batch transition (ecall_rmi_batch):
  // bounded-decodes the frame, dispatches every entry through its
  // RelaySite (isolate attach charged once), packs per-entry
  // results/errors into the response frame.
  void dispatch_batch(ByteReader& in, ByteBuffer& out);

  // Scans `local`'s weak list; returns the hashes of collected proxies and
  // compacts the list and the proxy cache.
  std::vector<std::int64_t> collect_dead_proxies(SideState& local);
  // Evicts the mirrors of `dead` proxies of `local` in the opposite
  // registry — per owning isolate for untrusted proxies.
  void evict_remote(SideState& local, const std::vector<std::int64_t>& dead);
  // Sends one eviction frame to the side holding the mirrors: an ecall
  // ([u32 owner isolate with N >= 2] + varint n + hashes) or an ocall.
  void send_eviction(SideState& mirrors,
                     const std::vector<std::int64_t>& hashes);

  Env& env_;
  sgx::TransitionBridge& bridge_;
  Config config_;
  // Trusted isolates (deque: relay sites and closures hold stable
  // pointers).
  std::deque<SideState> trusted_;
  SideState untrusted_;
  // N >= 2, derived once from the isolate count: frames carry the route
  // prefix, eviction frames their owner id, untrusted proxies record their
  // owning isolate, and the GC helpers do not pump before transitions.
  const bool routed_;
  Cycles scan_period_;
  bool pumping_ = false;
  bool handlers_registered_ = false;
  // GC-helper transition IDs, interned once at registration.
  sgx::CallId gc_evict_ecall_id_ = sgx::kNoCallId;
  sgx::CallId gc_evict_ocall_id_ = sgx::kNoCallId;
  sgx::CallId gc_scan_ecall_id_ = sgx::kNoCallId;
  RmiStats stats_;
  // Untrusted proxy hash -> owning trusted isolate; N >= 2 only.
  std::unordered_map<std::int64_t, std::uint32_t> hash_owner_;
  // Untrusted proxy hash -> enclave epoch it was minted under (or
  // kFencedEpoch), filled at fence and restart time only, so the mint path
  // pays nothing while it is empty.
  std::unordered_map<std::int64_t, std::uint64_t> stale_;
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
  BatchLimits batch_limits_;
  sgx::CallId batch_ecall_id_ = sgx::kNoCallId;

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
