// The execution engine of one runtime (one native image in one isolate).
//
// An ExecContext binds together the pruned class set of a native image, the
// isolate it executes in, the I/O service visible on that side (HostIo or
// the enclave shim) and the remote invoker used when execution crosses the
// partition boundary. It interprets bytecode bodies, dispatches native
// bodies, and constructs objects — routing proxy classes to the RMI layer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "interp/intrinsics.h"
#include "interp/remote.h"
#include "model/app_model.h"
#include "runtime/isolate.h"
#include "shim/io_service.h"
#include "sim/env.h"

namespace msv::interp {

// Quickening classes of a kIr body (see ExecContext::quick_info).
enum class QuickKind : std::uint8_t { kNone, kSetter, kGetter };
struct QuickInfo {
  QuickKind kind = QuickKind::kNone;
  std::uint32_t field = 0;
};

// The lookup tables of one native image: the class index (a class id is
// the class's position in the image's class set; ids end up in object
// headers so class_of() can resolve a receiver) and the method-resolution
// and quickening caches, filled on first use. Every context running the
// image shares one instance — the trusted isolates of a multi-isolate
// enclave all run the trusted image — so the first call into a second
// isolate finds them warm. The image's class set must outlive the tables;
// it is frozen after load, so the caches never go stale.
class ImageTables {
 public:
  explicit ImageTables(const model::AppModel& classes);

  ImageTables(const ImageTables&) = delete;
  ImageTables& operator=(const ImageTables&) = delete;

  const model::AppModel& classes() const { return classes_; }
  // Null when `name` is not part of the image.
  const std::uint32_t* find_class_id(std::string_view name) const;
  const model::ClassDecl& class_by_id(std::uint32_t id) const;
  // ClassDecl::find_method is a linear string scan, too slow for the
  // invoke/RMI hot path; the per-class index is built on first use.
  // Returns nullptr when absent.
  const model::MethodDecl* resolve_method(const model::ClassDecl& cls,
                                          std::string_view method) const;
  // Classifies a kIr method, cached per decl.
  QuickInfo quick_info(const model::MethodDecl& method) const;

 private:
  const model::AppModel& classes_;
  // Keys view the ClassDecl / MethodDecl names, which live in deques.
  std::unordered_map<std::string_view, std::uint32_t> class_ids_;
  std::vector<const model::ClassDecl*> class_table_;
  using MethodIndex =
      std::unordered_map<std::string_view, const model::MethodDecl*>;
  mutable std::unordered_map<const model::ClassDecl*, MethodIndex>
      method_index_;
  mutable std::unordered_map<const model::MethodDecl*, QuickInfo> quick_;
};

struct ExecStats {
  std::uint64_t method_calls = 0;
  std::uint64_t ir_ops = 0;
  std::uint64_t objects_constructed = 0;
  std::uint64_t proxy_constructions = 0;
  std::uint64_t proxy_invocations = 0;
};

class ExecContext {
 public:
  // `classes` must outlive the context (it is the image's class set).
  ExecContext(Env& env, rt::Isolate& isolate, const model::AppModel& classes,
              shim::IoService& io, IntrinsicTable intrinsics);
  // The same over tables shared with the image's other contexts; `tables`
  // must outlive the context.
  ExecContext(Env& env, rt::Isolate& isolate, const ImageTables& tables,
              shim::IoService& io, IntrinsicTable intrinsics);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // Wires the RMI layer in; may stay null for unpartitioned images.
  void set_remote(RemoteInvoker* remote) { remote_ = remote; }

  // Verify gate (AppConfig::verify_bytecode): refuse to execute any kIr
  // body that fails analysis::verify, raising TrapError at first dispatch
  // instead of trapping mid-method. Verdicts are cached per MethodDecl
  // (the image is frozen after load).
  void set_verify_bytecode(bool v) { verify_bytecode_ = v; }
  bool verify_bytecode() const { return verify_bytecode_; }

  // ---- Class table ----
  std::uint32_t class_id(const std::string& name) const;
  const model::ClassDecl& class_by_id(std::uint32_t id) const;
  const model::ClassDecl& class_of(const rt::GcRef& obj) const;

  // Cached method resolution (ImageTables::resolve_method). Returns
  // nullptr when absent.
  const model::MethodDecl* resolve_method(const model::ClassDecl& cls,
                                          const std::string& method) const {
    return tables_.resolve_method(cls, method);
  }

  // ---- Execution ----
  // Allocates an instance of `cls` and runs its constructor (or builds a
  // proxy + remote mirror if `cls` is a proxy class). Returns the ref.
  rt::Value construct(const std::string& cls, std::vector<rt::Value> args);
  rt::Value invoke(const rt::GcRef& receiver, const std::string& method,
                   std::vector<rt::Value> args);
  rt::Value invoke_static(const std::string& cls, const std::string& method,
                          std::vector<rt::Value> args);
  // Runs the image's main entry point.
  rt::Value run_main(std::vector<rt::Value> args = {});

  // Dispatches an already-resolved method (used by the RMI relay path).
  rt::Value invoke_method(const model::ClassDecl& cls,
                          const model::MethodDecl& method,
                          const rt::GcRef& self, std::vector<rt::Value>& args);

  // Quickening: trivial setter/getter bodies — the dominant RMI relay
  // targets (§6.3 measures "setter methods updating an object field") —
  // execute directly instead of through the generic IR loop.
  // Op counts and cycle charges replicate exec_ir exactly.
  // Classifies a kIr method (cached per decl; the image is frozen after
  // load, so registration-time classification is sound).
  QuickInfo quick_info(const model::MethodDecl& method) const {
    return tables_.quick_info(method);
  }

  // Invokes a pre-classified quickened method (`q.kind != kNone`, `self`
  // non-null). Charges are identical to invoke_method on the same decl;
  // the only difference is that the per-call classifier lookup is hoisted
  // to the caller (the RMI relay resolves it once at registration).
  rt::Value invoke_quick(const model::ClassDecl& cls,
                         const model::MethodDecl& method, const QuickInfo& q,
                         const rt::GcRef& self, std::vector<rt::Value>& args);

  // ---- Services for native method bodies ----
  Env& env() { return env_; }
  rt::Isolate& isolate() { return isolate_; }
  shim::IoService& io() { return io_; }
  const model::AppModel& classes() const { return tables_.classes(); }
  const ExecStats& stats() const { return stats_; }

  // Charges pure CPU work.
  void charge(Cycles cycles) { env_.clock.advance(cycles); }
  // Charges memory traffic through the isolate's domain (MEE-aware).
  void charge_traffic(std::uint64_t bytes) {
    isolate_.domain().charge_traffic(bytes);
  }

  // ---- Tracing agent (§2.2) ----
  // GraalVM ships a tracing agent that records dynamically accessed
  // program elements during a test run and emits the reflection
  // configuration the closed-world analysis needs. This is that agent:
  // enable it on an unpartitioned/native dry run, then feed
  // traced_methods() into AppConfig::extra_entry_points (or persist
  // trace_to_json(), the format the real agent writes).
  void enable_tracing() { tracing_ = true; }
  const std::set<std::pair<std::string, std::string>>& traced_methods()
      const {
    return traced_;
  }
  std::string trace_to_json() const;

  // Native call-edge tracing: records (native caller -> callee) pairs for
  // every invoke/construct a *native body* performs through this context,
  // so msvlint's MSV004 can diff observed edges against declared_callees()
  // hints. Only the immediate native caller records an edge — bytecode
  // frames between a native body and a deeper call push a sentinel.
  using MethodRef = std::pair<std::string, std::string>;
  void enable_native_edge_tracing() { edge_tracing_ = true; }
  const std::set<std::pair<MethodRef, MethodRef>>& native_edges() const {
    return native_edges_;
  }

  // Call-count profiling: records (caller -> callee) invocation counts for
  // every dispatch through this context, including the quickened fast
  // path. The caller is the innermost enclosing method frame; entry
  // invocations (run_main, harness-driven calls) are attributed to
  // ("<entry>", ""). This is the telemetry feeding the partition
  // optimizer's crossing-cost edges (analysis/optimize.h): a profiled dry
  // run on the unpartitioned app stands in for the recorded workload.
  void enable_call_profiling() { call_profiling_ = true; }
  const std::map<std::pair<MethodRef, MethodRef>, std::uint64_t>&
  call_counts() const {
    return call_counts_;
  }

 private:
  rt::Value exec_ir(const model::ClassDecl& cls,
                    const model::MethodDecl& method, rt::GcRef self,
                    std::vector<rt::Value>& args);

  // Verify-gate helper: throws TrapError when the body fails verification.
  void ensure_verified(const model::ClassDecl& cls,
                       const model::MethodDecl& method);

  // Call profiling: counts one (innermost frame -> cls.method) call.
  void count_call(const model::ClassDecl& cls, const model::MethodDecl& method);

  // Frame-vector pool: locals and operand stacks are acquired here instead
  // of freshly allocated, so steady-state interpretation performs no heap
  // allocation per call (nested calls pull additional vectors).
  std::vector<rt::Value> frame_take() {
    if (frame_pool_.empty()) return {};
    std::vector<rt::Value> v = std::move(frame_pool_.back());
    frame_pool_.pop_back();
    return v;
  }
  void frame_put(std::vector<rt::Value>&& v) {
    // Clear before pooling: a parked Value would keep its GcRef rooted and
    // its referent alive across collections.
    v.clear();
    if (frame_pool_.size() < kMaxPooledFrames) {
      frame_pool_.push_back(std::move(v));
    }
  }
  static constexpr std::size_t kMaxPooledFrames = 64;

  Env& env_;
  rt::Isolate& isolate_;
  std::unique_ptr<const ImageTables> owned_tables_;  // null when shared
  const ImageTables& tables_;
  shim::IoService& io_;
  IntrinsicTable intrinsics_;
  RemoteInvoker* remote_ = nullptr;
  std::vector<std::vector<rt::Value>> frame_pool_;
  ExecStats stats_;
  bool tracing_ = false;
  std::set<std::pair<std::string, std::string>> traced_;
  bool verify_bytecode_ = false;
  // Verify-gate verdicts; value = first verification error ("" = clean).
  std::unordered_map<const model::MethodDecl*, std::string> verified_;
  bool edge_tracing_ = false;
  std::set<std::pair<MethodRef, MethodRef>> native_edges_;
  bool call_profiling_ = false;
  std::map<std::pair<MethodRef, MethodRef>, std::uint64_t> call_counts_;
  // One frame per invoke_method activation while edge tracing or call
  // profiling is on: the observers' shared view of the calling method.
  struct CallFrame {
    const model::ClassDecl* cls;
    const model::MethodDecl* method;
  };
  std::vector<CallFrame> call_stack_;
};

}  // namespace msv::interp
