#include "rmi/proxy_runtime.h"

#include "sched/scheduler.h"
#include "support/error.h"

namespace msv::rmi {

using interp::ExecContext;
using model::ClassDecl;
using model::MethodDecl;
using model::MethodKind;
using rt::GcRef;
using rt::Value;

ProxyRuntime::ProxyRuntime(Env& env, sgx::TransitionBridge& bridge,
                           const std::vector<ExecContext*>& trusted,
                           ExecContext& untrusted, Config config)
    : env_(env),
      bridge_(bridge),
      config_(config),
      untrusted_(untrusted, config.hash_scheme, kUntrustedId),
      routed_(trusted.size() > 1),
      scan_period_(env.clock.seconds_to_cycles(config.gc_scan_period_seconds)) {
  MSV_CHECK_MSG(!trusted.empty(), "need at least one trusted isolate");
  for (std::size_t k = 0; k < trusted.size(); ++k) {
    MSV_CHECK_MSG(trusted[k]->isolate().trusted(),
                  "trusted context must run in an enclave-backed isolate");
    trusted_.emplace_back(*trusted[k], config.hash_scheme,
                          static_cast<std::uint32_t>(k));
    trusted_.back().next_scan = scan_period_;
  }
  MSV_CHECK_MSG(!untrusted.isolate().trusted(),
                "untrusted context must not run inside the enclave");
  untrusted_.next_scan = scan_period_;
}

const ProxyRuntime::SideState& ProxyRuntime::state(
    Side side, std::uint32_t isolate) const {
  if (side == Side::kUntrusted) return untrusted_;
  MSV_CHECK_MSG(isolate < trusted_.size(), "no such trusted isolate");
  return trusted_[isolate];
}

ProxyRuntime::SideState& ProxyRuntime::state_of(ExecContext& ctx) {
  if (&ctx == &untrusted_.ctx) return untrusted_;
  for (SideState& s : trusted_) {
    if (&ctx == &s.ctx) return s;
  }
  throw RuntimeFault("context unknown to this runtime");
}

ProxyRuntime::SideState& ProxyRuntime::state_by_id(std::uint32_t id) {
  if (id == kUntrustedId) return untrusted_;
  MSV_CHECK_MSG(id < trusted_.size(), "bad isolate id on the wire");
  return trusted_[id];
}

// ---------------------------------------------------------------------------
// Routing and fencing

ProxyRuntime::SideState& ProxyRuntime::callee_of(SideState& from,
                                                 std::int64_t self_hash,
                                                 bool is_static) {
  if (is_trusted(from)) return untrusted_;
  if (is_static) return trusted_.front();
  check_stale(self_hash);
  if (!routed_) return trusted_.front();
  const auto it = hash_owner_.find(self_hash);
  MSV_CHECK_MSG(it != hash_owner_.end(), "proxy of unknown isolate");
  return trusted_[it->second];
}

void ProxyRuntime::track_proxy(std::int64_t hash, std::uint32_t owner) {
  if (routed_) hash_owner_[hash] = owner;
  if (!stale_.empty()) stale_.erase(hash);
}

void ProxyRuntime::check_stale(std::int64_t hash) const {
  if (stale_.empty()) return;
  const auto it = stale_.find(hash);
  if (it == stale_.end()) return;
  if (it->second == kFencedEpoch) {
    throw StaleProxyError(
        "proxy fenced: its enclave is no longer the shard authority "
        "(replica promoted; rebuild the session against the new enclave)");
  }
  throw StaleProxyError(
      "proxy minted under enclave epoch " + std::to_string(it->second) +
      " invoked after restart (current epoch " +
      std::to_string(bridge_.enclave().epoch()) +
      "); its mirror died with the old enclave heap");
}

void ProxyRuntime::mark_live_proxies_stale(std::uint64_t epoch,
                                           bool overwrite) {
  const rt::WeakRefTable& weak = untrusted_.ctx.isolate().weak_refs();
  for (std::uint32_t i = 0; i < weak.size(); ++i) {
    const rt::WeakEntry& e = weak.entry(i);
    if (e.target == rt::kNullAddr) continue;
    const auto it =
        stale_.emplace(static_cast<std::int64_t>(e.payload), epoch).first;
    if (overwrite) it->second = epoch;
  }
}

void ProxyRuntime::fence_proxies() {
  // A snapshot, not a per-mint stamp: minting stays allocation-free, and
  // proxies minted afterwards are simply not in the set.
  mark_live_proxies_stale(kFencedEpoch, /*overwrite=*/true);
}

void ProxyRuntime::on_enclave_restart() {
  // The enclave's epoch already advanced; proxies stale from an earlier
  // fence or restart keep their mark.
  mark_live_proxies_stale(bridge_.enclave().epoch() - 1,
                          /*overwrite=*/false);
  for (SideState& s : trusted_) {
    s.registry.clear();
    s.proxy_by_hash.clear();
    s.ctx.isolate().weak_refs().remove_if(
        [](const rt::WeakEntry&) { return true; });
  }
  // Untrusted mirrors were pinned only for the benefit of in-enclave
  // proxies, all of which died with the heap.
  untrusted_.registry.clear();
}

// ---------------------------------------------------------------------------
// Wire helpers

RefEncoder ProxyRuntime::make_ref_encoder(SideState& s, std::uint32_t peer,
                                          std::uint32_t depth) {
  return [this, &s, peer, depth](ByteBuffer& out, const GcRef& ref) {
    const ClassDecl& cls = s.ctx.class_of(ref);
    if (cls.is_proxy()) {
      // Our proxy of an object owned by the decoder: its hash resolves in
      // the decoder's registry — if the decoder is the isolate that owns
      // the mirror.
      const std::int64_t hash = s.ctx.isolate().get_field(ref, 0).as_i64();
      if (&s == &untrusted_) {
        check_stale(hash);
        if (routed_ && hash_owner_.at(hash) != peer) {
          throw SecurityFault(
              "proxy of isolate " + std::to_string(hash_owner_.at(hash)) +
              " passed into a call on a different isolate — trusted-to-"
              "trusted proxy pairs are not supported");
        }
      }
      out.put_u8(static_cast<std::uint8_t>(WireTag::kRefOwnedByDecoder));
      out.put_i64(hash);
      return;
    }
    if (cls.annotation() != model::Annotation::kNeutral) {
      // Our concrete annotated object: register it (if new) so the decoder
      // side can call back through a materialized proxy.
      std::int64_t hash;
      if (const auto existing = s.registry.hash_for(ref)) {
        hash = *existing;
      } else {
        hash = s.hasher.next(s.ctx.isolate().heap().identity_hash(ref.address()));
        s.registry.add(hash, ref);
        ++stats_.mirrors_registered;
      }
      out.put_u8(static_cast<std::uint8_t>(WireTag::kRefOwnedByEncoder));
      out.put_i64(hash);
      out.put_string(cls.name());
      return;
    }
    // Instance of a neutral class: serialized field by field — a copy
    // "which may evolve independently" (§5.1).
    if (depth >= kMaxSerializationDepth) {
      throw RuntimeFault("neutral object graph too deep to serialize (cycle?)");
    }
    out.put_u8(static_cast<std::uint8_t>(WireTag::kNeutralObject));
    out.put_string(cls.name());
    const auto nfields = static_cast<std::uint32_t>(cls.fields().size());
    out.put_varint(nfields);
    for (std::uint32_t i = 0; i < nfields; ++i) {
      encode_value(out, s.ctx.isolate().get_field(ref, i),
                   make_ref_encoder(s, peer, depth + 1));
    }
  };
}

RefDecoder ProxyRuntime::make_ref_decoder(SideState& s, std::uint32_t peer,
                                          std::uint32_t depth) {
  return [this, &s, peer, depth](ByteReader& in, WireTag tag) -> Value {
    switch (tag) {
      case WireTag::kRefOwnedByDecoder:
        // One of our own objects coming home: resolve the mirror.
        return Value(s.registry.get(in.get_i64()));
      case WireTag::kRefOwnedByEncoder: {
        const std::int64_t hash = in.get_i64();
        const std::string cls = in.get_string();
        return Value(materialize_proxy(s, hash, cls, peer));
      }
      case WireTag::kNeutralObject: {
        if (depth >= kMaxSerializationDepth) {
          throw RuntimeFault("neutral object graph too deep to deserialize");
        }
        // The class name comes off the wire: only a neutral class may be
        // instantiated field by field, or a forged frame could hand the
        // callee an annotated object whose constructor never ran.
        const std::string name = in.get_string();
        const ClassDecl& cls = s.ctx.classes().cls(name);
        MSV_CHECK_MSG(!cls.is_proxy() &&
                          cls.annotation() == model::Annotation::kNeutral,
                      "wire neutral object of non-neutral class " + name);
        const auto nfields = static_cast<std::uint32_t>(in.get_varint());
        MSV_CHECK_MSG(nfields == cls.fields().size(),
                      "field count mismatch deserializing " + name);
        const GcRef obj =
            s.ctx.isolate().new_instance(s.ctx.class_id(name), nfields);
        for (std::uint32_t i = 0; i < nfields; ++i) {
          s.ctx.isolate().set_field(
              obj, i, decode_value(in, make_ref_decoder(s, peer, depth + 1)));
        }
        return Value(obj);
      }
      default:
        throw RuntimeFault("corrupt wire ref tag");
    }
  };
}

GcRef ProxyRuntime::materialize_proxy(SideState& s, std::int64_t hash,
                                      const std::string& class_name,
                                      std::uint32_t owner) {
  // Reuse the live proxy for this hash if there is one: each mirror must
  // have at most one proxy per isolate or mirror eviction would fire while
  // a twin proxy is still alive.
  const auto it = s.proxy_by_hash.find(hash);
  if (it != s.proxy_by_hash.end()) {
    const rt::WeakEntry& e = s.ctx.isolate().weak_refs().entry(it->second);
    if (e.target != rt::kNullAddr &&
        e.payload == static_cast<std::uint64_t>(hash)) {
      return s.ctx.isolate().make_ref(e.target);
    }
  }
  const ClassDecl& cls = s.ctx.classes().cls(class_name);
  MSV_CHECK_MSG(cls.is_proxy(), "materializing a proxy of concrete class " +
                                    class_name + " (image mix-up)");
  const GcRef proxy = s.ctx.isolate().new_instance(s.ctx.class_id(class_name),
                                                   /*field_count=*/1);
  s.ctx.isolate().set_field(proxy, 0, Value(hash));
  const std::uint32_t weak_index = s.ctx.isolate().weak_refs().add(
      proxy.address(), static_cast<std::uint64_t>(hash));
  s.proxy_by_hash[hash] = weak_index;
  if (&s == &untrusted_) track_proxy(hash, owner);
  ++stats_.proxies_materialized;
  return proxy;
}

const ProxyRuntime::RelayPlan& ProxyRuntime::plan_for(const MethodDecl& stub) {
  // Monomorphic fast case: the same stub invoked back-to-back.
  if (&stub == last_plan_stub_) return *last_plan_;
  const auto it = plans_.find(&stub);
  const RelayPlan* plan;
  if (it != plans_.end()) {
    plan = &it->second;
  } else {
    const model::ProxyStubInfo& info = stub.proxy();
    const sgx::CallId id = info.via_ecall ? bridge_.ecall_id(info.relay_name)
                                          : bridge_.ocall_id(info.relay_name);
    const std::uint32_t span_name =
        env_.telemetry.tracer().intern("rmi.invoke " + info.relay_name);
    plan = &plans_.emplace(&stub, RelayPlan{id, info.via_ecall, span_name})
                .first->second;
  }
  last_plan_stub_ = &stub;
  last_plan_ = plan;
  return *plan;
}

void ProxyRuntime::encode_call(ByteBuffer& buf, SideState& caller,
                               SideState& callee, std::int64_t self_hash,
                               const std::vector<Value>& args, bool routed) {
  if (routed) {
    buf.put_u32(callee.id);
    buf.put_u32(caller.id);
  }
  buf.put_i64(self_hash);
  buf.put_varint(args.size());
  std::uint64_t elements = 0;
  RefEncoder enc;  // built lazily, only if a non-primitive argument shows up
  bool all_primitive = true;
  for (const auto& a : args) {
    if (encode_primitive(buf, a)) {
      ++elements;  // element_count() of a primitive is 1
      continue;
    }
    all_primitive = false;
    elements += element_count(a);
    if (!enc) enc = make_ref_encoder(caller, callee.id);
    encode_value(buf, a, enc);
  }
  if (all_primitive) ++stats_.fast_path_calls;
  charge_serialize(env_, caller.ctx.isolate().domain(), elements, buf.size());
}

Value ProxyRuntime::decode_result(SideState& caller, std::uint32_t peer,
                                  const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  Value result;
  if (!decode_primitive(r, result)) {
    result = decode_value(r, make_ref_decoder(caller, peer));
  }
  charge_deserialize(env_, caller.ctx.isolate().domain(), element_count(result),
                     size);
  return result;
}

Value ProxyRuntime::relay_call(SideState& from, const RelayPlan& plan,
                               std::int64_t self_hash, bool is_static,
                               const std::vector<Value>& args) {
  SideState& to = callee_of(from, self_hash, is_static);
  ++stats_.remote_invocations;
  ArenaLease payload(arena_);
  encode_call(*payload, from, to, self_hash, args, routed_);
  ArenaLease response(arena_);
  transition(plan.id, plan.via_ecall, *payload, *response);
  return decode_result(from, to.id, response->data(), response->size());
}

void ProxyRuntime::transition(sgx::CallId id, bool via_ecall,
                              const ByteBuffer& payload, ByteBuffer& response) {
  if (!routed_) pump_gc();
  if (via_ecall) {
    bridge_.ecall(id, payload, response);
  } else {
    bridge_.ocall(id, payload, response);
  }
}

// ---------------------------------------------------------------------------
// RemoteInvoker

Value ProxyRuntime::construct_in(std::uint32_t isolate, const std::string& cls,
                                 std::vector<Value> args) {
  MSV_CHECK_MSG(isolate < trusted_.size(), "no such trusted isolate");
  const ClassDecl& proxy_cls = untrusted_.ctx.classes().cls(cls);
  MSV_CHECK_MSG(proxy_cls.is_proxy(),
                cls + " is not a proxy class in the untrusted image");
  return construct(untrusted_, trusted_[isolate], proxy_cls, args);
}

Value ProxyRuntime::construct_proxy(ExecContext& caller,
                                    const ClassDecl& proxy_cls,
                                    std::vector<Value>& args) {
  SideState& from = state_of(caller);
  return construct(from, is_trusted(from) ? untrusted_ : trusted_.front(),
                   proxy_cls, args);
}

std::int64_t ProxyRuntime::self_hash_of(ExecContext& caller,
                                        const GcRef& proxy,
                                        const ClassDecl& proxy_cls,
                                        const MethodDecl& stub) {
  if (stub.is_static()) return 0;
  MSV_CHECK_MSG(!proxy.is_null(), "instance RMI without a proxy object: " +
                                      proxy_cls.name() + "." + stub.name());
  return caller.isolate().get_field(proxy, 0).as_i64();
}

Value ProxyRuntime::construct(SideState& from, SideState& to,
                              const ClassDecl& proxy_cls,
                              std::vector<Value>& args) {
  ++stats_.transitions;
  const MethodDecl* ctor_stub = proxy_cls.find_method(model::kConstructorName);
  MSV_CHECK_MSG(ctor_stub != nullptr &&
                    ctor_stub->kind() == MethodKind::kProxyStub,
                "proxy class " + proxy_cls.name() + " has no constructor stub");
  const RelayPlan& plan = plan_for(*ctor_stub);
  // Caller-side RMI span: proxy allocation -> encode -> transition ->
  // (mirror registered).
  telemetry::SpanScope span(env_.telemetry.tracer(), telemetry::Category::kRmi,
                            plan.span_name);

  // The local proxy object: a single hash field (§5.2, Listing 2/3).
  rt::Isolate& iso = from.ctx.isolate();
  const GcRef proxy = iso.new_instance(from.ctx.class_id(proxy_cls.name()),
                                       /*field_count=*/1);
  const std::int64_t hash =
      from.hasher.next(iso.heap().identity_hash(proxy.address()));
  iso.set_field(proxy, 0, Value(hash));

  // GC helper bookkeeping: weak reference + hash (§5.5).
  const std::uint32_t weak_index =
      iso.weak_refs().add(proxy.address(), static_cast<std::uint64_t>(hash));
  from.proxy_by_hash[hash] = weak_index;
  if (&from == &untrusted_) track_proxy(hash, to.id);
  ++stats_.proxies_created;

  // Create the mirror in the opposite runtime.
  ArenaLease payload(arena_);
  encode_call(*payload, from, to, hash, args, routed_);
  ArenaLease response(arena_);
  transition(plan.id, plan.via_ecall, *payload, *response);
  return Value(proxy);
}

Value ProxyRuntime::invoke_proxy(ExecContext& caller, const GcRef& proxy,
                                 const ClassDecl& proxy_cls,
                                 const MethodDecl& stub,
                                 std::vector<Value>& args) {
  ++stats_.transitions;
  SideState& from = state_of(caller);
  MSV_CHECK_MSG(stub.kind() == MethodKind::kProxyStub, "not a proxy stub");
  const RelayPlan& plan = plan_for(stub);
  // Caller-side RMI span: covers reading the proxy's hash, marshalling,
  // the bridge transition (whose span nests under this one) and result
  // decoding.
  telemetry::SpanScope span(env_.telemetry.tracer(), telemetry::Category::kRmi,
                            plan.span_name);
  return relay_call(from, plan, self_hash_of(caller, proxy, proxy_cls, stub),
                    stub.is_static(), args);
}

// ---------------------------------------------------------------------------
// Batched RMI (caller side, DESIGN.md §13)

std::vector<ProxyRuntime::BatchOutcome> ProxyRuntime::invoke_batch(
    const std::vector<BatchCall>& calls) {
  MSV_CHECK_MSG(!calls.empty(), "empty RMI batch");
  MSV_CHECK_MSG(handlers_registered_, "invoke_batch before register_handlers");
  SideState& from = untrusted_;

  // Resolve the owning isolate and fence every proxy before any
  // transition: one stale proxy fails the batch as a unit, so the serving
  // layer's recovery ladder re-runs it against the recovered enclave
  // without ever half-executing it.
  SideState* to = nullptr;
  std::vector<std::int64_t> hashes(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const BatchCall& c = calls[i];
    MSV_CHECK_MSG(c.stub != nullptr && !c.stub->is_static(),
                  "batched calls must be instance proxy-stub invocations");
    MSV_CHECK_MSG(!c.proxy.is_null(), "batched RMI without a proxy");
    hashes[i] = from.ctx.isolate().get_field(c.proxy, 0).as_i64();
    SideState& owner = callee_of(from, hashes[i], /*is_static=*/false);
    MSV_CHECK_MSG(to == nullptr || to == &owner,
                  "one batch cannot span trusted isolates");
    to = &owner;
  }
  ++stats_.transitions;
  std::vector<BatchOutcome> out(calls.size());

  // A batch of one is the unbatched call: its own relay, route prefix,
  // span and charges, no frame. Framing engages only at two calls.
  if (calls.size() == 1) {
    const RelayPlan& plan = plan_for(*calls[0].stub);
    telemetry::SpanScope span(env_.telemetry.tracer(),
                              telemetry::Category::kRmi, plan.span_name);
    out[0].ok = true;
    out[0].value = relay_call(from, plan, hashes[0], /*is_static=*/false,
                              calls[0].args);
    return out;
  }
  ++stats_.batch_flushes;
  stats_.batched_calls += calls.size();
  stats_.remote_invocations += calls.size();

  // The frame carries the route once; entries are bare payloads.
  telemetry::SpanScope span(env_.telemetry.tracer(), telemetry::Category::kRmi,
                            env_.telemetry.names().rmi_batch);
  ArenaLease frame(arena_);
  if (routed_) {
    frame->put_u32(to->id);
    frame->put_u32(from.id);
  }
  encode_batch_header(*frame, calls.size());
  ArenaLease entry(arena_);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    entry->clear();
    encode_call(*entry, from, *to, hashes[i], calls[i].args,
                /*routed=*/false);
    encode_batch_entry(*frame, plan_for(*calls[i].stub).id, entry->data(),
                       entry->size());
  }
  ArenaLease response(arena_);
  transition(batch_ecall_id_, /*via_ecall=*/true, *frame, *response);

  const std::vector<BatchResultView> results =
      decode_batch_response(*response, calls.size(), batch_limits_);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const BatchResultView& v = results[i];
    if (v.ok) {
      out[i].ok = true;
      out[i].value = decode_result(from, to->id, v.data, v.size);
    } else {
      out[i].error.assign(reinterpret_cast<const char*>(v.data), v.size);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Relay dispatch (callee side)

ProxyRuntime::SideState& ProxyRuntime::read_route(SideState& site_callee,
                                                  ByteReader& in,
                                                  std::uint32_t& caller) {
  if (!routed_) {
    caller = is_trusted(site_callee) ? kUntrustedId : 0;
    return site_callee;
  }
  SideState& callee = state_by_id(in.get_u32());
  caller = in.get_u32();
  // A route names an isolate on the endpoint's side of the boundary and a
  // caller on the other.
  MSV_CHECK_MSG(is_trusted(callee) == is_trusted(site_callee) &&
                    is_trusted(state_by_id(caller)) != is_trusted(callee),
                "frame routed across the wrong boundary");
  return callee;
}

void ProxyRuntime::dispatch_relay(const RelaySite& site, ByteReader& in,
                                  ByteBuffer& out) {
  std::uint32_t caller;
  SideState& callee = read_route(*site.callee, in, caller);
  run_relay(site, callee, caller, in, out, /*charge_attach=*/true);
}

void ProxyRuntime::run_relay(const RelaySite& site, SideState& callee,
                             std::uint32_t caller, ByteReader& in,
                             ByteBuffer& out, bool charge_attach) {
  // Callee-side span, nested under the bridge transition span: isolate
  // attach, argument decoding, the mirrored invocation, result encoding.
  telemetry::SpanScope span(env_.telemetry.tracer(), telemetry::Category::kRmi,
                            env_.telemetry.names().rmi_dispatch);
  // Entering the callee's isolate: the relay method is a @CEntryPoint and
  // the transition must attach the calling thread to the isolate (§5.2).
  // Switchless calls are served by persistent worker threads that attach
  // once at startup (§7 / HotCalls), so they skip this cost. Batched
  // dispatch charges the attach once for the whole frame (charge_attach
  // false per entry) — the amortization the batch exists for.
  if (charge_attach && !bridge_.current_call_switchless()) {
    env_.clock.advance(env_.cost.isolate_attach_cycles(is_trusted(callee)));
  }
  const model::RelayInfo& info = site.relay->relay();

  const std::size_t payload_bytes = in.remaining();
  const std::int64_t self_hash = in.get_i64();
  std::vector<Value> args = args_take();
  args.resize(in.get_varint());
  std::uint64_t elements = 0;
  RefDecoder dec;
  for (auto& a : args) {
    if (decode_primitive(in, a)) {
      ++elements;
      continue;
    }
    if (!dec) dec = make_ref_decoder(callee, caller);
    a = decode_value(in, dec);
    elements += element_count(a);
  }
  charge_deserialize(env_, callee.ctx.isolate().domain(), elements,
                     payload_bytes);

  Value result;
  if (info.is_constructor) {
    // Instantiate the mirror and register it under the proxy's hash
    // (Listing 4: relayAccount).
    Value mirror = callee.ctx.construct(info.target_class, std::move(args));
    callee.registry.add(self_hash, mirror.as_ref());
    ++stats_.mirrors_registered;
  } else {
    const MethodDecl& target = *site.target;
    // invoke/invoke_static are resolve-then-invoke_method wrappers; with
    // the target pre-resolved the direct call charges identical cycles.
    // Only instance methods are ever quickened.
    if (site.quick.kind != interp::QuickKind::kNone) {
      // Quickened bodies cannot nest relays, so holding the registry
      // reference across the invocation is safe (see get_ref).
      result = callee.ctx.invoke_quick(*site.cls, target, site.quick,
                                       callee.registry.get_ref(self_hash),
                                       args);
    } else {
      const GcRef self =
          target.is_static() ? GcRef() : callee.registry.get(self_hash);
      result = callee.ctx.invoke_method(*site.cls, target, self, args);
    }
    args_put(std::move(args));
  }

  if (!encode_primitive(out, result)) {
    encode_value(out, result, make_ref_encoder(callee, caller));
  }
  charge_serialize(env_, callee.ctx.isolate().domain(), element_count(result),
                   out.size());
}

void ProxyRuntime::dispatch_batch(ByteReader& in, ByteBuffer& out) {
  telemetry::SpanScope span(env_.telemetry.tracer(), telemetry::Category::kRmi,
                            env_.telemetry.names().rmi_batch);
  std::uint32_t caller;
  SideState& callee = read_route(trusted_.front(), in, caller);
  // One isolate attach for the whole frame; each packed dispatch then
  // runs with charge_attach=false. This is the batched counterpart of the
  // per-call attach in run_relay.
  if (!bridge_.current_call_switchless()) {
    env_.clock.advance(env_.cost.isolate_attach_cycles(is_trusted(callee)));
  }
  const std::vector<BatchEntryView> entries =
      decode_batch_request(in.raw() + in.position(), in.remaining(),
                           batch_limits_);
  in.seek(in.position() + in.remaining());

  encode_batch_header(out, entries.size());
  ArenaLease result(arena_);
  for (const BatchEntryView& e : entries) {
    const auto it = sites_by_id_.find(static_cast<sgx::CallId>(e.call_id));
    if (it == sites_by_id_.end() ||
        is_trusted(*it->second->callee) != is_trusted(callee)) {
      throw BatchCodecError("batch entry routes to unknown or wrong-side "
                            "call id " +
                            std::to_string(e.call_id));
    }
    const RelaySite* site = it->second;
    result->clear();
    ByteReader er(e.data, e.size);
    bool ok = true;
    std::string err;
    try {
      run_relay(*site, callee, caller, er, *result, /*charge_attach=*/false);
    } catch (const sched::TaskCancelled&) {
      throw;
    } catch (const Error& f) {
      // Per-entry application fault: report it in-band so the rest of the
      // batch still executes; the caller fails just that call.
      ok = false;
      err = f.what();
    }
    if (ok) {
      encode_batch_result(out, true, result->data(), result->size());
    } else {
      encode_batch_result(
          out, false, reinterpret_cast<const std::uint8_t*>(err.data()),
          err.size());
    }
  }
}

void ProxyRuntime::register_handlers() {
  MSV_CHECK_MSG(!handlers_registered_, "handlers registered twice");
  handlers_registered_ = true;

  auto register_side = [this](SideState& callee) {
    const bool callee_is_trusted = is_trusted(callee);
    // ClassDecls and MethodDecls live in deques: the captured references
    // stay valid for the runtime's lifetime.
    for (const auto& cls : callee.ctx.classes().classes()) {
      for (const auto& m : cls.methods()) {
        if (m.kind() != MethodKind::kRelay) continue;
        // Pre-resolve the relay target once; per-call work is pure
        // dispatch.
        const MethodDecl* target =
            m.relay().is_constructor ? nullptr
                                     : cls.find_method(m.relay().target_method);
        MSV_CHECK_MSG(m.relay().is_constructor || target != nullptr,
                      "relay target " + cls.name() + "." +
                          m.relay().target_method + " missing");
        // Classify the target for quickening once, here; per-call dispatch
        // then skips the classifier cache lookup entirely.
        interp::QuickInfo quick{};
        if (target != nullptr && target->kind() == MethodKind::kIr) {
          quick = callee.ctx.quick_info(*target);
        }
        // One-pointer capture: see RelaySite.
        RelaySite& site = relay_sites_.emplace_back(
            RelaySite{this, &callee, &cls, &m, target, quick});
        auto handler = [site = &site](ByteReader& in, ByteBuffer& out) {
          site->rt->dispatch_relay(*site, in, out);
        };
        const std::string& name = m.relay().transition;
        const sgx::CallId id =
            callee_is_trusted
                ? bridge_.register_ecall_raw(name, std::move(handler))
                : bridge_.register_ocall_raw(name, std::move(handler));
        // The batch dispatcher routes packed entries by interned CallId.
        sites_by_id_[id] = &site;
      }
    }
  };
  // The trusted image is shared by every trusted isolate: isolate 0's
  // classes register the relays of all of them.
  register_side(trusted_.front());
  register_side(untrusted_);

  // Batch endpoint: one ecall carries a whole frame of packed relay
  // invocations into a trusted isolate (DESIGN.md §13).
  batch_ecall_id_ = bridge_.register_ecall_raw(
      "ecall_rmi_batch",
      [this](ByteReader& in, ByteBuffer& out) { dispatch_batch(in, out); });

  // GC-helper transitions (§5.5); the interned IDs are kept for the
  // eviction/scan dispatch sites. With N >= 2, ecall frames open with the
  // trusted isolate they address.
  auto trusted_target = [this](ByteReader& in) -> SideState& {
    if (!routed_) return trusted_.front();
    SideState& s = state_by_id(in.get_u32());
    MSV_CHECK_MSG(is_trusted(s), "GC frame addressed to the untrusted side");
    return s;
  };
  const sgx::EdlInterface& gc = gc_edl_interface();
  gc_evict_ecall_id_ = bridge_.register_ecall_raw(
      gc.trusted[0].name, [trusted_target](ByteReader& in, ByteBuffer&) {
        SideState& s = trusted_target(in);
        const std::uint64_t n = in.get_varint();
        for (std::uint64_t i = 0; i < n; ++i) s.registry.remove(in.get_i64());
      });
  gc_evict_ocall_id_ = bridge_.register_ocall_raw(
      gc.untrusted[0].name, [this](ByteReader& in, ByteBuffer&) {
        const std::uint64_t n = in.get_varint();
        for (std::uint64_t i = 0; i < n; ++i)
          untrusted_.registry.remove(in.get_i64());
      });
  // An in-enclave helper's scan-and-evict, entered when the untrusted
  // pump observes cleared entries in that isolate's weak list.
  gc_scan_ecall_id_ = bridge_.register_ecall_raw(
      gc.trusted[1].name,
      [this, trusted_target](ByteReader& in, ByteBuffer&) {
        SideState& s = trusted_target(in);
        evict_remote(s, collect_dead_proxies(s));
      });
}

const sgx::EdlInterface& ProxyRuntime::gc_edl_interface() {
  static const sgx::EdlInterface kGc = [] {
    const std::vector<sgx::EdlParam> hashes = {
        {"const int64_t*", "hashes", sgx::EdlDirection::kIn, "n"},
        {"size_t", "n", sgx::EdlDirection::kIn, ""}};
    sgx::EdlInterface gc;
    gc.trusted = {{"ecall_gc_evict_mirrors", "void", hashes},
                  {"ecall_gc_scan_trusted", "void", {}}};
    gc.untrusted = {{"ocall_gc_evict_mirrors", "void", hashes}};
    return gc;
  }();
  return kGc;
}

// ---------------------------------------------------------------------------
// GC helpers

std::vector<std::int64_t> ProxyRuntime::collect_dead_proxies(SideState& s) {
  rt::WeakRefTable& weak = s.ctx.isolate().weak_refs();
  env_.clock.advance(weak.size() * env_.cost.weakref_scan_entry_cycles);

  std::vector<std::int64_t> dead;
  weak.remove_if([&](const rt::WeakEntry& e) {
    if (e.was_set && e.target == rt::kNullAddr) {
      dead.push_back(static_cast<std::int64_t>(e.payload));
      return true;
    }
    return false;
  });
  // The table was compacted: weak indices shifted, rebuild the cache.
  s.proxy_by_hash.clear();
  for (std::uint32_t i = 0; i < weak.size(); ++i) {
    const rt::WeakEntry& e = weak.entry(i);
    if (e.target != rt::kNullAddr) {
      s.proxy_by_hash[static_cast<std::int64_t>(e.payload)] = i;
    }
  }
  ++s.gc_stats.scans;
  s.gc_stats.proxies_collected += dead.size();
  return dead;
}

void ProxyRuntime::evict_remote(SideState& local,
                                const std::vector<std::int64_t>& dead) {
  if (dead.empty()) return;
  if (is_trusted(local)) {
    ++local.gc_stats.eviction_calls;
    send_eviction(untrusted_, dead);
    return;
  }
  if (!stale_.empty()) {
    for (const auto h : dead) stale_.erase(h);
  }
  if (!routed_) {
    ++local.gc_stats.eviction_calls;
    send_eviction(trusted_.front(), dead);
    return;
  }
  // Each mirror lives in the isolate that owns its proxy.
  std::vector<std::vector<std::int64_t>> by_owner(trusted_.size());
  for (const auto h : dead) {
    // A hash can die twice (its proxy was re-materialized before a scan);
    // its first occurrence already routed it.
    const auto it = hash_owner_.find(h);
    if (it == hash_owner_.end()) continue;
    by_owner[it->second].push_back(h);
    hash_owner_.erase(it);
  }
  for (std::size_t k = 0; k < by_owner.size(); ++k) {
    if (by_owner[k].empty()) continue;
    ++local.gc_stats.eviction_calls;
    send_eviction(trusted_[k], by_owner[k]);
  }
}

void ProxyRuntime::send_eviction(SideState& mirrors,
                                 const std::vector<std::int64_t>& hashes) {
  ByteBuffer payload;
  if (routed_ && is_trusted(mirrors)) payload.put_u32(mirrors.id);
  payload.put_varint(hashes.size());
  for (const auto h : hashes) payload.put_i64(h);
  ByteBuffer response;
  if (is_trusted(mirrors)) {
    bridge_.ecall(gc_evict_ecall_id_, payload, response);
  } else {
    bridge_.ocall(gc_evict_ocall_id_, payload, response);
  }
}

void ProxyRuntime::pump_gc() {
  // Only at top level: a helper thread cannot run "inside" the call it is
  // relaying, and the eviction transitions need the untrusted side.
  if (pumping_ || bridge_.side() != Side::kUntrusted) return;
  pumping_ = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{pumping_};
  const Cycles now = env_.clock.now();

  if (untrusted_.next_scan <= now) {
    untrusted_.next_scan = now + scan_period_;
    evict_remote(untrusted_, collect_dead_proxies(untrusted_));
  }
  for (SideState& s : trusted_) {
    if (s.next_scan > now) continue;
    s.next_scan = now + scan_period_;
    // The in-enclave helper scans its own list without leaving the
    // enclave; it only transitions (ocall) when there is something to
    // evict. We peek first and enter the enclave only when needed.
    const rt::WeakRefTable& weak = s.ctx.isolate().weak_refs();
    if (weak.cleared_count() > 0) {
      ByteBuffer request, response;
      if (routed_) request.put_u32(s.id);
      bridge_.ecall(gc_scan_ecall_id_, request, response);
    } else {
      // Idle scan: charge the in-enclave scan work.
      env_.clock.advance(weak.size() * env_.cost.weakref_scan_entry_cycles);
      ++s.gc_stats.scans;
    }
  }
}

void ProxyRuntime::force_gc_scan() {
  untrusted_.next_scan = 0;
  for (SideState& s : trusted_) s.next_scan = 0;
  pump_gc();
}

const MirrorProxyRegistry& ProxyRuntime::registry(Side side,
                                                  std::uint32_t isolate) const {
  return state(side, isolate).registry;
}

std::size_t ProxyRuntime::live_proxy_count(Side side,
                                           std::uint32_t isolate) const {
  const rt::WeakRefTable& weak = state(side, isolate).ctx.isolate().weak_refs();
  return weak.size() - weak.cleared_count();
}

const GcHelperStats& ProxyRuntime::gc_stats(Side side,
                                            std::uint32_t isolate) const {
  return state(side, isolate).gc_stats;
}

}  // namespace msv::rmi
