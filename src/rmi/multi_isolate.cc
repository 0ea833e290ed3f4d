#include "rmi/multi_isolate.h"

#include "sched/scheduler.h"
#include "support/error.h"
#include "transform/transformer.h"

namespace msv::rmi {

using interp::ExecContext;
using model::ClassDecl;
using model::MethodDecl;
using model::MethodKind;
using rt::GcRef;
using rt::Value;

MultiIsolateRuntime::MultiIsolateRuntime(Env& env,
                                         sgx::TransitionBridge& bridge,
                                         std::vector<ExecContext*> trusted,
                                         ExecContext& untrusted, Config config)
    : env_(env), bridge_(bridge), config_(config) {
  MSV_CHECK_MSG(!trusted.empty(), "need at least one trusted isolate");
  for (std::size_t k = 0; k < trusted.size(); ++k) {
    MSV_CHECK_MSG(trusted[k]->isolate().trusted(),
                  "trusted context outside the enclave");
    trusted_.push_back(std::make_unique<SideState>(
        *trusted[k], config.hash_scheme,
        "trusted-isolate-" + std::to_string(k)));
  }
  MSV_CHECK_MSG(!untrusted.isolate().trusted(),
                "untrusted context inside the enclave");
  untrusted_ = std::make_unique<SideState>(untrusted, config.hash_scheme,
                                           "untrusted-isolate");
}

MultiIsolateRuntime::SideState& MultiIsolateRuntime::state_of(
    ExecContext& ctx) {
  if (&ctx == &untrusted_->ctx) return *untrusted_;
  for (auto& s : trusted_) {
    if (&ctx == &s->ctx) return *s;
  }
  throw RuntimeFault("context unknown to this multi-isolate runtime");
}

MultiIsolateRuntime::SideState& MultiIsolateRuntime::state_by_id(
    std::uint32_t id) {
  if (id == kUntrustedId) return *untrusted_;
  MSV_CHECK_MSG(id < trusted_.size(), "bad isolate id on the wire");
  return *trusted_[id];
}

std::uint32_t MultiIsolateRuntime::id_of(const SideState& s) const {
  if (&s == untrusted_.get()) return kUntrustedId;
  for (std::size_t k = 0; k < trusted_.size(); ++k) {
    if (&s == trusted_[k].get()) return static_cast<std::uint32_t>(k);
  }
  throw RuntimeFault("unknown side state");
}

RefEncoder MultiIsolateRuntime::make_ref_encoder(SideState& s,
                                                 std::uint32_t peer_id,
                                                 std::uint32_t depth) {
  return [this, &s, peer_id, depth](ByteBuffer& out, const GcRef& ref) {
    const ClassDecl& cls = s.ctx.class_of(ref);
    if (cls.is_proxy()) {
      const std::int64_t hash = s.ctx.isolate().get_field(ref, 0).as_i64();
      if (&s == untrusted_.get()) check_proxy_epoch(hash);
      const std::uint32_t owner =
          (&s == untrusted_.get()) ? hash_owner_.at(hash) : kUntrustedId;
      if (owner != peer_id) {
        throw SecurityFault(
            "proxy of isolate " + std::to_string(owner) +
            " passed into a call on a different isolate — trusted-to-"
            "trusted proxy pairs are not supported");
      }
      out.put_u8(static_cast<std::uint8_t>(WireTag::kRefOwnedByDecoder));
      out.put_i64(hash);
      return;
    }
    if (cls.annotation() != model::Annotation::kNeutral) {
      std::int64_t hash;
      if (const auto existing = s.registry.hash_for(ref)) {
        hash = *existing;
      } else {
        hash =
            s.hasher.next(s.ctx.isolate().heap().identity_hash(ref.address()));
        s.registry.add(hash, ref);
      }
      out.put_u8(static_cast<std::uint8_t>(WireTag::kRefOwnedByEncoder));
      out.put_i64(hash);
      out.put_string(cls.name());
      return;
    }
    // Neutral instance: copy the fields.
    if (depth >= kMaxSerializationDepth) {
      throw RuntimeFault("neutral object graph too deep to serialize (cycle?)");
    }
    out.put_u8(static_cast<std::uint8_t>(WireTag::kNeutralObject));
    out.put_string(cls.name());
    const auto nfields = static_cast<std::uint32_t>(cls.fields().size());
    out.put_varint(nfields);
    const RefEncoder fields = make_ref_encoder(s, peer_id, depth + 1);
    for (std::uint32_t i = 0; i < nfields; ++i) {
      encode_value(out, s.ctx.isolate().get_field(ref, i), fields);
    }
  };
}

RefDecoder MultiIsolateRuntime::make_ref_decoder(SideState& s,
                                                 std::uint32_t peer_id,
                                                 std::uint32_t depth) {
  return [this, &s, peer_id, depth](ByteReader& in, WireTag tag) -> Value {
    switch (tag) {
      case WireTag::kRefOwnedByDecoder:
        return Value(s.registry.get(in.get_i64()));
      case WireTag::kRefOwnedByEncoder: {
        const std::int64_t hash = in.get_i64();
        const std::string cls = in.get_string();
        return Value(materialize_proxy(s, hash, cls, peer_id));
      }
      case WireTag::kNeutralObject: {
        if (depth >= kMaxSerializationDepth) {
          throw RuntimeFault("neutral object graph too deep to deserialize");
        }
        const std::string name = in.get_string();
        const ClassDecl& cls = s.ctx.classes().cls(name);
        // The class name comes off the wire: only a neutral class may be
        // instantiated field by field, or a forged frame could hand the
        // callee an annotated object whose constructor never ran.
        MSV_CHECK_MSG(!cls.is_proxy() &&
                          cls.annotation() == model::Annotation::kNeutral,
                      "wire neutral object of non-neutral class " + name);
        const auto nfields = static_cast<std::uint32_t>(in.get_varint());
        MSV_CHECK_MSG(nfields == cls.fields().size(),
                      "field count mismatch deserializing " + name);
        const GcRef obj =
            s.ctx.isolate().new_instance(s.ctx.class_id(name), nfields);
        const RefDecoder fields = make_ref_decoder(s, peer_id, depth + 1);
        for (std::uint32_t i = 0; i < nfields; ++i) {
          s.ctx.isolate().set_field(obj, i, decode_value(in, fields));
        }
        return Value(obj);
      }
      default:
        throw RuntimeFault("corrupt wire ref tag");
    }
  };
}

GcRef MultiIsolateRuntime::materialize_proxy(SideState& s, std::int64_t hash,
                                             const std::string& class_name,
                                             std::uint32_t owner_id) {
  const auto it = s.proxy_by_hash.find(hash);
  if (it != s.proxy_by_hash.end()) {
    const rt::WeakEntry& e = s.ctx.isolate().weak_refs().entry(it->second);
    if (e.target != rt::kNullAddr &&
        e.payload == static_cast<std::uint64_t>(hash)) {
      return s.ctx.isolate().make_ref(e.target);
    }
  }
  const ClassDecl& cls = s.ctx.classes().cls(class_name);
  MSV_CHECK_MSG(cls.is_proxy(), "materializing a non-proxy class");
  const GcRef proxy =
      s.ctx.isolate().new_instance(s.ctx.class_id(class_name), 1);
  s.ctx.isolate().set_field(proxy, 0, Value(hash));
  const std::uint32_t weak_index = s.ctx.isolate().weak_refs().add(
      proxy.address(), static_cast<std::uint64_t>(hash));
  s.proxy_by_hash[hash] = weak_index;
  if (&s == untrusted_.get()) {
    hash_owner_[hash] = owner_id;
    hash_epoch_[hash] = bridge_.enclave().epoch();
  }
  return proxy;
}

void MultiIsolateRuntime::check_proxy_epoch(std::int64_t hash) {
  const auto it = hash_epoch_.find(hash);
  if (it == hash_epoch_.end()) return;
  if (it->second == kFencedEpoch) {
    throw StaleProxyError(
        "proxy fenced: its enclave is no longer the shard authority "
        "(replica promoted; rebuild the session against the new enclave)");
  }
  const std::uint64_t current = bridge_.enclave().epoch();
  if (it->second != current) {
    throw StaleProxyError(
        "proxy minted under enclave epoch " + std::to_string(it->second) +
        " invoked after restart (current epoch " + std::to_string(current) +
        "); its mirror died with the old enclave heap");
  }
}

void MultiIsolateRuntime::fence_proxies() {
  // Epoch 0 is unused (Enclave epochs start at 1), so it doubles as the
  // "fenced" sentinel: every existing mint becomes permanently stale, and
  // future mints — stamped with the live epoch — are unaffected. O(minted
  // proxies) here, zero extra cost on the invoke hot path.
  for (auto& [hash, epoch] : hash_epoch_) epoch = kFencedEpoch;
}

void MultiIsolateRuntime::on_enclave_restart() {
  for (auto& s : trusted_) {
    s->registry.clear();
    s->proxy_by_hash.clear();
    s->ctx.isolate().weak_refs().remove_if(
        [](const rt::WeakEntry&) { return true; });
  }
  // Untrusted mirrors were pinned only for the benefit of in-enclave
  // proxies, all of which died with the heap.
  untrusted_->registry.clear();
}

rt::Value MultiIsolateRuntime::construct_in(std::uint32_t isolate_index,
                                            const std::string& cls,
                                            std::vector<Value> args) {
  MSV_CHECK_MSG(isolate_index < trusted_.size(), "no such trusted isolate");
  const ClassDecl& proxy_cls = untrusted_->ctx.classes().cls(cls);
  MSV_CHECK_MSG(proxy_cls.is_proxy(),
                cls + " is not a proxy class in the untrusted image");
  return do_construct(*untrusted_, isolate_index, proxy_cls, args);
}

rt::Value MultiIsolateRuntime::construct_proxy(ExecContext& caller,
                                               const ClassDecl& proxy_cls,
                                               std::vector<Value>& args) {
  SideState& from = state_of(caller);
  // Plain `new` on the untrusted side targets isolate 0; trusted isolates
  // target the single untrusted runtime.
  const std::uint32_t target =
      (&from == untrusted_.get()) ? 0 : kUntrustedId;
  return do_construct(from, target, proxy_cls, args);
}

rt::Value MultiIsolateRuntime::do_construct(SideState& from,
                                            std::uint32_t target_id,
                                            const ClassDecl& proxy_cls,
                                            std::vector<Value>& args) {
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kRmi,
                            env_.telemetry.names().rmi_construct);
  const MethodDecl* ctor_stub = proxy_cls.find_method(model::kConstructorName);
  MSV_CHECK_MSG(ctor_stub != nullptr &&
                    ctor_stub->kind() == MethodKind::kProxyStub,
                "proxy class without a constructor stub");

  const GcRef proxy = from.ctx.isolate().new_instance(
      from.ctx.class_id(proxy_cls.name()), /*field_count=*/1);
  const std::int64_t hash = from.hasher.next(
      from.ctx.isolate().heap().identity_hash(proxy.address()));
  from.ctx.isolate().set_field(proxy, 0, Value(hash));
  const std::uint32_t weak_index = from.ctx.isolate().weak_refs().add(
      proxy.address(), static_cast<std::uint64_t>(hash));
  from.proxy_by_hash[hash] = weak_index;
  if (&from == untrusted_.get()) {
    hash_owner_[hash] = target_id;
    hash_epoch_[hash] = bridge_.enclave().epoch();
  }

  ByteBuffer payload;
  payload.put_u32(target_id);
  payload.put_u32(id_of(from));
  payload.put_i64(hash);
  payload.put_varint(args.size());
  std::uint64_t elements = 0;
  const RefEncoder encoder = make_ref_encoder(from, target_id);
  for (auto& a : args) {
    elements += element_count(a);
    encode_value(payload, a, encoder);
  }
  charge_serialize(env_, from.ctx.isolate().domain(), elements,
                   payload.size());

  const sgx::CallId relay = relay_id(*ctor_stub);
  ByteBuffer response;
  if (target_id == kUntrustedId) {
    bridge_.ocall(relay, payload, response);
  } else {
    bridge_.ecall(relay, payload, response);
  }
  return Value(proxy);
}

rt::Value MultiIsolateRuntime::invoke_proxy(ExecContext& caller,
                                            const GcRef& proxy,
                                            const ClassDecl& proxy_cls,
                                            const MethodDecl& stub,
                                            std::vector<Value>& args) {
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kRmi,
                            env_.telemetry.names().rmi_invoke);
  SideState& from = state_of(caller);
  std::int64_t self_hash = 0;
  std::uint32_t target_id = kUntrustedId;
  if (!stub.is_static()) {
    MSV_CHECK_MSG(!proxy.is_null(), "instance RMI without a proxy");
    self_hash = caller.isolate().get_field(proxy, 0).as_i64();
  }
  if (&from == untrusted_.get()) {
    if (!stub.is_static()) check_proxy_epoch(self_hash);
    target_id = stub.is_static() ? 0 : hash_owner_.at(self_hash);
  }
  (void)proxy_cls;

  ByteBuffer payload;
  payload.put_u32(target_id);
  payload.put_u32(id_of(from));
  payload.put_i64(self_hash);
  payload.put_varint(args.size());
  std::uint64_t elements = 0;
  const RefEncoder encoder = make_ref_encoder(from, target_id);
  for (auto& a : args) {
    elements += element_count(a);
    encode_value(payload, a, encoder);
  }
  charge_serialize(env_, from.ctx.isolate().domain(), elements,
                   payload.size());

  const sgx::CallId relay = relay_id(stub);
  ByteBuffer response;
  if (target_id == kUntrustedId) {
    bridge_.ocall(relay, payload, response);
  } else {
    bridge_.ecall(relay, payload, response);
  }
  ByteReader r(response);
  Value result = decode_value(r, make_ref_decoder(from, target_id));
  charge_deserialize(env_, caller.isolate().domain(), element_count(result),
                     response.size());
  return result;
}

ByteBuffer MultiIsolateRuntime::dispatch_one(SideState& callee,
                                             std::uint32_t caller_id,
                                             const std::string& cls_name,
                                             const std::string& relay_name,
                                             ByteReader& in,
                                             bool charge_attach) {
  telemetry::SpanScope span(env_.telemetry.tracer(),
                            telemetry::Category::kRmi,
                            env_.telemetry.names().rmi_dispatch);
  if (charge_attach) {
    env_.clock.advance(callee.ctx.isolate().trusted()
                           ? env_.cost.isolate_attach_trusted_cycles
                           : env_.cost.isolate_attach_untrusted_cycles);
  }

  const ClassDecl& cls = callee.ctx.classes().cls(cls_name);
  const MethodDecl* relay = cls.find_method(relay_name);
  MSV_CHECK_MSG(relay != nullptr && relay->kind() == MethodKind::kRelay,
                "relay method missing: " + relay_name);
  const model::RelayInfo& info = relay->relay();

  const std::size_t payload_bytes = in.remaining();
  const std::int64_t self_hash = in.get_i64();
  std::vector<Value> args(in.get_varint());
  std::uint64_t elements = 0;
  const RefDecoder decoder = make_ref_decoder(callee, caller_id);
  for (auto& a : args) {
    a = decode_value(in, decoder);
    elements += element_count(a);
  }
  charge_deserialize(env_, callee.ctx.isolate().domain(), elements,
                     payload_bytes);

  Value result;
  if (info.is_constructor) {
    Value mirror = callee.ctx.construct(info.target_class, std::move(args));
    callee.registry.add(self_hash, mirror.as_ref());
  } else {
    const MethodDecl* target = cls.find_method(info.target_method);
    MSV_CHECK_MSG(target != nullptr, "relay target missing");
    if (target->is_static()) {
      result = callee.ctx.invoke_static(info.target_class, info.target_method,
                                        std::move(args));
    } else {
      const GcRef mirror = callee.registry.get(self_hash);
      result = callee.ctx.invoke(mirror, info.target_method, std::move(args));
    }
  }

  ByteBuffer out;
  encode_value(out, result, make_ref_encoder(callee, caller_id));
  charge_serialize(env_, callee.ctx.isolate().domain(), element_count(result),
                   out.size());
  return out;
}

std::vector<MultiIsolateRuntime::BatchOutcome> MultiIsolateRuntime::
    invoke_batch(const std::vector<BatchCall>& calls) {
  MSV_CHECK_MSG(!calls.empty(), "empty RMI batch");
  MSV_CHECK_MSG(handlers_registered_, "invoke_batch before register_handlers");
  SideState& from = *untrusted_;

  // Resolve the owning isolate and epoch-fence every proxy before any
  // transition: one stale proxy fails the batch as a unit, so the serving
  // layer's recovery ladder re-runs it against the recovered enclave
  // without ever half-executing it.
  std::uint32_t target_id = 0;
  std::vector<std::int64_t> hashes(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const BatchCall& c = calls[i];
    MSV_CHECK_MSG(c.stub != nullptr && !c.stub->is_static(),
                  "batched calls must be instance proxy-stub invocations");
    MSV_CHECK_MSG(!c.proxy.is_null(), "batched RMI without a proxy");
    const std::int64_t hash =
        from.ctx.isolate().get_field(c.proxy, 0).as_i64();
    check_proxy_epoch(hash);
    const std::uint32_t owner = hash_owner_.at(hash);
    if (i == 0) {
      target_id = owner;
    } else {
      MSV_CHECK_MSG(owner == target_id,
                    "one batch cannot span trusted isolates");
    }
    hashes[i] = hash;
  }
  MSV_CHECK_MSG(target_id != kUntrustedId,
                "batched calls must target a trusted isolate");

  telemetry::SpanScope span(env_.telemetry.tracer(), telemetry::Category::kRmi,
                            env_.telemetry.names().rmi_batch);
  ByteBuffer frame;
  frame.put_u32(target_id);
  frame.put_u32(kUntrustedId);
  encode_batch_header(frame, calls.size());
  const RefEncoder encoder = make_ref_encoder(from, target_id);
  ByteBuffer entry;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    entry.clear();
    entry.put_i64(hashes[i]);
    entry.put_varint(calls[i].args.size());
    std::uint64_t elements = 0;
    for (const auto& a : calls[i].args) {
      elements += element_count(a);
      encode_value(entry, a, encoder);
    }
    charge_serialize(env_, from.ctx.isolate().domain(), elements,
                     entry.size());
    encode_batch_entry(frame, relay_id(*calls[i].stub), entry.data(),
                       entry.size());
  }

  ByteBuffer response;
  bridge_.ecall(batch_ecall_id_, frame, response);

  const std::vector<BatchResultView> results =
      decode_batch_response(response, calls.size(), BatchLimits{});
  std::vector<BatchOutcome> out(calls.size());
  const RefDecoder decoder = make_ref_decoder(from, target_id);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const BatchResultView& v = results[i];
    if (v.ok) {
      ByteReader r(v.data, v.size);
      out[i].ok = true;
      out[i].value = decode_value(r, decoder);
      charge_deserialize(env_, from.ctx.isolate().domain(),
                         element_count(out[i].value), v.size);
    } else {
      out[i].error.assign(reinterpret_cast<const char*>(v.data), v.size);
    }
  }
  return out;
}

void MultiIsolateRuntime::register_handlers() {
  MSV_CHECK_MSG(!handlers_registered_, "handlers registered twice");
  handlers_registered_ = true;

  auto make_handler = [this](const std::string& cls_name,
                             const std::string& relay_name) {
    return [this, cls_name, relay_name](ByteReader& in) -> ByteBuffer {
      const std::uint32_t target_id = in.get_u32();
      const std::uint32_t caller_id = in.get_u32();
      SideState& callee = state_by_id(target_id);
      return dispatch_one(callee, caller_id, cls_name, relay_name, in,
                          /*charge_attach=*/true);
    };
  };

  // The trusted image is shared by all trusted isolates: one handler per
  // relay, routed by the isolate id on the wire. The batch dispatcher
  // routes packed entries by the same interned CallIds.
  for (const auto& cls : trusted_[0]->ctx.classes().classes()) {
    for (const auto& m : cls.methods()) {
      if (m.kind() != MethodKind::kRelay) continue;
      const sgx::CallId id = bridge_.register_ecall(
          xform::transition_name(cls.name(), m.relay().target_method, true),
          make_handler(cls.name(), m.name()));
      batch_targets_[id] = {cls.name(), m.name()};
    }
  }
  for (const auto& cls : untrusted_->ctx.classes().classes()) {
    for (const auto& m : cls.methods()) {
      if (m.kind() != MethodKind::kRelay) continue;
      bridge_.register_ocall(
          xform::transition_name(cls.name(), m.relay().target_method, false),
          make_handler(cls.name(), m.name()));
    }
  }

  // Batch endpoint: one ecall carries a whole frame of packed relay
  // invocations for one trusted isolate (DESIGN.md §13). The isolate
  // attach is charged once for the frame, not per entry.
  batch_ecall_id_ = bridge_.register_ecall(
      "ecall_multi_rmi_batch", [this](ByteReader& in) -> ByteBuffer {
        telemetry::SpanScope span(env_.telemetry.tracer(),
                                  telemetry::Category::kRmi,
                                  env_.telemetry.names().rmi_batch);
        const std::uint32_t target_id = in.get_u32();
        const std::uint32_t caller_id = in.get_u32();
        SideState& callee = state_by_id(target_id);
        env_.clock.advance(callee.ctx.isolate().trusted()
                               ? env_.cost.isolate_attach_trusted_cycles
                               : env_.cost.isolate_attach_untrusted_cycles);
        const std::vector<BatchEntryView> entries = decode_batch_request(
            in.raw() + in.position(), in.remaining(), BatchLimits{});
        in.seek(in.position() + in.remaining());
        ByteBuffer out;
        encode_batch_header(out, entries.size());
        for (const BatchEntryView& e : entries) {
          const auto it =
              batch_targets_.find(static_cast<sgx::CallId>(e.call_id));
          if (it == batch_targets_.end()) {
            throw BatchCodecError("batch entry routes to unknown relay id " +
                                  std::to_string(e.call_id));
          }
          ByteReader er(e.data, e.size);
          try {
            const ByteBuffer r =
                dispatch_one(callee, caller_id, it->second.first,
                             it->second.second, er, /*charge_attach=*/false);
            encode_batch_result(out, true, r.data(), r.size());
          } catch (const sched::TaskCancelled&) {
            throw;
          } catch (const Error& f) {
            // In-band per-entry fault: the rest of the batch still runs.
            const std::string msg = f.what();
            encode_batch_result(
                out, false,
                reinterpret_cast<const std::uint8_t*>(msg.data()),
                msg.size());
          }
        }
        return out;
      });

  gc_evict_ecall_id_ =
      bridge_.register_ecall("ecall_multi_gc_evict", [this](ByteReader& in) {
        SideState& s = state_by_id(in.get_u32());
        const std::uint64_t n = in.get_varint();
        for (std::uint64_t i = 0; i < n; ++i) s.registry.remove(in.get_i64());
        return ByteBuffer();
      });
  gc_scan_ecall_id_ =
      bridge_.register_ecall("ecall_multi_gc_scan", [this](ByteReader& in) {
    // The in-enclave helper of one isolate scans and evicts outward.
    SideState& s = state_by_id(in.get_u32());
    std::vector<std::int64_t> dead;
    s.ctx.isolate().weak_refs().remove_if([&](const rt::WeakEntry& e) {
      if (e.was_set && e.target == rt::kNullAddr) {
        dead.push_back(static_cast<std::int64_t>(e.payload));
        return true;
      }
      return false;
    });
    s.proxy_by_hash.clear();
    for (std::uint32_t i = 0; i < s.ctx.isolate().weak_refs().size(); ++i) {
      const rt::WeakEntry& e = s.ctx.isolate().weak_refs().entry(i);
      if (e.target != rt::kNullAddr) {
        s.proxy_by_hash[static_cast<std::int64_t>(e.payload)] = i;
      }
    }
    if (!dead.empty()) {
      ByteBuffer payload;
      payload.put_varint(dead.size());
      for (const auto h : dead) payload.put_i64(h);
      ByteBuffer response;
      bridge_.ocall(gc_evict_ocall_id_, payload, response);
    }
    return ByteBuffer();
  });
  gc_evict_ocall_id_ =
      bridge_.register_ocall("ocall_multi_gc_evict", [this](ByteReader& in) {
        const std::uint64_t n = in.get_varint();
        for (std::uint64_t i = 0; i < n; ++i) {
          untrusted_->registry.remove(in.get_i64());
        }
        return ByteBuffer();
      });
}

sgx::CallId MultiIsolateRuntime::relay_id(const model::MethodDecl& stub) {
  const auto it = relay_ids_.find(&stub);
  if (it != relay_ids_.end()) return it->second;
  const sgx::CallId id = bridge_.find_call(stub.proxy().relay_name);
  MSV_CHECK_MSG(id != sgx::kNoCallId,
                "relay not registered: " + stub.proxy().relay_name);
  relay_ids_.emplace(&stub, id);
  return id;
}

void MultiIsolateRuntime::force_gc_scan() {
  MSV_CHECK_MSG(bridge_.side() == Side::kUntrusted,
                "GC helpers pump from the top level");
  // Untrusted helper: collect dead proxies and evict per owning isolate.
  rt::WeakRefTable& weak = untrusted_->ctx.isolate().weak_refs();
  env_.clock.advance(weak.size() * env_.cost.weakref_scan_entry_cycles);
  std::unordered_map<std::uint32_t, std::vector<std::int64_t>> dead_by_owner;
  weak.remove_if([&](const rt::WeakEntry& e) {
    if (e.was_set && e.target == rt::kNullAddr) {
      const auto hash = static_cast<std::int64_t>(e.payload);
      dead_by_owner[hash_owner_.at(hash)].push_back(hash);
      hash_owner_.erase(hash);
      hash_epoch_.erase(hash);
      return true;
    }
    return false;
  });
  untrusted_->proxy_by_hash.clear();
  for (std::uint32_t i = 0; i < weak.size(); ++i) {
    const rt::WeakEntry& e = weak.entry(i);
    if (e.target != rt::kNullAddr) {
      untrusted_->proxy_by_hash[static_cast<std::int64_t>(e.payload)] = i;
    }
  }
  for (const auto& [owner, hashes] : dead_by_owner) {
    ByteBuffer payload;
    payload.put_u32(owner);
    payload.put_varint(hashes.size());
    for (const auto h : hashes) payload.put_i64(h);
    ByteBuffer response;
    bridge_.ecall(gc_evict_ecall_id_, payload, response);
  }

  // Each in-enclave helper scans its own isolate.
  for (std::uint32_t k = 0; k < trusted_.size(); ++k) {
    if (trusted_[k]->ctx.isolate().weak_refs().cleared_count() > 0) {
      ByteBuffer payload;
      payload.put_u32(k);
      ByteBuffer response;
      bridge_.ecall(gc_scan_ecall_id_, payload, response);
    }
  }
}

const MirrorProxyRegistry& MultiIsolateRuntime::trusted_registry(
    std::uint32_t index) const {
  MSV_CHECK_MSG(index < trusted_.size(), "no such trusted isolate");
  return trusted_[index]->registry;
}

}  // namespace msv::rmi
