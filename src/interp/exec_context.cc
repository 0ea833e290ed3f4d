#include "interp/exec_context.h"

#include <map>

#include "analysis/verify.h"
#include "support/error.h"

namespace msv::interp {

using model::ClassDecl;
using model::MethodDecl;
using model::MethodKind;
using model::Op;
using rt::GcRef;
using rt::Value;
using rt::ValueType;

ImageTables::ImageTables(const model::AppModel& classes) : classes_(classes) {
  class_ids_.reserve(classes_.classes().size());
  class_table_.reserve(classes_.classes().size());
  for (const auto& c : classes_.classes()) {
    class_ids_.emplace(c.name(),
                       static_cast<std::uint32_t>(class_table_.size()));
    class_table_.push_back(&c);
  }
}

const std::uint32_t* ImageTables::find_class_id(std::string_view name) const {
  const auto it = class_ids_.find(name);
  return it == class_ids_.end() ? nullptr : &it->second;
}

const ClassDecl& ImageTables::class_by_id(std::uint32_t id) const {
  MSV_CHECK_MSG(id < class_table_.size(), "bad class id");
  return *class_table_[id];
}

const MethodDecl* ImageTables::resolve_method(const ClassDecl& cls,
                                              std::string_view method) const {
  auto it = method_index_.find(&cls);
  if (it == method_index_.end()) {
    MethodIndex index;
    index.reserve(cls.methods().size());
    for (const auto& m : cls.methods()) index.emplace(m.name(), &m);
    it = method_index_.emplace(&cls, std::move(index)).first;
  }
  const auto mit = it->second.find(method);
  return mit == it->second.end() ? nullptr : mit->second;
}

QuickInfo ImageTables::quick_info(const MethodDecl& method) const {
  const auto it = quick_.find(&method);
  if (it != quick_.end()) return it->second;
  QuickInfo info;
  const auto& code = method.ir().code;
  if (!method.is_static()) {
    if (method.param_count() == 1 && code.size() == 4 &&
        code[0].op == Op::kLoadLocal && code[0].a == 0 &&
        code[1].op == Op::kLoadLocal && code[1].a == 1 &&
        code[2].op == Op::kPutField && code[3].op == Op::kReturnVoid) {
      info = {QuickKind::kSetter, static_cast<std::uint32_t>(code[2].a)};
    } else if (method.param_count() == 0 && code.size() == 3 &&
               code[0].op == Op::kLoadLocal && code[0].a == 0 &&
               code[1].op == Op::kGetField && code[2].op == Op::kReturn) {
      info = {QuickKind::kGetter, static_cast<std::uint32_t>(code[1].a)};
    }
  }
  quick_.emplace(&method, info);
  return info;
}

ExecContext::ExecContext(Env& env, rt::Isolate& isolate,
                         const model::AppModel& classes, shim::IoService& io,
                         IntrinsicTable intrinsics)
    : env_(env),
      isolate_(isolate),
      owned_tables_(std::make_unique<const ImageTables>(classes)),
      tables_(*owned_tables_),
      io_(io),
      intrinsics_(std::move(intrinsics)) {}

ExecContext::ExecContext(Env& env, rt::Isolate& isolate,
                         const ImageTables& tables, shim::IoService& io,
                         IntrinsicTable intrinsics)
    : env_(env),
      isolate_(isolate),
      tables_(tables),
      io_(io),
      intrinsics_(std::move(intrinsics)) {}

std::uint32_t ExecContext::class_id(const std::string& name) const {
  const std::uint32_t* id = tables_.find_class_id(name);
  if (id == nullptr) {
    throw RuntimeFault("class " + name + " is not part of image '" +
                       isolate_.name() + "' (pruned or never defined)");
  }
  return *id;
}

const ClassDecl& ExecContext::class_by_id(std::uint32_t id) const {
  return tables_.class_by_id(id);
}

const ClassDecl& ExecContext::class_of(const GcRef& obj) const {
  MSV_CHECK_MSG(!obj.is_null(), "class_of(null)");
  MSV_CHECK_MSG(obj.isolate() == &isolate_, "object from a foreign isolate");
  return class_by_id(isolate_.heap().class_id(obj.address()));
}

rt::Value ExecContext::construct(const std::string& cls_name,
                                 std::vector<Value> args) {
  const ClassDecl& cls = classes().cls(cls_name);
  if (cls.is_proxy()) {
    MSV_CHECK_MSG(remote_ != nullptr,
                  "proxy construction without an RMI layer: " + cls_name);
    ++stats_.proxy_constructions;
    return remote_->construct_proxy(*this, cls, args);
  }
  ++stats_.objects_constructed;
  const GcRef self = isolate_.new_instance(
      class_id(cls_name), static_cast<std::uint32_t>(cls.fields().size()));
  const MethodDecl* ctor = resolve_method(cls, model::kConstructorName);
  if (ctor != nullptr) {
    if (args.size() != ctor->param_count()) {
      throw RuntimeFault("constructor of " + cls_name + " expects " +
                         std::to_string(ctor->param_count()) + " args, got " +
                         std::to_string(args.size()));
    }
    invoke_method(cls, *ctor, self, args);
  } else if (!args.empty()) {
    throw RuntimeFault("class " + cls_name +
                       " has no constructor but got arguments");
  }
  return Value(self);
}

rt::Value ExecContext::invoke(const GcRef& receiver, const std::string& method,
                              std::vector<Value> args) {
  const ClassDecl& cls = class_of(receiver);
  const MethodDecl* m = resolve_method(cls, method);
  if (m == nullptr) {
    throw RuntimeFault("no method " + cls.name() + "." + method);
  }
  MSV_CHECK_MSG(!m->is_static(), "instance call to static method " + method);
  return invoke_method(cls, *m, receiver, args);
}

rt::Value ExecContext::invoke_static(const std::string& cls_name,
                                     const std::string& method,
                                     std::vector<Value> args) {
  const ClassDecl& cls = classes().cls(cls_name);
  const MethodDecl* m = resolve_method(cls, method);
  if (m == nullptr || !m->is_static()) {
    throw RuntimeFault("no static method " + cls_name + "." + method);
  }
  return invoke_method(cls, *m, GcRef(), args);
}

rt::Value ExecContext::run_main(std::vector<Value> args) {
  MSV_CHECK_MSG(!classes().main_class().empty(),
                "image '" + isolate_.name() + "' has no main class");
  return invoke_static(classes().main_class(), "main", std::move(args));
}

std::string ExecContext::trace_to_json() const {
  // The shape of the GraalVM agent's reflect-config.json: one entry per
  // class listing the methods observed at run time.
  std::map<std::string, std::vector<std::string>> by_class;
  for (const auto& [cls, method] : traced_) by_class[cls].push_back(method);

  std::string out = "[\n";
  bool first_class = true;
  for (const auto& [cls, methods] : by_class) {
    if (!first_class) out += ",\n";
    first_class = false;
    out += "  { \"name\": \"" + cls + "\", \"methods\": [";
    for (std::size_t i = 0; i < methods.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{ \"name\": \"" + methods[i] + "\" }";
    }
    out += "] }";
  }
  out += "\n]\n";
  return out;
}

rt::Value ExecContext::invoke_method(const ClassDecl& cls,
                                     const MethodDecl& method,
                                     const GcRef& self,
                                     std::vector<Value>& args) {
  if (args.size() != method.param_count()) {
    throw RuntimeFault("method " + cls.name() + "." + method.name() +
                       " expects " + std::to_string(method.param_count()) +
                       " args, got " + std::to_string(args.size()));
  }
  ++stats_.method_calls;
  env_.clock.advance(env_.cost.method_call_cycles);
  if (tracing_) traced_.emplace(cls.name(), method.name());
  const bool observed = edge_tracing_ || call_profiling_;
  if (observed) {
    // Only the immediate native caller records an edge (see
    // enable_native_edge_tracing).
    if (edge_tracing_ && !call_stack_.empty() &&
        call_stack_.back().method->kind() == MethodKind::kNative) {
      const CallFrame& caller = call_stack_.back();
      native_edges_.insert({{caller.cls->name(), caller.method->name()},
                            {cls.name(), method.name()}});
    }
    if (call_profiling_) count_call(cls, method);
    call_stack_.push_back({&cls, &method});
  }
  struct CallGuard {
    ExecContext* ctx;  // null: no observer pushed a frame
    ~CallGuard() {
      if (ctx != nullptr) ctx->call_stack_.pop_back();
    }
  } call_guard{observed ? this : nullptr};

  switch (method.kind()) {
    case MethodKind::kIr: {
      if (verify_bytecode_) ensure_verified(cls, method);
      if (!self.is_null()) {
        // Quickened bodies replicate exec_ir's op count and charges; null
        // receivers fall through so the generic loop raises its errors.
        const QuickInfo q = quick_info(method);
        if (q.kind == QuickKind::kSetter) {
          stats_.ir_ops += 4;
          env_.clock.advance(4 * env_.cost.ir_op_cycles);
          isolate_.set_field(self, q.field, args[0]);
          return Value();
        }
        if (q.kind == QuickKind::kGetter) {
          stats_.ir_ops += 3;
          env_.clock.advance(3 * env_.cost.ir_op_cycles);
          return Value(isolate_.get_field(self, q.field));
        }
      }
      return exec_ir(cls, method, self, args);
    }
    case MethodKind::kNative: {
      model::NativeCall call{*this, isolate_, self, args};
      return method.native()(call);
    }
    case MethodKind::kProxyStub: {
      MSV_CHECK_MSG(remote_ != nullptr,
                    "proxy stub without an RMI layer: " + cls.name() + "." +
                        method.name());
      ++stats_.proxy_invocations;
      return remote_->invoke_proxy(*this, self, cls, method, args);
    }
    case MethodKind::kRelay:
      // Relay methods are bridge entry points; they are dispatched by the
      // RMI layer (which resolves their target), never invoked as normal
      // methods.
      throw RuntimeFault("relay method " + cls.name() + "." + method.name() +
                         " invoked locally");
  }
  return Value();
}

void ExecContext::count_call(const ClassDecl& cls, const MethodDecl& method) {
  MethodRef caller{"<entry>", ""};
  if (!call_stack_.empty()) {
    const CallFrame& top = call_stack_.back();
    caller = {top.cls->name(), top.method->name()};
  }
  ++call_counts_[{std::move(caller), {cls.name(), method.name()}}];
}

void ExecContext::ensure_verified(const ClassDecl& cls,
                                  const MethodDecl& method) {
  auto it = verified_.find(&method);
  if (it == verified_.end()) {
    analysis::VerifyOptions opts;
    opts.app = &classes();
    opts.cls = &cls;
    opts.method = &method;
    const auto errors = analysis::verify(method.ir(), opts);
    it = verified_
             .emplace(&method,
                      errors.empty() ? std::string() : errors.front().message)
             .first;
  }
  if (!it->second.empty()) {
    throw TrapError("verify gate: refusing to execute " + cls.name() + "." +
                    method.name() + ": " + it->second);
  }
}

rt::Value ExecContext::invoke_quick(const ClassDecl& cls,
                                    const MethodDecl& method,
                                    const QuickInfo& q, const GcRef& self,
                                    std::vector<Value>& args) {
  // Charges and stats replicate invoke_method's quickened kIr case exactly
  // (one method call plus the body's op count); only the per-call
  // classifier lookup is gone.
  if (args.size() != method.param_count()) {
    throw RuntimeFault("method " + cls.name() + "." + method.name() +
                       " expects " + std::to_string(method.param_count()) +
                       " args, got " + std::to_string(args.size()));
  }
  ++stats_.method_calls;
  if (tracing_) traced_.emplace(cls.name(), method.name());
  // Quickened bodies are leaves; count the edge without a frame.
  if (call_profiling_) count_call(cls, method);
  if (verify_bytecode_) ensure_verified(cls, method);
  if (q.kind == QuickKind::kSetter) {
    stats_.ir_ops += 4;
    env_.clock.advance(env_.cost.method_call_cycles +
                       4 * env_.cost.ir_op_cycles);
    isolate_.set_field(self, q.field, args[0]);
    return Value();
  }
  stats_.ir_ops += 3;
  env_.clock.advance(env_.cost.method_call_cycles + 3 * env_.cost.ir_op_cycles);
  return Value(isolate_.get_field(self, q.field));
}

namespace {

bool is_numeric(const Value& v) {
  const ValueType t = v.type();
  return t == ValueType::kI32 || t == ValueType::kI64 || t == ValueType::kF64;
}

Value arith(Op op, const Value& lhs, const Value& rhs) {
  MSV_CHECK_MSG(is_numeric(lhs) && is_numeric(rhs),
                "arithmetic on non-numeric values");
  const bool f = lhs.type() == ValueType::kF64 || rhs.type() == ValueType::kF64;
  const bool wide =
      lhs.type() == ValueType::kI64 || rhs.type() == ValueType::kI64;
  if (f) {
    const double a = lhs.as_f64(), b = rhs.as_f64();
    switch (op) {
      case Op::kAdd:
        return Value(a + b);
      case Op::kSub:
        return Value(a - b);
      case Op::kMul:
        return Value(a * b);
      case Op::kDiv:
        return Value(a / b);
      case Op::kLt:
        return Value(a < b);
      case Op::kLe:
        return Value(a <= b);
      default:
        return Value(a == b);
    }
  }
  const std::int64_t a = lhs.as_i64(), b = rhs.as_i64();
  auto narrow = [&](std::int64_t r) {
    return wide ? Value(r) : Value(static_cast<std::int32_t>(r));
  };
  switch (op) {
    case Op::kAdd:
      return narrow(a + b);
    case Op::kSub:
      return narrow(a - b);
    case Op::kMul:
      return narrow(a * b);
    case Op::kDiv:
      if (b == 0) throw RuntimeFault("integer division by zero");
      return narrow(a / b);
    case Op::kLt:
      return Value(a < b);
    case Op::kLe:
      return Value(a <= b);
    default:
      return Value(a == b);
  }
}

bool value_equals(const Value& a, const Value& b) {
  if (is_numeric(a) && is_numeric(b)) return a.as_f64() == b.as_f64();
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.as_bool() == b.as_bool();
    case ValueType::kString:
      return a.as_string() == b.as_string();
    case ValueType::kRef:
      return a.as_ref().same_object(b.as_ref());
    default:
      return false;
  }
}

}  // namespace

rt::Value ExecContext::exec_ir(const ClassDecl& cls, const MethodDecl& method,
                               GcRef self, std::vector<Value>& args) {
  const model::IrBody& ir = method.ir();

  // Locals: `this` at 0 for instance methods, then parameters. Both frame
  // vectors come from the pool and go back on every exit path.
  std::vector<Value> locals = frame_take();
  std::vector<Value> stack = frame_take();
  struct FrameGuard {
    ExecContext* ctx;
    std::vector<Value>* locals;
    std::vector<Value>* stack;
    ~FrameGuard() {
      ctx->frame_put(std::move(*locals));
      ctx->frame_put(std::move(*stack));
    }
  } frame_guard{this, &locals, &stack};
  locals.resize(
      std::max<std::size_t>(ir.local_count,
                            args.size() + (method.is_static() ? 0 : 1)));
  std::size_t next = 0;
  if (!method.is_static()) locals[next++] = Value(self);
  for (auto& a : args) locals[next++] = std::move(a);
  auto pop = [&]() {
    MSV_CHECK_MSG(!stack.empty(), "operand stack underflow in " + cls.name() +
                                      "." + method.name());
    Value v = std::move(stack.back());
    stack.pop_back();
    return v;
  };
  auto pop_args = [&](std::int32_t argc) {
    std::vector<Value> out(static_cast<std::size_t>(argc));
    for (std::int32_t i = argc - 1; i >= 0; --i) out[i] = pop();
    return out;
  };
  auto as_obj = [&](const Value& v) {
    MSV_CHECK_MSG(v.type() == ValueType::kRef && !v.as_ref().is_null(),
                  "object expected in " + cls.name() + "." + method.name());
    return v.as_ref();
  };

  std::size_t pc = 0;
  std::uint64_t ops = 0;
  // Operand decoding traps: an out-of-bounds constant-pool/name-pool/
  // local/field index or jump target raises a typed TrapError instead of
  // indexing past the pool (UB) or silently exiting the dispatch loop.
  auto trap = [&](const std::string& what) -> void {
    throw TrapError(what + " in " + cls.name() + "." + method.name() + "@" +
                    std::to_string(pc));
  };
  auto checked_index = [&](std::int32_t index, std::size_t size,
                           const char* pool) {
    if (index < 0 || static_cast<std::size_t>(index) >= size) {
      trap(std::string(pool) + " index " + std::to_string(index) +
           " out of bounds (size " + std::to_string(size) + ")");
    }
    return static_cast<std::size_t>(index);
  };
  while (pc < ir.code.size()) {
    const model::Instr instr = ir.code[pc];
    ++ops;
    bool jumped = false;
    switch (instr.op) {
      case Op::kNop:
        break;
      case Op::kConst:
        stack.push_back(
            ir.consts[checked_index(instr.a, ir.consts.size(), "constant-pool")]);
        break;
      case Op::kLoadLocal:
        stack.push_back(locals[checked_index(instr.a, locals.size(), "local")]);
        break;
      case Op::kStoreLocal:
        locals[checked_index(instr.a, locals.size(), "local")] = pop();
        break;
      case Op::kGetField: {
        const GcRef obj = as_obj(pop());
        checked_index(instr.a, class_of(obj).fields().size(), "field");
        stack.push_back(isolate_.get_field(obj, instr.a));
        break;
      }
      case Op::kPutField: {
        Value value = pop();
        const GcRef obj = as_obj(pop());
        checked_index(instr.a, class_of(obj).fields().size(), "field");
        isolate_.set_field(obj, instr.a, value);
        break;
      }
      case Op::kNew: {
        if (instr.b < 0) trap("negative argument count");
        auto ctor_args = pop_args(instr.b);
        stack.push_back(construct(
            ir.names[checked_index(instr.a, ir.names.size(), "name-pool")],
            std::move(ctor_args)));
        break;
      }
      case Op::kCall: {
        if (instr.b < 0) trap("negative argument count");
        const std::size_t name_index =
            checked_index(instr.a, ir.names.size(), "name-pool");
        auto call_args = pop_args(instr.b);
        const GcRef receiver = as_obj(pop());
        stack.push_back(
            invoke(receiver, ir.names[name_index], std::move(call_args)));
        break;
      }
      case Op::kIntrinsic: {
        if (instr.b < 0) trap("negative argument count");
        const std::string& name =
            ir.names[checked_index(instr.a, ir.names.size(), "name-pool")];
        auto call_args = pop_args(instr.b);
        if (!intrinsics_.contains(name)) {
          throw RuntimeFault("unknown intrinsic " + name);
        }
        stack.push_back(intrinsics_.get(name)(*this, call_args));
        break;
      }
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kLt:
      case Op::kLe: {
        const Value rhs = pop();
        const Value lhs = pop();
        stack.push_back(arith(instr.op, lhs, rhs));
        break;
      }
      case Op::kEq: {
        const Value rhs = pop();
        const Value lhs = pop();
        stack.push_back(Value(value_equals(lhs, rhs)));
        break;
      }
      case Op::kJump:
        pc = checked_index(instr.a, ir.code.size(), "jump target");
        jumped = true;
        break;
      case Op::kBranchFalse:
        checked_index(instr.a, ir.code.size(), "branch target");
        if (!pop().as_bool()) {
          pc = static_cast<std::size_t>(instr.a);
          jumped = true;
        }
        break;
      case Op::kPop:
        pop();
        break;
      case Op::kDup:
        MSV_CHECK_MSG(!stack.empty(), "dup on empty stack");
        stack.push_back(stack.back());
        break;
      case Op::kReturn: {
        Value result = pop();
        stats_.ir_ops += ops;
        env_.clock.advance(ops * env_.cost.ir_op_cycles);
        return result;
      }
      case Op::kReturnVoid:
        stats_.ir_ops += ops;
        env_.clock.advance(ops * env_.cost.ir_op_cycles);
        return Value();
    }
    if (!jumped) ++pc;
  }
  stats_.ir_ops += ops;
  env_.clock.advance(ops * env_.cost.ir_op_cycles);
  return Value();  // fell off the end: implicit void return
}

}  // namespace msv::interp
