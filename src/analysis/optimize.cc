#include "analysis/optimize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>

#include "interp/exec_context.h"
#include "model/ir.h"
#include "support/error.h"

namespace msv::analysis {

using model::Annotation;
using model::ClassDecl;
using model::MethodDecl;
using model::MethodKind;
using model::Op;

namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max() / 4;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_str(std::uint64_t h, const std::string& s) {
  return fnv1a(h, s.data(), s.size());
}

// Dinic max-flow; deterministic for a fixed arc insertion order.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t n) : graph_(n) {}

  void add_arc(std::size_t u, std::size_t v, std::uint64_t cap) {
    graph_[u].push_back({v, cap, graph_[v].size()});
    graph_[v].push_back({u, 0, graph_[u].size() - 1});
  }

  std::uint64_t run(std::size_t s, std::size_t t) {
    std::uint64_t flow = 0;
    while (bfs(s, t)) {
      iter_.assign(graph_.size(), 0);
      while (const std::uint64_t f = dfs(s, t, kInf)) flow += f;
    }
    return flow;
  }

  // After run(): the source side of the min cut (reachable in the
  // residual graph).
  std::vector<bool> source_side(std::size_t s) const {
    std::vector<bool> seen(graph_.size(), false);
    std::queue<std::size_t> q;
    seen[s] = true;
    q.push(s);
    while (!q.empty()) {
      const std::size_t u = q.front();
      q.pop();
      for (const Arc& a : graph_[u]) {
        if (a.cap > 0 && !seen[a.to]) {
          seen[a.to] = true;
          q.push(a.to);
        }
      }
    }
    return seen;
  }

 private:
  struct Arc {
    std::size_t to;
    std::uint64_t cap;
    std::size_t rev;
  };

  bool bfs(std::size_t s, std::size_t t) {
    level_.assign(graph_.size(), -1);
    std::queue<std::size_t> q;
    level_[s] = 0;
    q.push(s);
    while (!q.empty()) {
      const std::size_t u = q.front();
      q.pop();
      for (const Arc& a : graph_[u]) {
        if (a.cap > 0 && level_[a.to] < 0) {
          level_[a.to] = level_[u] + 1;
          q.push(a.to);
        }
      }
    }
    return level_[t] >= 0;
  }

  std::uint64_t dfs(std::size_t u, std::size_t t, std::uint64_t limit) {
    if (u == t) return limit;
    for (std::size_t& i = iter_[u]; i < graph_[u].size(); ++i) {
      Arc& a = graph_[u][i];
      if (a.cap == 0 || level_[a.to] != level_[u] + 1) continue;
      const std::uint64_t f = dfs(a.to, t, std::min(limit, a.cap));
      if (f == 0) continue;
      a.cap -= f;
      graph_[a.to][a.rev].cap += f;
      return f;
    }
    return 0;
  }

  std::vector<std::vector<Arc>> graph_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Integer constant pushed by the instruction immediately preceding `pc`
// (the last argument of the intrinsic at `pc`), or `fallback`.
std::int64_t preceding_const(const model::IrBody& body, std::size_t pc,
                             std::int64_t fallback) {
  if (pc == 0) return fallback;
  const model::Instr& prev = body.code[pc - 1];
  if (prev.op != Op::kConst || prev.a < 0 ||
      static_cast<std::size_t>(prev.a) >= body.consts.size()) {
    return fallback;
  }
  const rt::Value& v = body.consts[static_cast<std::size_t>(prev.a)];
  if (v.type() == rt::ValueType::kI64) return v.as_i64();
  if (v.type() == rt::ValueType::kI32) return v.as_i32();
  return fallback;
}

// Modeled cycles one invocation of `m` adds on top of its untrusted-side
// cost when its class lives inside the enclave: MEE-scaled memory traffic
// of compute intrinsics plus ocall relaying of I/O intrinsics. A static
// over-approximation (every intrinsic site charged once per invocation);
// native bodies are opaque and charge nothing here.
double residency_cycles_per_call(const model::IrBody& body,
                                 const CostModel& cost) {
  double cycles = 0.0;
  for (std::size_t pc = 0; pc < body.code.size(); ++pc) {
    const model::Instr& instr = body.code[pc];
    if (instr.op != Op::kIntrinsic || instr.a < 0 ||
        static_cast<std::size_t>(instr.a) >= body.names.size()) {
      continue;
    }
    const std::string& name = body.names[static_cast<std::size_t>(instr.a)];
    if (name == "compute_fft") {
      const double mb =
          static_cast<double>(preceding_const(body, pc, /*fallback=*/1));
      const double traffic = mb * 1024.0 * 1024.0;
      cycles += traffic * cost.dram_cycles_per_byte *
                (cost.mee_traffic_factor - 1.0);
    } else if (name == "io_write" || name == "io_read") {
      const double bytes =
          static_cast<double>(preceding_const(body, pc, /*fallback=*/4096));
      cycles += static_cast<double>(cost.ocall_cycles) +
                2.0 * static_cast<double>(cost.edge_call_cycles) +
                bytes * cost.edge_copy_cycles_per_byte;
    }
  }
  return cycles;
}

struct Direction {
  double trusted_to_untrusted;  // ocall direction
  double untrusted_to_trusted;  // ecall direction
};

Direction crossing_costs(const CostModel& cost) {
  return {static_cast<double>(cost.ocall_cycles +
                              cost.isolate_attach_cycles(/*trusted=*/false) +
                              cost.edge_call_cycles),
          static_cast<double>(cost.ecall_cycles +
                              cost.isolate_attach_cycles(/*trusted=*/true) +
                              cost.edge_call_cycles)};
}

const char* side_name(Annotation a) {
  return a == Annotation::kTrusted ? "@Trusted" : "@Untrusted";
}

}  // namespace

CallProfile CallProfile::from_context(const interp::ExecContext& ctx) {
  CallProfile profile;
  profile.edges = ctx.call_counts();
  return profile;
}

std::map<CallProfile::MethodRef, std::uint64_t>
CallProfile::invocation_counts() const {
  std::map<MethodRef, std::uint64_t> out;
  for (const auto& [edge, count] : edges) out[edge.second] += count;
  return out;
}

std::map<std::pair<std::string, std::string>, std::uint64_t>
CallProfile::class_edges() const {
  std::map<std::pair<std::string, std::string>, std::uint64_t> out;
  for (const auto& [edge, count] : edges) {
    const std::string& caller = edge.first.first;
    const std::string& callee = edge.second.first;
    if (caller == "<entry>" || caller == callee) continue;
    out[{caller, callee}] += count;
  }
  return out;
}

std::uint64_t CallProfile::total_calls() const {
  std::uint64_t total = 0;
  for (const auto& [edge, count] : edges) total += count;
  return total;
}

const ClassPlacement* PartitionPlan::find(const std::string& cls) const {
  for (const auto& p : placements) {
    if (p.cls == cls) return &p;
  }
  return nullptr;
}

std::string PartitionPlan::to_text() const {
  std::string out = "partition plan (digest 0x";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  out += buf;
  out += "):\n";
  for (const auto& p : placements) {
    out += "  " + p.cls + ": " + side_name(p.before);
    if (p.after != p.before) {
      out += " -> ";
      out += side_name(p.after);
    }
    out += "\n";
  }
  out += "  moved: " + std::to_string(moved.size()) + " class(es)";
  if (below_min_gain) out += " [reverted: below min_gain]";
  out += "\n  profiled crossings: " + std::to_string(crossings_before) +
         " -> " + std::to_string(crossings_after);
  out += "\n  modeled cycles: " +
         std::to_string(static_cast<std::uint64_t>(modeled_cost_before)) +
         " -> " +
         std::to_string(static_cast<std::uint64_t>(modeled_cost_after)) +
         "\n";
  return out;
}

std::string PartitionPlan::to_json() const {
  std::string out = "{\n  \"schema\": \"msvlint-partition-plan-v1\",\n";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  out += "  \"digest\": \"" + std::string(buf) + "\",\n";
  out += "  \"crossings_before\": " + std::to_string(crossings_before) +
         ",\n  \"crossings_after\": " + std::to_string(crossings_after) +
         ",\n";
  out += "  \"modeled_cost_before\": " +
         std::to_string(static_cast<std::uint64_t>(modeled_cost_before)) +
         ",\n  \"modeled_cost_after\": " +
         std::to_string(static_cast<std::uint64_t>(modeled_cost_after)) +
         ",\n";
  out += std::string("  \"below_min_gain\": ") +
         (below_min_gain ? "true" : "false") + ",\n";
  out += "  \"moved\": [";
  for (std::size_t i = 0; i < moved.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(moved[i]) + "\"";
  }
  out += "],\n  \"placements\": [\n";
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const auto& p = placements[i];
    out += "    {\"class\": \"" + json_escape(p.cls) + "\", \"before\": \"" +
           side_name(p.before) + "\", \"after\": \"" + side_name(p.after) +
           "\"}";
    out += i + 1 < placements.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

PartitionPlan optimize_partition(const model::AppModel& app,
                                 const TrustFacts& trust,
                                 const CallProfile& profile,
                                 const CostModel& cost,
                                 const PartitionPolicy& policy) {
  // ---- Node set: annotated classes, sorted by name ----
  std::vector<const ClassDecl*> nodes;
  for (const ClassDecl& cls : app.classes()) {
    if (cls.annotation() != Annotation::kNeutral) nodes.push_back(&cls);
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const ClassDecl* a, const ClassDecl* b) {
              return a->name() < b->name();
            });
  std::map<std::string, std::size_t> node_of;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    node_of[nodes[i]->name()] = i + 2;  // 0 = source (T), 1 = sink (U)
  }

  // ---- Pins ----
  // SGX applications begin in the untrusted runtime: main stays outside.
  std::set<std::string> pin_untrusted = policy.pin_untrusted;
  if (!app.main_class().empty()) pin_untrusted.insert(app.main_class());
  std::set<std::string> pin_trusted = policy.pin_trusted;
  if (policy.pin_secret_classes) {
    for (const std::string& cls : trust.secret_classes()) {
      // Only classes currently inside may be *kept* inside by the trust
      // pin; a secret-carrying @Untrusted class is an MSV001-style leak,
      // not a placement decision.
      const ClassDecl* decl = app.find_class(cls);
      if (decl != nullptr && decl->annotation() == Annotation::kTrusted) {
        pin_trusted.insert(cls);
      }
    }
  }
  for (const std::string& cls : pin_trusted) {
    if (pin_untrusted.count(cls) > 0) {
      throw ConfigError("partition policy pins " + cls + " to both sides");
    }
  }

  // ---- Per-class modeled costs ----
  const Direction dir = crossing_costs(cost);
  const auto invocations = profile.invocation_counts();
  std::vector<double> residency(nodes.size(), 0.0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const MethodDecl& m : nodes[i]->methods()) {
      if (m.kind() != MethodKind::kIr) continue;
      const auto it = invocations.find({nodes[i]->name(), m.name()});
      if (it == invocations.end() || it->second == 0) continue;
      residency[i] += static_cast<double>(it->second) *
                      residency_cycles_per_call(m.ir(), cost);
    }
  }

  const auto class_edges = profile.class_edges();
  const auto annotated_edge_count =
      [&](const std::string& a, const std::string& b) -> std::uint64_t {
    const auto it = class_edges.find({a, b});
    return it == class_edges.end() ? 0 : it->second;
  };

  // ---- Build the cut graph ----
  MaxFlow flow(nodes.size() + 2);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::string& name = nodes[i]->name();
    if (pin_trusted.count(name) > 0) {
      flow.add_arc(0, i + 2, kInf);
    }
    if (pin_untrusted.count(name) > 0) {
      flow.add_arc(i + 2, 1, kInf);
    } else if (residency[i] > 0.0) {
      flow.add_arc(i + 2, 1,
                   static_cast<std::uint64_t>(std::llround(residency[i])));
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const std::string& a = nodes[i]->name();
      const std::string& b = nodes[j]->name();
      const std::uint64_t ab = annotated_edge_count(a, b);
      const std::uint64_t ba = annotated_edge_count(b, a);
      if (ab == 0 && ba == 0) continue;
      // Cut (A trusted, B untrusted): A->B calls cross as ocalls, B->A
      // calls as ecalls — and symmetrically for the other orientation.
      const auto cap = [&](std::uint64_t out_calls, std::uint64_t in_calls) {
        const double c =
            static_cast<double>(out_calls) * dir.trusted_to_untrusted +
            static_cast<double>(in_calls) * dir.untrusted_to_trusted;
        return static_cast<std::uint64_t>(std::llround(c));
      };
      if (const std::uint64_t c = cap(ab, ba)) {
        flow.add_arc(i + 2, j + 2, c);
      }
      if (const std::uint64_t c = cap(ba, ab)) {
        flow.add_arc(j + 2, i + 2, c);
      }
    }
  }

  flow.run(0, 1);
  const std::vector<bool> trusted_side = flow.source_side(0);

  // ---- Assemble the plan ----
  PartitionPlan plan;
  std::map<std::string, Annotation> before;
  std::map<std::string, Annotation> after;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ClassPlacement p;
    p.cls = nodes[i]->name();
    p.before = nodes[i]->annotation();
    p.after =
        trusted_side[i + 2] ? Annotation::kTrusted : Annotation::kUntrusted;
    before[p.cls] = p.before;
    after[p.cls] = p.after;
    plan.placements.push_back(std::move(p));
  }

  const auto evaluate = [&](const std::map<std::string, Annotation>& side,
                            std::uint64_t* crossings) -> double {
    double cycles = 0.0;
    *crossings = 0;
    for (const auto& [edge, count] : class_edges) {
      const auto a = side.find(edge.first);
      const auto b = side.find(edge.second);
      if (a == side.end() || b == side.end() || a->second == b->second) {
        continue;
      }
      *crossings += count;
      cycles += static_cast<double>(count) *
                (a->second == Annotation::kTrusted ? dir.trusted_to_untrusted
                                                   : dir.untrusted_to_trusted);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto it = side.find(nodes[i]->name());
      if (it != side.end() && it->second == Annotation::kTrusted) {
        cycles += residency[i];
      }
    }
    return cycles;
  };

  plan.modeled_cost_before = evaluate(before, &plan.crossings_before);
  plan.modeled_cost_after = evaluate(after, &plan.crossings_after);

  // min_gain gate: revert placements that do not pay for the re-weave.
  const double gain =
      plan.modeled_cost_before > 0.0
          ? (plan.modeled_cost_before - plan.modeled_cost_after) /
                plan.modeled_cost_before
          : 0.0;
  if (gain < policy.min_gain ||
      plan.modeled_cost_after > plan.modeled_cost_before) {
    bool any_moved = false;
    for (const auto& p : plan.placements) any_moved |= p.after != p.before;
    if (any_moved) plan.below_min_gain = true;
    for (auto& p : plan.placements) p.after = p.before;
    plan.crossings_after = plan.crossings_before;
    plan.modeled_cost_after = plan.modeled_cost_before;
  }

  for (const auto& p : plan.placements) {
    if (p.after != p.before) plan.moved.push_back(p.cls);
  }

  std::uint64_t digest = 14695981039346656037ull;
  digest = fnv1a(digest, &policy.seed, sizeof policy.seed);
  for (const auto& p : plan.placements) {
    digest = fnv1a_str(digest, p.cls);
    digest = fnv1a_str(digest, p.after == Annotation::kTrusted ? "=T;" : "=U;");
  }
  plan.digest = digest;
  return plan;
}

}  // namespace msv::analysis
