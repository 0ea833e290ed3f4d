// Multi-tenant enclave service (future work §7, second item).
//
// One measured enclave hosts three GraalVM-style isolates, each holding a
// different tenant's accounts. Proxies in the untrusted runtime stay
// bound to the isolate that owns their mirror; a GC in one tenant's heap
// never pauses another; and passing one tenant's object into another
// tenant's call is rejected at the boundary.
//
//   ./examples/example_multi_tenant
#include <cstdio>

#include "apps/illustrative/bank.h"
#include "core/montsalvat.h"
#include "support/stats.h"

int main() {
  using namespace msv;
  using rt::Value;

  std::puts("== Multi-tenant enclave: one enclave, three isolates ==\n");

  core::PartitionedApp app(apps::build_bank_app(), /*trusted_isolates=*/3);
  auto& u = app.untrusted_context();

  const char* tenants[] = {"acme", "globex", "initech"};
  std::vector<Value> accounts;
  for (std::uint32_t t = 0; t < 3; ++t) {
    accounts.push_back(app.construct_in(
        t, "Account",
        {Value(std::string(tenants[t]) + "-ops"),
         Value(static_cast<std::int32_t>(100 * (t + 1)))}));
    std::printf(
        "isolate %u: provisioned account for %-8s (mirrors there: %zu)\n", t,
        tenants[t], app.rmi().registry(Side::kTrusted, t).size());
  }

  // Tenant 1 gets busy; its isolate's GC runs without touching the others.
  u.invoke(accounts[1].as_ref(), "updateBalance", {Value(std::int32_t{-50})});
  app.collect_isolate(1);
  std::printf("\nafter isolate 1's GC: gc_count = [%llu, %llu, %llu] — only "
              "tenant 1 paused\n",
              static_cast<unsigned long long>(
                  app.trusted_context(0).isolate().heap().stats().gc_count),
              static_cast<unsigned long long>(
                  app.trusted_context(1).isolate().heap().stats().gc_count),
              static_cast<unsigned long long>(
                  app.trusted_context(2).isolate().heap().stats().gc_count));

  for (std::uint32_t t = 0; t < 3; ++t) {
    std::printf("tenant %-8s balance: %d\n", tenants[t],
                u.invoke(accounts[t].as_ref(), "getBalance", {}).as_i32());
  }

  // Isolation: tenant 0's registry must not accept tenant 2's account.
  const Value reg0 = app.construct_in(0, "AccountRegistry", {});
  try {
    u.invoke(reg0.as_ref(), "addAccount", {accounts[2]});
    std::puts("\ncross-tenant reference accepted — BUG");
    return 1;
  } catch (const SecurityFault& e) {
    std::printf("\ncross-tenant reference rejected: %s\n", e.what());
  }

  std::printf("\nSimulated time: %s\n",
              format_seconds(app.now_seconds()).c_str());
  return 0;
}
