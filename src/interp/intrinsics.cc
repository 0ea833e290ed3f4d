#include "interp/intrinsics.h"

#include <cstdio>

#include "interp/exec_context.h"
#include "kernels/kernels.h"
#include "support/error.h"

namespace msv::interp {

void IntrinsicTable::add(const std::string& name, IntrinsicFn fn) {
  // Copy on write: the map may be shared with other tables.
  auto mine = std::make_shared<Map>(*table_);
  MSV_CHECK_MSG(mine->emplace(name, std::move(fn)).second,
                "duplicate intrinsic " + name);
  table_ = std::move(mine);
}

bool IntrinsicTable::contains(const std::string& name) const {
  return table_->count(name) != 0;
}

const IntrinsicFn& IntrinsicTable::get(const std::string& name) const {
  const auto it = table_->find(name);
  MSV_CHECK_MSG(it != table_->end(), "unknown intrinsic " + name);
  return it->second;
}

namespace {

IntrinsicTable build_defaults() {
  IntrinsicTable t;

  t.add("compute_fft", [](ExecContext& ctx, std::vector<rt::Value>& args) {
    MSV_CHECK_MSG(args.size() == 1, "compute_fft(mb)");
    const std::uint64_t doubles =
        static_cast<std::uint64_t>(args[0].as_i64()) * (1 << 20) / 8;
    Rng rng(doubles ^ 0x5eed);
    const auto r =
        kernels::fft(ctx.env(), ctx.isolate().domain(), doubles, rng);
    return rt::Value(r.checksum);
  });

  t.add("io_write", [](ExecContext& ctx, std::vector<rt::Value>& args) {
    MSV_CHECK_MSG(args.size() == 2, "io_write(path, bytes)");
    const std::string& path = args[0].as_string();
    const std::uint64_t bytes = static_cast<std::uint64_t>(args[1].as_i64());
    // The naive Java idiom: a fresh FileOutputStream per record. Stream
    // construction, buffer setup and finalizer registration cost ~40 us on
    // either side of the boundary.
    ctx.charge(150'000);
    const std::vector<std::uint8_t> buf(bytes, 0x5a);
    const auto id = ctx.io().open(path, vfs::OpenMode::kAppend);
    ctx.io().write(id, buf.data(), buf.size());
    ctx.io().close(id);
    return rt::Value(static_cast<std::int64_t>(bytes));
  });

  t.add("io_read", [](ExecContext& ctx, std::vector<rt::Value>& args) {
    MSV_CHECK_MSG(args.size() == 2, "io_read(path, bytes)");
    const std::string& path = args[0].as_string();
    const std::uint64_t bytes = static_cast<std::uint64_t>(args[1].as_i64());
    ctx.charge(110'000);  // FileInputStream setup, as for io_write
    std::vector<std::uint8_t> buf(bytes);
    const auto id = ctx.io().open(path, vfs::OpenMode::kRead);
    const std::uint64_t got = ctx.io().read(id, buf.data(), buf.size());
    ctx.io().close(id);
    return rt::Value(static_cast<std::int64_t>(got));
  });

  t.add("busy", [](ExecContext& ctx, std::vector<rt::Value>& args) {
    MSV_CHECK_MSG(args.size() == 1, "busy(cycles)");
    ctx.charge(static_cast<Cycles>(args[0].as_i64()));
    return rt::Value();
  });

  t.add("print", [](ExecContext&, std::vector<rt::Value>& args) {
    std::string line;
    for (const auto& a : args) {
      if (!line.empty()) line += " ";
      line += a.type() == rt::ValueType::kString ? a.as_string()
                                                 : a.to_debug_string();
    }
    std::puts(line.c_str());
    return rt::Value();
  });

  t.add("str_concat", [](ExecContext&, std::vector<rt::Value>& args) {
    MSV_CHECK_MSG(args.size() == 2, "str_concat(a, b)");
    return rt::Value(args[0].as_string() + args[1].as_string());
  });

  t.add("to_string", [](ExecContext&, std::vector<rt::Value>& args) {
    MSV_CHECK_MSG(args.size() == 1, "to_string(v)");
    if (args[0].type() == rt::ValueType::kString) return args[0];
    return rt::Value(args[0].to_debug_string());
  });

  // Models enclave-confined material: sealed-key derivation or hardware
  // entropy available only inside the enclave. The value is a deterministic
  // function of the tag (the simulation must replay bit-identically); what
  // matters to the toolchain is that analysis/trust.h treats the result as
  // kSecret (TrustOptions::secret_intrinsics), so classes storing it must
  // stay inside the enclave under any proposed re-partitioning.
  t.add("enclave_secret", [](ExecContext& ctx, std::vector<rt::Value>& args) {
    MSV_CHECK_MSG(args.size() == 1, "enclave_secret(tag)");
    ctx.charge(4'000);  // EGETKEY-style key derivation latency
    Rng rng(static_cast<std::uint64_t>(args[0].as_i64()) ^ 0xeb5c1a7e);
    return rt::Value(static_cast<std::int64_t>(rng.next_u64()));
  });

  return t;
}

}  // namespace

IntrinsicTable IntrinsicTable::defaults() {
  static const IntrinsicTable table = build_defaults();
  return table;
}

}  // namespace msv::interp
