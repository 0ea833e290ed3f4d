// Intrinsic functions callable from bytecode (Op::kIntrinsic).
//
// These model the "library" work the paper's synthetic workloads perform —
// CPU-intensive kernels (FFT over a 1 MB double array) and I/O-intensive
// operations (4 KB file writes), §6.5 — plus small helpers used by tests
// and examples. Application-specific intrinsics can be registered on top.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/value.h"

namespace msv::interp {

class ExecContext;

using IntrinsicFn =
    std::function<rt::Value(ExecContext&, std::vector<rt::Value>&)>;

// Copies share one map until a copy add()s to it, so the nine execution
// contexts of an eight-tenant app hold one default table between them.
class IntrinsicTable {
 public:
  void add(const std::string& name, IntrinsicFn fn);
  bool contains(const std::string& name) const;
  const IntrinsicFn& get(const std::string& name) const;

  // The default table:
  //   compute_fft(mb)        — FFT over a `mb`-megabyte double array
  //   io_write(path, bytes)  — appends `bytes` of data to `path`
  //   io_read(path, bytes)   — reads up to `bytes` from `path`
  //   busy(cycles)           — pure CPU spin of `cycles`
  //   print(value)           — debug output (no-op cost-wise)
  //   str_concat(a, b)       — string concatenation
  //   to_string(v)           — number to string
  // The table is a pure function of constants: it is built once per
  // process, and every call returns a copy sharing it.
  static IntrinsicTable defaults();

 private:
  using Map = std::map<std::string, IntrinsicFn>;
  std::shared_ptr<const Map> table_ = std::make_shared<const Map>();
};

}  // namespace msv::interp
