// The cycle-cost model behind all simulated latencies.
//
// Every interesting event in the simulation — an enclave transition, a byte
// copied across the boundary, an EPC page fault, a GC copy, a syscall —
// charges cycles to the VirtualClock according to the constants below. The
// defaults are calibrated against the numbers reported or cited by the paper
// (Middleware '21, §2.1 and §6) and against published SGX measurements:
//
//  * ecall/ocall hardware transition: "up to 13,100 cycles" (§2.1, citing
//    sgx-perf and HotCalls).
//  * GraalVM isolate attach on the callee side of a relayed call dominates
//    the end-to-end proxy cost; it is calibrated so that proxy creation is
//    ~4 orders of magnitude over concrete creation outside the enclave and
//    ~3 orders inside (Fig. 3).
//  * EPC page-in ≈ 10k cycles/page (EAUG/ELDU fast path; the worst-case
//    eviction+reload pair reported by VAULT/Eleos is the sum of both
//    constants).
//  * The MEE encrypts/decrypts cache lines between the CPU and the EPC; we
//    model it as a multiplier on DRAM-level memory traffic charged inside
//    the enclave (§6.5's explanation of CPU-intensive slowdown).
//
// The struct is deliberately plain data: benchmarks that sweep a parameter
// (e.g. the EPC-size ablation) copy it and adjust fields.
#pragma once

#include <cstdint>

#include "support/clock.h"

namespace msv {

struct CostModel {
  // ---- CPU ----
  double cpu_hz = 3.8e9;  // Xeon E3-1270 v6 (paper §6.1)

  // ---- SGX transitions (§2.1) ----
  Cycles ecall_cycles = 13'100;   // hardware enclave entry + exit
  Cycles ocall_cycles = 10'600;   // enclave exit + re-entry (slightly cheaper)
  // GraalVM isolate attach performed by the relay machinery on the callee
  // side of each cross-runtime call. Entering the *trusted* isolate is more
  // expensive: its thread-local structures live in EPC memory.
  Cycles isolate_attach_trusted_cycles = 480'000;   // ~126 us
  Cycles isolate_attach_untrusted_cycles = 120'000; // ~32 us
  // Edge-routine marshalling (Edger8r-generated bridge): per call and per
  // byte copied across the enclave boundary.
  Cycles edge_call_cycles = 600;
  double edge_copy_cycles_per_byte = 0.4;

  // ---- EPC / MEE (§2.1) ----
  std::uint64_t epc_usable_bytes = 93'500ull * 1024;  // 93.5 MB (§6.1)
  std::uint64_t page_bytes = 4096;
  Cycles epc_page_in_cycles = 10'000;  // EAUG+EACCEPT / ELDU path
  Cycles epc_page_out_cycles = 7'000;
  // Multiplier applied to DRAM-level memory-traffic charges issued by code
  // running inside the enclave (MEE encryption/decryption of cache lines,
  // plus driver-side effects). Calibrated so GC inside the enclave is about
  // an order of magnitude slower than outside (Fig. 5a).
  double mee_traffic_factor = 10.0;

  // ---- Enclave lifecycle ----
  Cycles enclave_create_base_cycles = 20'000'000;  // EINIT, TCS setup, ...
  double enclave_measure_cycles_per_byte = 2.0;    // EADD+EEXTEND hashing

  // ---- Managed runtime (GraalVM-native-image-like) ----
  Cycles alloc_cycles = 12;               // bump-pointer allocation
  double alloc_cycles_per_byte = 0.06;    // header init + zeroing
  Cycles field_access_cycles = 2;
  Cycles gc_base_cycles = 12'000;         // stop-the-world entry/exit
  double gc_copy_cycles_per_byte = 0.15;  // CPU work of the semispace copy
  // DRAM streaming cost per byte (~15 GB/s at 3.8 GHz); the MEE factor
  // multiplies this inside the enclave.
  double dram_cycles_per_byte = 0.25;
  Cycles gc_scan_root_cycles = 14;
  Cycles weakref_scan_entry_cycles = 9;
  Cycles registry_op_cycles = 120;        // mirror-proxy registry insert/get

  // ---- Neutral-object serialization (§5.2) ----
  // Per-element costs model Java object-stream serialization (~1 us per
  // boxed element), which is what drives Fig. 4b's x10 / x3 penalties.
  Cycles serialize_base_cycles = 900;
  Cycles serialize_element_cycles = 4'800;
  double serialize_cycles_per_byte = 1.1;
  Cycles deserialize_base_cycles = 1'100;
  Cycles deserialize_element_cycles = 5'600;
  double deserialize_cycles_per_byte = 1.3;

  // ---- Host OS (the real libc invoked by the shim helper, §5.4) ----
  Cycles syscall_base_cycles = 3'800;     // mode switch + VFS dispatch
  double io_write_cycles_per_byte = 0.55; // page-cache copy
  double io_read_cycles_per_byte = 0.45;
  Cycles file_open_cycles = 9'000;
  Cycles mmap_base_cycles = 14'000;
  Cycles soft_page_fault_cycles = 2'600;  // first touch of a mapped page

  // ---- Interpreter ----
  Cycles ir_op_cycles = 3;        // dispatch cost per executed IR instruction
  Cycles method_call_cycles = 14; // frame setup of a (local) method call

  // ---- Switchless calls (future work §7, HotCalls-style) ----
  Cycles switchless_call_cycles = 1'300;  // spinlock handshake, no transition
  // Futex wake of a sleeping switchless worker (the SDK's adaptive mode
  // parks idle workers instead of spinning): syscall + scheduler latency
  // paid once per wakeup, on top of the handshake. Busy-wait workers skip
  // this but burn their core while idle (tracked as idle_spin_cycles).
  Cycles switchless_wake_cycles = 8'000;

  // ---- JVM baseline (SCONE+JVM, §6.6) ----
  Cycles jvm_startup_cycles = 800'000'000;    // JVM boot, core classes, JIT
  Cycles jvm_class_load_cycles = 1'000'000;   // per application class
  double jvm_compute_factor = 1.35;   // residual interp/JIT-warmup overhead
  double jvm_alloc_factor = 2.1;      // object headers, boxing, card marks
  double jvm_heap_bloat_factor = 2.4; // live-heap expansion vs native image
  // HotSpot's generational collector is far more efficient than the native
  // image's serial semispace GC on allocation-heavy workloads (§6.6, [28],
  // Table 1's Monte_Carlo row): a scavenge touches only young survivors
  // while the serial GC re-copies the entire live window every collection.
  // This rescales the measured NI GC share for the JVM estimate.
  double jvm_gc_efficiency = 0.05;
  // SCONE adds its own shielding layer on syscalls.
  double scone_syscall_factor = 1.8;

  // Model calibrated to the paper's testbed; identical to the defaults.
  static CostModel paper() { return CostModel{}; }

  Cycles seconds_to_cycles(double s) const {
    return static_cast<Cycles>(s * cpu_hz);
  }
  // The isolate attach a call pays entering the callee's isolate.
  Cycles isolate_attach_cycles(bool trusted) const {
    return trusted ? isolate_attach_trusted_cycles
                   : isolate_attach_untrusted_cycles;
  }
};

}  // namespace msv
