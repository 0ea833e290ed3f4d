// Enclave Definition Language model + Edger8r-style generation (§2.1, §5.3).
//
// Montsalvat's SGX code generator emits an EDL file describing every ecall
// and ocall (the relay transitions plus the shim's libc relays), and the
// Intel SDK's Edger8r turns that file into C bridge routines. This module
// reproduces both artifacts: EdlSpec::to_edl_text() renders the .edl source,
// and Edger8r renders the C stubs (as text, for inspection and the SGX
// module's "link" step) and counts the generated routines. The trusted
// source is the one output the enclave measurement covers; the header and
// the untrusted source are rendered only when asked for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace msv::sgx {

enum class EdlDirection { kIn, kOut, kInOut, kUserCheck };

struct EdlParam {
  std::string c_type;  // e.g. "int", "const char*"
  std::string name;
  EdlDirection direction = EdlDirection::kIn;
  // For pointer parameters: the name of the size expression, empty for
  // value parameters.
  std::string size_expr;

  bool is_pointer() const { return c_type.find('*') != std::string::npos; }
};

struct EdlFunction {
  std::string name;
  std::string return_type = "void";
  std::vector<EdlParam> params;
};

// A part of an enclave interface that no application changes: the shim's
// libc relays, the GC helper. Each is defined once per process, as the
// real shim and GC helper are compiled once and linked into every enclave,
// and an EdlSpec links it by reference instead of copying its functions.
struct EdlInterface {
  std::vector<EdlFunction> trusted;
  std::vector<EdlFunction> untrusted;
};

// The interface of one enclave: trusted functions are ecalls, untrusted
// functions are ocalls. Each side lists the spec's own functions first,
// then those of every linked interface, in link order.
struct EdlSpec {
  std::string enclave_name;
  std::vector<EdlFunction> trusted;
  std::vector<EdlFunction> untrusted;
  std::vector<const EdlInterface*> linked;
  // Marks every function, linked ones included, transition_using_threads
  // (AppConfig::switchless_relays).
  bool switchless = false;

  void add_ecall(EdlFunction fn) { trusted.push_back(std::move(fn)); }
  void add_ocall(EdlFunction fn) { untrusted.push_back(std::move(fn)); }
  // `iface` must outlive the spec.
  void link(const EdlInterface& iface) { linked.push_back(&iface); }
  bool has_ecall(const std::string& name) const;
  bool has_ocall(const std::string& name) const;
  std::size_t function_count() const;

  // Renders the .edl source text.
  std::string to_edl_text() const;
};

// Generated bridge code for one enclave interface.
struct EdgeRoutines {
  std::string trusted_source;    // <name>_t.c — ecall dispatch + ocall stubs
  std::string untrusted_source;  // <name>_u.c — ecall stubs + ocall dispatch
  std::string header;            // shared prototypes
  std::uint64_t routine_count = 0;
};

// The Edger8r tool: EDL in, C bridge routines out.
EdgeRoutines edger8r_generate(const EdlSpec& spec);
// Just <name>_t.c, byte-identical to edger8r_generate's: the one output
// the enclave measurement covers, so the one a launch renders.
std::string edger8r_trusted_source(const EdlSpec& spec);

}  // namespace msv::sgx
