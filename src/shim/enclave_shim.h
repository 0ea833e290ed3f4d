// Montsalvat's in-enclave shim library (§5.4).
//
// Each libc routine that cannot execute inside an enclave is redefined as a
// wrapper that marshals its arguments and performs an ocall to the shim
// helper (a HostIo on the untrusted side). This module registers one ocall
// per relayed routine — so the bridge statistics directly expose per-call
// ocall counts like the paper's "23x more ocalls" observation — and
// contributes the corresponding entries to the application's EDL. Both come
// from one table, edl_interface(), built once per process: the same shim
// is linked into every enclave.
//
// Compared to library-OS approaches the shim is tiny; shim_code_bytes() is
// what the TCB report charges for it.
#pragma once

#include <array>

#include "sgx/bridge.h"
#include "sgx/edl.h"
#include "shim/host_io.h"
#include "shim/io_service.h"

namespace msv::shim {

class EnclaveShim final : public IoService {
 public:
  // `host` is the shim helper on the untrusted side; `enclave_domain` is
  // the memory domain of the trusted runtime (mapped files read from the
  // enclave pay enclave costs).
  EnclaveShim(Env& env, sgx::TransitionBridge& bridge, HostIo& host,
              MemoryDomain& enclave_domain);

  // Registers the ocall handlers on the bridge and keeps their interned
  // IDs, through which every relayed call dispatches. Must be called once,
  // before any relayed call.
  void register_ocalls();

  // The shim's ocalls, one per relayed routine, indexed by Ocall: the
  // one definition of their names and signatures.
  static const sgx::EdlInterface& edl_interface();
  // Links the shim's ocalls into the enclave's EDL.
  static void add_edl_entries(sgx::EdlSpec& edl) {
    edl.link(edl_interface());
  }

  // Size of the shim library linked into the enclave (vs. the millions of
  // LoC of a library OS — §1, §5.4).
  static std::uint64_t shim_code_bytes() { return 48ull << 10; }

  FileId open(const std::string& path, vfs::OpenMode mode) override;
  void write(FileId file, const void* buf, std::uint64_t len) override;
  std::uint64_t read(FileId file, void* buf, std::uint64_t len) override;
  void seek(FileId file, std::uint64_t pos) override;
  void flush(FileId file) override;
  void close(FileId file) override;
  bool exists(const std::string& path) override;
  std::uint64_t file_size(const std::string& path) override;
  void remove(const std::string& path) override;
  std::vector<std::string> list(const std::string& prefix) override;
  std::shared_ptr<MappedFile> map(const std::string& path) override;

  const IoStats& stats() const override { return stats_; }

 private:
  // The relayed routines, in EDL order (edl_interface()).
  enum Ocall : std::size_t {
    kFopen,
    kFwrite,
    kFread,
    kFseek,
    kFflush,
    kFclose,
    kAccess,
    kStat,
    kUnlink,
    kListdir,
    kMmap,
    kMmapFetch,
    kOcallCount
  };

  ByteBuffer relay(Ocall ocall, const ByteBuffer& request,
                   sgx::Payload payload = {});

  Env& env_;
  sgx::TransitionBridge& bridge_;
  HostIo& host_;
  MemoryDomain& enclave_domain_;
  IoStats stats_;
  bool registered_ = false;
  // Bridge IDs indexed by Ocall, set by register_ocalls().
  std::array<sgx::CallId, kOcallCount> ids_;
};

}  // namespace msv::shim
