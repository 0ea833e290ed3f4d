#include "shim/enclave_shim.h"

#include <string>

#include "support/error.h"

namespace msv::shim {

EnclaveShim::EnclaveShim(Env& env, sgx::TransitionBridge& bridge, HostIo& host,
                         MemoryDomain& enclave_domain)
    : env_(env), bridge_(bridge), host_(host), enclave_domain_(enclave_domain) {
  ids_.fill(sgx::kNoCallId);
}

const sgx::EdlInterface& EnclaveShim::edl_interface() {
  static const sgx::EdlInterface kShim = [] {
    // Every relay passes a marshalled request in and a response buffer out.
    const std::vector<sgx::EdlParam> params = {
        {"const uint8_t*", "req", sgx::EdlDirection::kIn, "req_len"},
        {"size_t", "req_len", sgx::EdlDirection::kIn, ""},
        {"uint8_t*", "resp", sgx::EdlDirection::kOut, "resp_len"},
        {"size_t", "resp_len", sgx::EdlDirection::kIn, ""},
    };
    sgx::EdlInterface shim;
    // Indexed by Ocall.
    for (const char* name :
         {"ocall_fopen", "ocall_fwrite", "ocall_fread", "ocall_fseek",
          "ocall_fflush", "ocall_fclose", "ocall_access", "ocall_stat",
          "ocall_unlink", "ocall_listdir", "ocall_mmap", "ocall_mmap_fetch"}) {
      shim.untrusted.push_back({name, "long", params});
    }
    MSV_CHECK(shim.untrusted.size() == kOcallCount);
    return shim;
  }();
  return kShim;
}

void EnclaveShim::register_ocalls() {
  MSV_CHECK_MSG(!registered_, "shim ocalls registered twice");
  registered_ = true;

  const auto add = [this](Ocall ocall, sgx::TransitionBridge::RawHandler h) {
    ids_[ocall] = bridge_.register_ocall_raw(
        edl_interface().untrusted[ocall].name, std::move(h));
  };
  add(kFopen, [this](ByteReader& r, ByteBuffer& out) {
    const std::string path = r.get_string();
    const auto mode = static_cast<vfs::OpenMode>(r.get_u8());
    out.put_u64(host_.open(path, mode));
  });
  add(kFwrite, [this](ByteReader& r, ByteBuffer&) {
    const FileId id = r.get_u64();
    const std::uint64_t len = r.get_varint();
    // The data is the call's [in, size=len] buffer, passed out of line:
    // the helper writes straight from it.
    const sgx::Payload data = bridge_.current_payload();
    if (len != data.size()) {
      throw RuntimeFault("ocall_fwrite: length " + std::to_string(len) +
                         " differs from its " + std::to_string(data.size()) +
                         "-byte buffer");
    }
    host_.write(id, data.data(), len);
  });
  add(kFread, [this](ByteReader& r, ByteBuffer& out) {
    const FileId id = r.get_u64();
    const std::uint64_t len = r.get_varint();
    std::vector<std::uint8_t> buf(len);
    const std::uint64_t got = host_.read(id, buf.data(), len);
    out.put_varint(got);
    out.put_bytes(buf.data(), got);
  });
  add(kFseek, [this](ByteReader& r, ByteBuffer&) {
    const FileId id = r.get_u64();
    host_.seek(id, r.get_u64());
  });
  add(kFflush, [this](ByteReader& r, ByteBuffer&) {
    host_.flush(r.get_u64());
  });
  add(kFclose, [this](ByteReader& r, ByteBuffer&) {
    host_.close(r.get_u64());
  });
  add(kAccess, [this](ByteReader& r, ByteBuffer& out) {
    out.put_u8(host_.exists(r.get_string()) ? 1 : 0);
  });
  add(kStat, [this](ByteReader& r, ByteBuffer& out) {
    out.put_u64(host_.file_size(r.get_string()));
  });
  add(kUnlink, [this](ByteReader& r, ByteBuffer&) {
    host_.remove(r.get_string());
  });
  add(kListdir, [this](ByteReader& r, ByteBuffer& out) {
    const auto names = host_.list(r.get_string());
    out.put_varint(names.size());
    for (const auto& n : names) out.put_string(n);
  });
  add(kMmap, [this](ByteReader& r, ByteBuffer& out) {
    // The helper validates the path; the enclave-side map() fetches pages
    // on demand through ocall_mmap_fetch.
    out.put_u64(host_.file_size(r.get_string()));
  });
  add(kMmapFetch, [this](ByteReader& r, ByteBuffer& out) {
    r.get_u64();  // page index; the helper reads it from its own mapping
    env_.clock.advance(env_.cost.soft_page_fault_cycles);
    // The page content travels back as the response payload; the bridge
    // charges the boundary copy.
    const std::vector<std::uint8_t> page(env_.cost.page_bytes, 0);
    out.put_bytes(page.data(), page.size());
  });
}

ByteBuffer EnclaveShim::relay(Ocall ocall, const ByteBuffer& request,
                              sgx::Payload payload) {
  ByteBuffer response;
  bridge_.ocall(ids_[ocall], request, response, payload);
  return response;
}

FileId EnclaveShim::open(const std::string& path, vfs::OpenMode mode) {
  ++stats_.opens;
  ByteBuffer req;
  req.put_string(path);
  req.put_u8(static_cast<std::uint8_t>(mode));
  ByteBuffer resp = relay(kFopen, req);
  ByteReader r(resp);
  return r.get_u64();
}

void EnclaveShim::write(FileId file, const void* buf, std::uint64_t len) {
  ++stats_.writes;
  stats_.bytes_written += len;
  ByteBuffer req;
  req.put_u64(file);
  req.put_varint(len);
  relay(kFwrite, req, {static_cast<const std::uint8_t*>(buf), len});
}

std::uint64_t EnclaveShim::read(FileId file, void* buf, std::uint64_t len) {
  ++stats_.reads;
  ByteBuffer req;
  req.put_u64(file);
  req.put_varint(len);
  ByteBuffer resp = relay(kFread, req);
  ByteReader r(resp);
  const std::uint64_t got = r.get_varint();
  MSV_CHECK_MSG(got <= len, "shim helper returned too many bytes");
  r.get_bytes(buf, got);
  stats_.bytes_read += got;
  return got;
}

void EnclaveShim::seek(FileId file, std::uint64_t pos) {
  ++stats_.other_calls;
  ByteBuffer req;
  req.put_u64(file);
  req.put_u64(pos);
  relay(kFseek, req);
}

void EnclaveShim::flush(FileId file) {
  ++stats_.other_calls;
  ByteBuffer req;
  req.put_u64(file);
  relay(kFflush, req);
}

void EnclaveShim::close(FileId file) {
  ++stats_.other_calls;
  ByteBuffer req;
  req.put_u64(file);
  relay(kFclose, req);
}

bool EnclaveShim::exists(const std::string& path) {
  ++stats_.other_calls;
  ByteBuffer req;
  req.put_string(path);
  ByteBuffer resp = relay(kAccess, req);
  ByteReader r(resp);
  return r.get_u8() != 0;
}

std::uint64_t EnclaveShim::file_size(const std::string& path) {
  ++stats_.other_calls;
  ByteBuffer req;
  req.put_string(path);
  ByteBuffer resp = relay(kStat, req);
  ByteReader r(resp);
  return r.get_u64();
}

void EnclaveShim::remove(const std::string& path) {
  ++stats_.other_calls;
  ByteBuffer req;
  req.put_string(path);
  relay(kUnlink, req);
}

std::vector<std::string> EnclaveShim::list(const std::string& prefix) {
  ++stats_.other_calls;
  ByteBuffer req;
  req.put_string(prefix);
  ByteBuffer resp = relay(kListdir, req);
  ByteReader r(resp);
  std::vector<std::string> names(r.get_varint());
  for (auto& n : names) n = r.get_string();
  return names;
}

std::shared_ptr<MappedFile> EnclaveShim::map(const std::string& path) {
  ++stats_.maps;
  ByteBuffer req;
  req.put_string(path);
  relay(kMmap, req);  // charges the ocall; validates existence
  // The snapshot itself is pulled page by page on first touch through an
  // ocall per page — the reader-side ocalls the paper counts in §6.5.
  return std::make_shared<MappedFile>(
      env_, enclave_domain_, env_.fs->map(path), path,
      [this](std::uint64_t page) {
        ByteBuffer req_page;
        req_page.put_u64(page);
        relay(kMmapFetch, req_page);
      });
}

}  // namespace msv::shim
