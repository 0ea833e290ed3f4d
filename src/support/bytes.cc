#include "support/bytes.h"

#include <cstring>

#include "support/error.h"

namespace msv {

void ByteBuffer::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void ByteBuffer::put_string(std::string_view s) {
  put_varint(s.size());
  put_bytes(s.data(), s.size());
}

void ByteReader::fail_truncated() {
  throw RuntimeFault("ByteReader: truncated input");
}

void ByteReader::fail_varint() {
  throw RuntimeFault("ByteReader: varint too long");
}

void ByteReader::seek(std::size_t pos) {
  MSV_CHECK_MSG(pos <= size_, "ByteReader::seek out of range");
  pos_ = pos;
}

double ByteReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void ByteReader::get_bytes(void* p, std::size_t n) {
  need(n);
  // An empty field may come with a null destination (the data() of an
  // empty vector); memcpy requires valid pointers even for zero bytes.
  if (n == 0) return;
  std::memcpy(p, data_ + pos_, n);
  pos_ += n;
}

std::string ByteReader::get_string() {
  const std::uint64_t n = get_varint();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace msv
