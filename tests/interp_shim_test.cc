// Unit tests for src/interp (IR interpreter, intrinsics) and src/shim
// (host I/O and the enclave shim).
#include <gtest/gtest.h>

#include "interp/exec_context.h"
#include "model/ir.h"
#include "sgx/bridge.h"
#include "sgx/enclave.h"
#include "shim/enclave_shim.h"
#include "shim/host_io.h"

namespace msv {
namespace {

using interp::ExecContext;
using interp::IntrinsicTable;
using model::IrBuilder;
using rt::Value;

class InterpTest : public ::testing::Test {
 protected:
  InterpTest()
      : domain_(env_),
        iso_(env_, domain_, rt::Isolate::Config{"interp", 8 << 20}),
        io_(env_, domain_) {}

  ExecContext make_ctx() {
    return ExecContext(env_, iso_, app_, io_, IntrinsicTable::defaults());
  }

  Env env_;
  UntrustedDomain domain_;
  rt::Isolate iso_;
  shim::HostIo io_;
  model::AppModel app_;
};

TEST_F(InterpTest, ArithmeticAndLocals) {
  auto& c = app_.add_class("Math");
  // static f(a, b) { return a * b + 3; }
  c.add_static_method("f", 2).body(IrBuilder()
                                       .locals(2)
                                       .load_local(0)
                                       .load_local(1)
                                       .mul()
                                       .const_val(Value(std::int32_t{3}))
                                       .add()
                                       .ret()
                                       .build());
  auto ctx = make_ctx();
  EXPECT_EQ(
      ctx.invoke_static("Math", "f", {Value(std::int32_t{6}), Value(std::int32_t{7})})
          .as_i32(),
      45);
}

TEST_F(InterpTest, NumericPromotion) {
  auto& c = app_.add_class("Math");
  c.add_static_method("mix", 2).body(
      IrBuilder().locals(2).load_local(0).load_local(1).add().ret().build());
  auto ctx = make_ctx();
  EXPECT_DOUBLE_EQ(
      ctx.invoke_static("Math", "mix", {Value(std::int32_t{1}), Value(0.5)})
          .as_f64(),
      1.5);
  EXPECT_EQ(ctx.invoke_static("Math", "mix",
                              {Value(std::int64_t{1} << 40), Value(std::int32_t{1})})
                .as_i64(),
            (std::int64_t{1} << 40) + 1);
}

TEST_F(InterpTest, LoopViaBranches) {
  // static sum(n) { s = 0; i = 0; while (i < n) { s += i; i += 1; } return s; }
  auto& c = app_.add_class("Loop");
  IrBuilder b;
  const auto head = b.new_label();
  const auto end = b.new_label();
  b.locals(3)
      .const_val(Value(std::int32_t{0}))
      .store_local(1)  // s
      .const_val(Value(std::int32_t{0}))
      .store_local(2)  // i
      .bind(head)
      .load_local(2)
      .load_local(0)
      .lt()
      .branch_false(end)
      .load_local(1)
      .load_local(2)
      .add()
      .store_local(1)
      .load_local(2)
      .const_val(Value(std::int32_t{1}))
      .add()
      .store_local(2)
      .jump(head)
      .bind(end)
      .load_local(1)
      .ret();
  c.add_static_method("sum", 1).body(b.build());
  auto ctx = make_ctx();
  EXPECT_EQ(ctx.invoke_static("Loop", "sum", {Value(std::int32_t{100})}).as_i32(),
            4950);
  EXPECT_GT(ctx.stats().ir_ops, 1000u);
}

TEST_F(InterpTest, DivisionByZeroThrows) {
  auto& c = app_.add_class("Math");
  c.add_static_method("div", 2).body(
      IrBuilder().locals(2).load_local(0).load_local(1).div().ret().build());
  auto ctx = make_ctx();
  EXPECT_THROW(ctx.invoke_static("Math", "div",
                                 {Value(std::int32_t{1}), Value(std::int32_t{0})}),
               RuntimeFault);
}

TEST_F(InterpTest, EqComparesStringsAndRefs) {
  auto& c = app_.add_class("Cmp");
  c.add_static_method("eq", 2).body(
      IrBuilder().locals(2).load_local(0).load_local(1).eq().ret().build());
  auto ctx = make_ctx();
  EXPECT_TRUE(
      ctx.invoke_static("Cmp", "eq", {Value("a"), Value("a")}).as_bool());
  EXPECT_FALSE(
      ctx.invoke_static("Cmp", "eq", {Value("a"), Value("b")}).as_bool());
  EXPECT_TRUE(ctx.invoke_static("Cmp", "eq", {Value(), Value()}).as_bool());
}

TEST_F(InterpTest, WrongArgumentCountThrows) {
  auto& c = app_.add_class("C");
  c.add_static_method("f", 2).body(IrBuilder().ret_void().build());
  auto ctx = make_ctx();
  EXPECT_THROW(ctx.invoke_static("C", "f", {Value(std::int32_t{1})}),
               RuntimeFault);
}

TEST_F(InterpTest, UnknownMethodOrClassThrows) {
  app_.add_class("C");
  auto ctx = make_ctx();
  EXPECT_THROW(ctx.invoke_static("C", "ghost", {}), RuntimeFault);
  EXPECT_THROW(ctx.construct("Ghost", {}), Error);
}

TEST_F(InterpTest, OperandStackUnderflowDetected) {
  auto& c = app_.add_class("Bad");
  c.add_static_method("f", 0).body(IrBuilder().pop().ret_void().build());
  auto ctx = make_ctx();
  EXPECT_THROW(ctx.invoke_static("Bad", "f", {}), RuntimeFault);
}

TEST_F(InterpTest, IntrinsicBusyChargesExactCycles) {
  auto& c = app_.add_class("C");
  c.add_static_method("f", 0).body(IrBuilder()
                                       .const_val(Value(std::int64_t{100'000}))
                                       .intrinsic("busy", 1)
                                       .ret_void()
                                       .build());
  auto ctx = make_ctx();
  const Cycles t0 = env_.clock.now();
  ctx.invoke_static("C", "f", {});
  EXPECT_GE(env_.clock.now() - t0, 100'000u);
}

TEST_F(InterpTest, IoIntrinsicsWriteAndReadViaService) {
  auto& c = app_.add_class("C");
  c.add_static_method("w", 0).body(IrBuilder()
                                       .const_val(Value("f.dat"))
                                       .const_val(Value(std::int64_t{4096}))
                                       .intrinsic("io_write", 2)
                                       .ret()
                                       .build());
  auto ctx = make_ctx();
  EXPECT_EQ(ctx.invoke_static("C", "w", {}).as_i64(), 4096);
  EXPECT_TRUE(env_.fs->exists("f.dat"));
  EXPECT_EQ(io_.stats().writes, 1u);
}

TEST_F(InterpTest, StringIntrinsics) {
  auto& c = app_.add_class("C");
  c.add_static_method("f", 0).body(IrBuilder()
                                       .const_val(Value("foo"))
                                       .const_val(Value("bar"))
                                       .intrinsic("str_concat", 2)
                                       .ret()
                                       .build());
  auto ctx = make_ctx();
  EXPECT_EQ(ctx.invoke_static("C", "f", {}).as_string(), "foobar");
}

TEST_F(InterpTest, UnknownIntrinsicThrows) {
  auto& c = app_.add_class("C");
  c.add_static_method("f", 0).body(
      IrBuilder().intrinsic("warp_drive", 0).ret_void().build());
  auto ctx = make_ctx();
  EXPECT_THROW(ctx.invoke_static("C", "f", {}), RuntimeFault);
}

TEST_F(InterpTest, CustomIntrinsicsCanBeRegistered) {
  auto& c = app_.add_class("C");
  c.add_static_method("f", 0).body(
      IrBuilder().intrinsic("answer", 0).ret().build());
  IntrinsicTable table = IntrinsicTable::defaults();
  table.add("answer", [](ExecContext&, std::vector<Value>&) {
    return Value(std::int32_t{42});
  });
  ExecContext ctx(env_, iso_, app_, io_, std::move(table));
  EXPECT_EQ(ctx.invoke_static("C", "f", {}).as_i32(), 42);
}

// ---- shim ------------------------------------------------------------------

class ShimTest : public ::testing::Test {
 protected:
  ShimTest()
      : untrusted_(env_),
        enclave_(env_, "e", Sha256::hash("img"), 4096),
        host_(env_, untrusted_) {
    enclave_.init(Sha256::hash("img"));
    trusted_ = std::make_unique<sgx::EnclaveDomain>(env_, enclave_);
    bridge_ = std::make_unique<sgx::TransitionBridge>(env_, enclave_);
    shim_ = std::make_unique<shim::EnclaveShim>(env_, *bridge_, host_,
                                                *trusted_);
    shim_->register_ocalls();
  }

  // Runs `fn` "inside the enclave" through a test ecall.
  void in_enclave(const std::function<void()>& fn) {
    if (!bridge_->has_ecall("test_enter")) {
      test_enter_id_ = bridge_->register_ecall("test_enter", [this](ByteReader&) {
        (*pending_)();
        return ByteBuffer();
      });
    }
    pending_ = &fn;
    ByteBuffer resp;
    bridge_->ecall(test_enter_id_, ByteBuffer(), resp);
    pending_ = nullptr;
  }

  Env env_;
  UntrustedDomain untrusted_;
  sgx::Enclave enclave_;
  shim::HostIo host_;
  std::unique_ptr<sgx::EnclaveDomain> trusted_;
  std::unique_ptr<sgx::TransitionBridge> bridge_;
  std::unique_ptr<shim::EnclaveShim> shim_;
  const std::function<void()>* pending_ = nullptr;
  sgx::CallId test_enter_id_ = sgx::kNoCallId;
};

TEST_F(ShimTest, FileRoundTripThroughOcalls) {
  in_enclave([&] {
    const auto f = shim_->open("secret.bin", vfs::OpenMode::kWrite);
    shim_->write(f, "classified", 10);
    shim_->flush(f);
    shim_->close(f);
  });
  // The data landed in the *untrusted* filesystem via the helper.
  EXPECT_TRUE(env_.fs->exists("secret.bin"));
  EXPECT_EQ(env_.fs->file_size("secret.bin"), 10u);

  in_enclave([&] {
    const auto f = shim_->open("secret.bin", vfs::OpenMode::kRead);
    char buf[16] = {};
    EXPECT_EQ(shim_->read(f, buf, sizeof(buf)), 10u);
    EXPECT_STREQ(buf, "classified");
    shim_->close(f);
  });
  EXPECT_GE(bridge_->stats().ocalls, 7u);
}

TEST_F(ShimTest, MetadataCallsRelayed) {
  env_.fs->open("a.txt", vfs::OpenMode::kWrite)->write("xy", 2);
  in_enclave([&] {
    EXPECT_TRUE(shim_->exists("a.txt"));
    EXPECT_FALSE(shim_->exists("b.txt"));
    EXPECT_EQ(shim_->file_size("a.txt"), 2u);
    EXPECT_EQ(shim_->list("a").size(), 1u);
    shim_->remove("a.txt");
  });
  EXPECT_FALSE(env_.fs->exists("a.txt"));
}

TEST_F(ShimTest, FwriteLengthPrefixPastPayloadRejected) {
  in_enclave([&] {
    const auto f = shim_->open("short.bin", vfs::OpenMode::kWrite);
    ByteBuffer req;
    req.put_u64(f);
    req.put_varint(64);  // claims 64 bytes ...
    req.put_bytes("ten bytes.", 10);  // ... but carries 10
    ByteBuffer resp;
    EXPECT_THROW(bridge_->ocall(bridge_->ocall_id("ocall_fwrite"), req, resp),
                 RuntimeFault);
    shim_->close(f);
  });
  EXPECT_EQ(env_.fs->file_size("short.bin"), 0u);
  EXPECT_EQ(host_.stats().writes, 0u);
}

TEST_F(ShimTest, FwriteLengthDifferingFromBufferRejected) {
  const std::uint8_t data[10] = {};
  in_enclave([&] {
    const auto f = shim_->open("mismatch.bin", vfs::OpenMode::kWrite);
    for (const std::uint64_t declared : {11u, 64u, 9u, 0u}) {
      ByteBuffer req;
      req.put_u64(f);
      req.put_varint(declared);
      ByteBuffer resp;
      EXPECT_THROW(bridge_->ocall(bridge_->ocall_id("ocall_fwrite"), req,
                                  resp, data),
                   RuntimeFault)
          << "declared " << declared << " bytes for a 10-byte buffer";
    }
    shim_->close(f);
  });
  EXPECT_EQ(env_.fs->file_size("mismatch.bin"), 0u);
  EXPECT_EQ(host_.stats().writes, 0u);
}

TEST_F(ShimTest, ShimCallsOutsideEnclaveFault) {
  EXPECT_THROW(shim_->open("x", vfs::OpenMode::kWrite), SecurityFault)
      << "the shim's ocalls only work from the trusted side";
}

TEST_F(ShimTest, MappedReadsFetchPagesViaOcalls) {
  {
    auto f = env_.fs->open("data.bin", vfs::OpenMode::kWrite);
    const std::vector<std::uint8_t> content(20'000, 0x7e);
    f->write(content.data(), content.size());
  }
  in_enclave([&] {
    auto map = shim_->map("data.bin");
    std::uint8_t buf[64];
    map->read(0, buf, sizeof(buf));
    EXPECT_EQ(buf[0], 0x7e);
    map->read(15'000, buf, sizeof(buf));  // another page
    EXPECT_EQ(map->pages_touched(), 2u);
  });
  EXPECT_EQ(bridge_->stats().per_call.at("ocall_mmap_fetch").calls, 2u);
}

TEST_F(ShimTest, MappedReadOutOfRangeThrows) {
  env_.fs->open("tiny.bin", vfs::OpenMode::kWrite)->write("ab", 2);
  in_enclave([&] {
    auto map = shim_->map("tiny.bin");
    std::uint8_t buf[8];
    EXPECT_THROW(map->read(0, buf, 8), RuntimeFault);
  });
}

TEST_F(ShimTest, MappedReadRangeCheckDoesNotWrap) {
  const std::string content(64, 'm');
  env_.fs->open("m.bin", vfs::OpenMode::kWrite)
      ->write(content.data(), content.size());
  auto map = host_.map("m.bin");
  std::uint8_t buf[16];
  // offset + len wraps to 8, inside the file; the read must still fail.
  EXPECT_THROW(map->read(~std::uint64_t{0} - 7, buf, 16), RuntimeFault);
  EXPECT_THROW(map->read(65, buf, 0), RuntimeFault);
  map->read(64, buf, 0);
  EXPECT_EQ(map->pages_touched(), 0u);
}

TEST_F(ShimTest, HostIoRejectsClosedFile) {
  const auto f = host_.open("h.bin", vfs::OpenMode::kWrite);
  host_.close(f);
  char c;
  EXPECT_THROW(host_.read(f, &c, 1), RuntimeFault);
}

TEST_F(ShimTest, StatsTrackBytes) {
  const auto f = host_.open("s.bin", vfs::OpenMode::kWrite);
  host_.write(f, "12345", 5);
  host_.close(f);
  EXPECT_EQ(host_.stats().bytes_written, 5u);
  EXPECT_EQ(host_.stats().writes, 1u);
  EXPECT_EQ(host_.stats().opens, 1u);
}

}  // namespace
}  // namespace msv
