// montsalvatc — the Montsalvat command-line tool.
//
// Takes a program in the Montsalvat source language (see src/dsl), runs
// the partitioning workflow of Fig. 1, and either executes the resulting
// SGX application or emits its build artifacts.
//
// Usage:
//   montsalvatc <file.msv> [options]
//     --run            run the partitioned application (default)
//     --run-native     run without SGX (NoSGX-NI)
//     --run-enclave    run unpartitioned inside the enclave (§5.6)
//     --emit-edl       print the generated EDL
//     --emit-bridges   print the Edger8r-generated bridge sources
//     --emit-images    print the image inventory (classes, sizes, pruning)
//     --tcb            print the TCB report
//     --profile        print the sgx-perf-style transition profile after --run
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/montsalvat.h"
#include "dsl/parser.h"
#include "sgx/profiler.h"
#include "support/stats.h"

namespace {

using namespace msv;

int usage() {
  std::fputs(
      "usage: montsalvatc <file.msv> [--run | --run-native | --run-enclave]\n"
      "                   [--emit-edl] [--emit-bridges] [--emit-images]\n"
      "                   [--tcb] [--profile]\n",
      stderr);
  return 2;
}

void print_image(const xform::NativeImage& image) {
  std::printf("%s (%s): %zu classes, %zu methods, %s",
              image.name.c_str(), image.object_file.c_str(),
              image.class_count(), image.method_count(),
              format_bytes(static_cast<double>(image.total_bytes())).c_str());
  if (image.pruned_proxy_count > 0) {
    std::printf(", %zu unreachable proxies pruned", image.pruned_proxy_count);
  }
  std::printf("\n");
  for (const auto& cls : image.classes.classes()) {
    std::printf("  %-20s %-11s %zu methods%s\n", cls.name().c_str(),
                model::annotation_name(cls.annotation()),
                cls.methods().size(), cls.is_proxy() ? "  [proxy]" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string path = argv[1];
  bool run = false, run_native = false, run_enclave = false;
  bool emit_edl = false, emit_bridges = false, emit_images = false;
  bool tcb = false, profile = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--run") {
      run = true;
    } else if (arg == "--run-native") {
      run_native = true;
    } else if (arg == "--run-enclave") {
      run_enclave = true;
    } else if (arg == "--emit-edl") {
      emit_edl = true;
    } else if (arg == "--emit-bridges") {
      emit_bridges = true;
    } else if (arg == "--emit-images") {
      emit_images = true;
    } else if (arg == "--tcb") {
      tcb = true;
    } else if (arg == "--profile") {
      profile = true;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (!run_native && !run_enclave && !emit_edl && !emit_bridges &&
      !emit_images && !tcb) {
    run = true;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "montsalvatc: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();

  try {
    const model::AppModel app = dsl::parse_program(source.str());

    if (run_native) {
      core::NativeApp native(app);
      native.run_main();
      std::printf("[montsalvatc] NoSGX run: %s simulated\n",
                  format_seconds(native.now_seconds()).c_str());
      return 0;
    }
    if (run_enclave) {
      core::UnpartitionedApp enclave_app(app);
      enclave_app.run_main();
      std::printf("[montsalvatc] unpartitioned in-enclave run: %s simulated, "
                  "%llu ocalls\n",
                  format_seconds(enclave_app.now_seconds()).c_str(),
                  static_cast<unsigned long long>(
                      enclave_app.bridge().stats().ocalls));
      return 0;
    }

    core::PartitionedApp sgx_app(app);
    if (emit_edl) {
      std::fputs(sgx_app.edl().to_edl_text().c_str(), stdout);
    }
    if (emit_bridges) {
      const sgx::EdgeRoutines edge = sgx_app.edge_routines();
      std::fputs(edge.header.c_str(), stdout);
      std::fputs(edge.trusted_source.c_str(), stdout);
      std::fputs(edge.untrusted_source.c_str(), stdout);
    }
    if (emit_images) {
      print_image(sgx_app.trusted_image());
      print_image(sgx_app.untrusted_image());
    }
    if (tcb) {
      const core::TcbReport report = sgx_app.tcb_report();
      std::printf(
          "TCB: %s total = app %s + runtime %s + shim %s + image heap %s; "
          "%zu trusted classes, %zu methods, %zu EDL functions\n",
          format_bytes(static_cast<double>(report.total_bytes())).c_str(),
          format_bytes(static_cast<double>(report.app_code_bytes)).c_str(),
          format_bytes(static_cast<double>(report.runtime_code_bytes)).c_str(),
          format_bytes(static_cast<double>(report.shim_bytes)).c_str(),
          format_bytes(static_cast<double>(report.image_heap_bytes)).c_str(),
          report.trusted_classes, report.trusted_methods,
          report.edl_functions);
    }
    if (run) {
      sgx_app.run_main();
      std::printf(
          "[montsalvatc] partitioned run: %s simulated, %llu ecalls, "
          "%llu ocalls, %zu mirrors in the enclave\n",
          format_seconds(sgx_app.now_seconds()).c_str(),
          static_cast<unsigned long long>(sgx_app.bridge().stats().ecalls),
          static_cast<unsigned long long>(sgx_app.bridge().stats().ocalls),
          sgx_app.rmi().registry(Side::kTrusted).size());
      if (profile) {
        const auto prof = sgx::profile_transitions(sgx_app.bridge().stats(),
                                                   sgx_app.env().cost);
        std::fputs(sgx::transition_report(prof, sgx_app.env().cost).c_str(),
                   stdout);
      }
    }
    return 0;
  } catch (const dsl::ParseError& e) {
    std::fprintf(stderr, "montsalvatc: %s: %s\n", path.c_str(), e.what());
    return 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "montsalvatc: %s\n", e.what());
    return 1;
  }
}
