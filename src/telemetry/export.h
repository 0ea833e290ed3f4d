// Telemetry exporters (DESIGN.md §10): every format is rendered with
// fixed-precision formatting from integer cycle counts, so two runs at
// the same seed produce byte-identical output.
//
//   * chrome_trace_json — Chrome trace_event JSON ("X" complete events),
//     loadable in Perfetto / chrome://tracing. Timestamps are simulated
//     microseconds (cycles / hz * 1e6, 3 decimals); span/trace/parent ids
//     and raw cycle counts ride in args so the causal tree survives the
//     conversion.
//   * prometheus_text — Prometheus exposition text, conformant with the
//     exposition-format spec: # HELP + # TYPE per family, label values
//     escaped (backslash, double-quote, newline), histograms emitting
//     _count, _sum and quantile-labelled lines (0.5 / 0.9 / 0.99 /
//     0.999), which tools/bench_to_json folds into BENCH_*.json.
#pragma once

#include <string>

#include "telemetry/telemetry.h"

namespace msv::telemetry {

std::string chrome_trace_json(const Tracer& tracer, double hz);

std::string prometheus_text(const MetricsRegistry& metrics);

// Help text for a metric family (the # HELP line). Families this repo
// exports get a curated line; anything else a deterministic fallback.
std::string metric_help(const std::string& name);

// An ASCII rendering of the recorded spans of one trace tree (indent =
// depth, bar = position/extent on the simulated timeline). The
// "Perfetto screenshot equivalent" used by EXPERIMENTS.md and handy in
// test failure output. trace_id = 0 renders every trace.
std::string ascii_trace(const Tracer& tracer, double hz,
                        std::uint64_t trace_id = 0,
                        std::size_t max_lines = 80);

}  // namespace msv::telemetry
