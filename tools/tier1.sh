#!/usr/bin/env bash
# Tier-1 gate: configure + build + full test suite (ROADMAP.md), then
# smoke passes of the honesty-contract ablations so regressions that only
# show up as simulated-cycle drift (the RMI hot path against its pinned
# cycles, the switchless ring against the inline shortcut) fail fast too.
#
# Usage: tools/tier1.sh [build-dir]   (default: build)
# This is the one tier-1 step list: the CMake `check` target runs it too
# (cmake --build build --target check).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j

# Host allocations of one serve, rmi, kv and gc launch: ctest above gates
# them against their ceilings; this run writes the counts as test
# properties to host_work.xml, which CI publishes.
"$BUILD_DIR"/tests/msv_host_work_tests \
  --gtest_output=xml:"$BUILD_DIR"/host_work.xml > /dev/null

"$BUILD_DIR"/bench/abl_rmi_fastpath --smoke > /dev/null
"$BUILD_DIR"/bench/abl_switchless --smoke > /dev/null
# EPC paging cliff: exits 1 unless each of its ten sweeps lands on its
# pinned simulated cycles, so the EPC model's eviction order and per-page
# charges cannot drift.
"$BUILD_DIR"/bench/abl_epc > /dev/null

# The examples run end to end; each exits non-zero when a property it
# demonstrates (tenant isolation, sealing, attestation) breaks.
for example in "$BUILD_DIR"/examples/example_*; do
  "$example" > /dev/null
done

# montsalvatc's build artifacts for the bank example (the EDL, the Edger8r
# header and bridge sources, the image inventory and the TCB report) must
# match the checked-in golden file byte for byte, so a change to how the
# enclave interface is assembled or rendered cannot alter them unnoticed.
"$BUILD_DIR"/tools/montsalvatc examples/bank.msv --emit-edl --emit-bridges \
  --emit-images --tcb | diff -u tools/golden/montsalvatc_bank.txt -

# Batched RMI (DESIGN.md §13) at full size, the scale BENCH_rmi_batch.json
# was recorded at (a fraction of a second): aborts unless the sync loop and
# every batch width land on their pinned simulated cycles, batch width 1 is
# cycle-identical to the unbatched path and width >= 16 clears the 5x
# amortization gate.
"$BUILD_DIR"/bench/abl_rmi_batch --json="$BUILD_DIR"/BENCH_rmi_batch.json \
  > /dev/null

# Fault storm (DESIGN.md §12): a seeded loss/transition/EPC/TCS/
# corruption storm through the serving layer, run twice — the binary
# aborts unless both runs agree bit-for-bit on clocks and counters, and
# unless the server stays partially available under the storm. Full size
# (a fraction of a second), the scale BENCH_faults.json was recorded at.
"$BUILD_DIR"/bench/fig_faults --json="$BUILD_DIR"/BENCH_faults.json > /dev/null

# Request-server figure (DESIGN.md §8) at full size, the scale
# BENCH_server.json was recorded at: load, TCS, switchless and coalescing
# sweeps plus its own two-run determinism check. bench_to_json lifts the
# per-tenant latency quantiles of the metrics dump into the report.
tools/bench_to_json "$BUILD_DIR"/bench/fig_server "$BUILD_DIR"/BENCH_server.json \
  --metrics-out="$BUILD_DIR"/fig_server_full_metrics.txt > /dev/null

# Fleet smoke (DESIGN.md §14 + §16): 64 Zipfian tenants over a sharded
# enclave fleet — ring routing, a loss storm served by warm-standby
# promotion vs the restart ladder (promotion must win the p99 by >= 3x),
# a hot-tenant migration, a fleet-wide two-run determinism self-check,
# and the health-under-storm scenario (SLO monitor + flight recorder +
# profiler armed at zero simulated-cycle cost; artifacts below). The
# per-shard latency quantiles of its metrics dump join the report too.
tools/bench_to_json "$BUILD_DIR"/bench/fig_fleet "$BUILD_DIR"/BENCH_fleet.json \
  --smoke --metrics-out="$BUILD_DIR"/fleet_metrics.txt \
  --health-out="$BUILD_DIR"/fleet_health.txt \
  --postmortem-out="$BUILD_DIR"/fleet_postmortem.json \
  --folded-out="$BUILD_DIR"/fleet_folded.txt > /dev/null

# msvmon must parse every artifact the health stack just wrote (exit 2 =
# malformed bundle; the post-mortems are only useful if they open).
"$BUILD_DIR"/tools/msvmon --health="$BUILD_DIR"/fleet_health.txt \
  --postmortem="$BUILD_DIR"/fleet_postmortem.json \
  --folded="$BUILD_DIR"/fleet_folded.txt --summary

# Figure 7 (§6.5) smoke, 10k and 20k keys, the scale BENCH_paldb.json was
# recorded at: each PalDB configuration's simulated cycles and ocalls, so
# drift on the ocall path (the in-enclave writer's write storm, the
# store's merge, the reader's page fetches) reaches a gated key.
"$BUILD_DIR"/bench/fig07_paldb --smoke \
  --json="$BUILD_DIR"/BENCH_paldb.json > /dev/null

# Perf-regression gate (DESIGN.md §16): every fresh report must equal its
# checked-in baseline, run at the same size, key for key and value for
# value; a deliberate change re-baselines the file.
tools/bench_diff.py BENCH_fleet.json "$BUILD_DIR"/BENCH_fleet.json
tools/bench_diff.py BENCH_faults.json "$BUILD_DIR"/BENCH_faults.json
tools/bench_diff.py BENCH_server.json "$BUILD_DIR"/BENCH_server.json
tools/bench_diff.py BENCH_rmi_batch.json "$BUILD_DIR"/BENCH_rmi_batch.json
tools/bench_diff.py BENCH_paldb.json "$BUILD_DIR"/BENCH_paldb.json

# msvlint must stay clean over the whole example/app corpus — including
# the §6.5/§6.6 app models and the value-trust analysis feeding MSV010 —
# with the native-edge dry run feeding MSV004 (exit 1 = unsuppressed lint
# errors; MSV010 demotion candidates are informational).
"$BUILD_DIR"/tools/msvlint examples/*.msv --bank --micro --paldb \
  --graphchi --specjvm --synthetic=40 --trace-native --trust \
  --quiet > /dev/null

# msvlint --fix dry-run smoke (DESIGN.md §15): profile the fig06-style
# workload, run the trust analysis + min-cut optimizer, apply the plan and
# replay original vs re-partitioned twice each — exits 1 unless all four
# runs are byte-identical and crossings do not regress.
"$BUILD_DIR"/tools/msvlint --synthetic=16 --untrusted-fraction=0 \
  --secret-fraction=0.25 --fix --quiet > /dev/null

# Partition optimizer (DESIGN.md §15) at full size, the scale
# BENCH_partition.json was recorded at: aborts unless the optimized
# partition replays byte-identically (2+2 runs), keeps every
# secret-carrying class inside, and cuts boundary crossings >= 20%.
"$BUILD_DIR"/bench/abl_partition \
  --json="$BUILD_DIR"/BENCH_partition.json > /dev/null
tools/bench_diff.py BENCH_partition.json "$BUILD_DIR"/BENCH_partition.json

# Stress smoke tier (DESIGN.md §17): the five adversarial-workload
# stressors, each its own abort-on-gate acceptance test — the EPC paging
# cliff curve + mid-run shrink, GC allocation storms + weakref churn,
# pathological serde shapes + sealed checkpoints, TCS exhaustion, and the
# fault storm under overload with the health stack armed. Their reports
# merge into one BENCH_stress.json gated against the checked-in baseline.
for s in epc gc serde tcs storm; do
  "$BUILD_DIR"/bench/stress_$s --smoke \
    --json="$BUILD_DIR"/stress_$s.json > /dev/null
done
tools/stress_report.py --out "$BUILD_DIR"/BENCH_stress.json \
  epc="$BUILD_DIR"/stress_epc.json gc="$BUILD_DIR"/stress_gc.json \
  serde="$BUILD_DIR"/stress_serde.json tcs="$BUILD_DIR"/stress_tcs.json \
  storm="$BUILD_DIR"/stress_storm.json > /dev/null
tools/bench_diff.py BENCH_stress.json "$BUILD_DIR"/BENCH_stress.json

# bench_diff's own contract (exact equality of the whole key set, an
# empty baseline failing hard) is load-bearing for every gate above.
python3 tools/test_bench_diff.py > /dev/null

# Telemetry smoke: a traced serving run must emit a valid Chrome trace
# with the full span taxonomy linked by trace context (DESIGN.md §10).
"$BUILD_DIR"/bench/fig_server --smoke \
  --trace-out="$BUILD_DIR"/fig_server_trace.json \
  --metrics-out="$BUILD_DIR"/fig_server_metrics.txt > /dev/null
tools/check_trace.py "$BUILD_DIR"/fig_server_trace.json

echo "tier1: tests + ablations + examples + montsalvatc-golden + batched-rmi + fault-storm + fig07-paldb + msvlint + partition-optimizer + telemetry-trace + health/bench-diff + stress smoke OK"
