#!/usr/bin/env python3
"""Merge the per-binary stress JSON reports into one BENCH_stress.json.

Each stress binary (bench/stress_*.cc) writes its own JsonReport with a
scenario-local metric namespace. This tool merges them into a single
report whose metric and table keys carry a scenario prefix (epc_, gc_,
serde_, tcs_, storm_), so `tools/bench_diff.py` can gate the whole suite
against one checked-in baseline. A stressor's scale key ("iterations" or
"requests") is forwarded under its prefix like any other metric, so a run
at another scale differs from the baseline in those keys.

Usage:
  tools/stress_report.py --out BENCH_stress.json \
      epc=/tmp/stress_epc.json gc=/tmp/stress_gc.json ...

Exit codes: 0 merged; 1 bad arguments or malformed input.
"""
import argparse
import json
import sys


def merge(inputs):
    merged = {"benchmark": "stress", "tables": {}, "metrics": {}}
    for prefix, path in inputs:
        try:
            with open(path) as f:
                rep = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"stress_report: cannot read {path}: {e}", file=sys.stderr)
            return None
        metrics = rep.get("metrics", {})
        if not metrics:
            print(f"stress_report: {path} has no metrics", file=sys.stderr)
            return None
        for key, val in metrics.items():
            merged["metrics"][f"{prefix}_{key}"] = val
        for name, table in rep.get("tables", {}).items():
            merged["tables"][f"{prefix}_{name}"] = table
    return merged


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="merged report path")
    ap.add_argument("inputs", nargs="+", metavar="prefix=path",
                    help="scenario prefix and per-binary JSON path")
    args = ap.parse_args(argv)

    inputs = []
    for spec in args.inputs:
        prefix, sep, path = spec.partition("=")
        if not sep or not prefix or not path:
            print(f"stress_report: bad input spec {spec!r} "
                  "(want prefix=path)", file=sys.stderr)
            return 1
        inputs.append((prefix, path))

    merged = merge(inputs)
    if merged is None:
        return 1
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"stress_report: merged {len(inputs)} reports, "
          f"{len(merged['metrics'])} metrics -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
