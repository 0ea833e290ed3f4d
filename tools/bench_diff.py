#!/usr/bin/env python3
"""bench_diff.py — the perf-regression gate (DESIGN.md §16).

Every metric a BENCH_*.json records is a deterministic simulated count or
a number derived from one, so a fresh report must reproduce its checked-in
baseline exactly: the same "benchmark", the same set of metric keys and
equal values. Anything else is a regression or a re-baseline nobody
recorded, and the gate lists every changed, missing and extra key with
both values. Only the "metrics" object is compared; provenance such as
"git_sha" and the printed tables are not.

Usage:
    bench_diff.py BASELINE CANDIDATE

Exit status: 0 = every key equal; 1 = a key changed, is missing or is
extra, or the baseline has no metrics (the gate would compare nothing);
2 = usage error, unreadable or malformed input, or reports of two
different benchmarks.
"""

import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not isinstance(metrics, dict):
        print(f"bench_diff: {path} has no metrics object", file=sys.stderr)
        sys.exit(2)
    return doc.get("benchmark", "?"), metrics


def main(argv):
    if len(argv) != 2:
        print("usage: bench_diff.py BASELINE CANDIDATE", file=sys.stderr)
        return 2
    name, base = load(argv[0])
    cand_name, cand = load(argv[1])
    if name != cand_name:
        print(f"bench_diff: comparing different benchmarks "
              f"({name} vs {cand_name})", file=sys.stderr)
        return 2
    if not base:
        print(f"bench_diff: {name}: the baseline has no metrics; failing "
              "hard instead of comparing nothing")
        return 1

    problems = []
    for key in sorted(base.keys() | cand.keys()):
        if key not in cand:
            problems.append(f"  missing {key}: baseline {base[key]!r}")
        elif key not in base:
            problems.append(f"  extra   {key}: candidate {cand[key]!r}")
        elif base[key] != cand[key]:
            problems.append(f"  changed {key}: baseline {base[key]!r}, "
                            f"candidate {cand[key]!r}")
    if problems:
        print(f"bench_diff: {name}: {len(problems)} metric key(s) differ "
              f"from the {len(base)}-key baseline:")
        print("\n".join(problems))
        return 1
    print(f"bench_diff: {name}: OK, all {len(base)} metric keys equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
