#!/usr/bin/env python3
"""Pytest-style checks for tools/bench_diff.py (run in CI by tier1.sh).

Each ``test_*`` function exercises one exit-protocol contract of the
exact baseline gate by invoking bench_diff.py as a subprocess on a report
pair built from the checked-in BENCH_rmi_batch.json:

  * identical reports pass (exit 0),
  * a one-cycle change in any key fails (exit 1) and names the key,
  * a missing or an extra key fails (exit 1) and names it,
  * an empty baseline fails hard (exit 1): the gate would compare nothing,
  * a benchmark-name mismatch and malformed JSON exit 2.

Runs under pytest if available, but needs nothing beyond the standard
library: executing the file directly runs every test_* function and
exits non-zero on the first failure.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = os.path.join(TOOLS, "bench_diff.py")
BASELINE = os.path.join(os.path.dirname(TOOLS), "BENCH_rmi_batch.json")


def run_diff(base_doc, cand_doc):
    """Writes both docs to temp files and runs bench_diff.py on them."""
    with tempfile.TemporaryDirectory() as d:
        base = os.path.join(d, "base.json")
        cand = os.path.join(d, "cand.json")
        for path, doc in ((base, base_doc), (cand, cand_doc)):
            with open(path, "w", encoding="utf-8") as f:
                if isinstance(doc, str):
                    f.write(doc)
                else:
                    json.dump(doc, f)
        return subprocess.run(
            [sys.executable, BENCH_DIFF, base, cand],
            capture_output=True, text=True)


def baseline():
    with open(BASELINE, encoding="utf-8") as f:
        return json.load(f)


def test_identical_reports_pass():
    doc = baseline()
    r = run_diff(doc, doc)
    assert r.returncode == 0, r.stdout + r.stderr
    assert f"all {len(doc['metrics'])} metric keys equal" in r.stdout


def test_one_cycle_change_fails_and_names_the_key():
    base = baseline()
    cand = copy.deepcopy(base)
    cand["metrics"]["sim_cycles_w16"] += 1
    r = run_diff(base, cand)
    assert r.returncode == 1, r.stdout + r.stderr
    was = base["metrics"]["sim_cycles_w16"]
    assert (f"changed sim_cycles_w16: baseline {was}, candidate {was + 1}"
            in r.stdout), r.stdout


def test_missing_key_fails():
    base = baseline()
    cand = copy.deepcopy(base)
    del cand["metrics"]["transitions_w8"]
    r = run_diff(base, cand)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "missing transitions_w8" in r.stdout, r.stdout


def test_extra_key_fails():
    base = baseline()
    cand = copy.deepcopy(base)
    cand["metrics"]["transitions_w128"] = 512
    r = run_diff(base, cand)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "extra   transitions_w128: candidate 512" in r.stdout, r.stdout


def test_empty_baseline_is_a_hard_failure():
    base = baseline()
    empty = dict(base, metrics={})
    r = run_diff(empty, base)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "baseline has no metrics" in r.stdout
    r = run_diff(empty, empty)
    assert r.returncode == 1, r.stdout + r.stderr


def test_mismatched_benchmark_names_exit_2():
    base = baseline()
    r = run_diff(base, dict(base, benchmark="abl_rmi_fastpath"))
    assert r.returncode == 2, r.stdout + r.stderr


def test_malformed_input_exits_2():
    r = run_diff("{not json", baseline())
    assert r.returncode == 2, r.stdout + r.stderr
    r = run_diff(baseline(), "[1, 2]")
    assert r.returncode == 2, r.stdout + r.stderr


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"  ok   {name}")
    print(f"test_bench_diff: {len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
