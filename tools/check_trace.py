#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file written by --trace-out.

    tools/check_trace.py build/fig_server_trace.json

Checks that the file parses, that the serving scenario's span taxonomy is
present (rmi, gc, epc, server, sched categories and their marquee span
names, including at least one caller-side "rmi.invoke <relay>" span and
one woven ecall_relay_* transition), that spans are linked into causal
trees by trace context, and that the exporter's bookkeeping (clock_hz,
span_count, dropped_spans) survived. Exit 0 = OK, 1 = validation failure,
2 = usage. Used by tools/tier1.sh, the CMake `check` target and CI.
"""

import json
import sys

REQUIRED_CATEGORIES = {"rmi", "gc", "epc", "server", "sched"}
REQUIRED_NAMES = {
    "request",        # per-tenant request lifecycle (detached server span)
    "server.handle",  # worker-side adopted service span
    "rmi.dispatch",   # callee-side relay dispatch
    "gc.collect",     # collector phase spans
    "epc.page_in",    # EPC paging
}


def fail(msg):
    sys.stderr.write("check_trace: %s\n" % msg)
    return 1


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    try:
        with open(argv[1]) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        return fail("cannot parse %s: %s" % (argv[1], e))

    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("no traceEvents array")
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        return fail("no complete (ph=X) span events")

    categories = {e.get("cat") for e in spans}
    missing = REQUIRED_CATEGORIES - categories
    if missing:
        return fail("missing span categories: %s (have %s)"
                    % (sorted(missing), sorted(categories)))

    names = {e.get("name") for e in spans}
    missing = REQUIRED_NAMES - names
    if missing:
        return fail("missing span names: %s" % sorted(missing))
    if not any(n and n.startswith("rmi.invoke ") for n in names):
        return fail("no caller-side rmi.invoke <relay> spans")
    if not any(n and n.startswith("ecall_relay_") for n in names):
        return fail("no woven ecall_relay_* transition spans")

    # Trace-context linkage: spans must form causal trees, i.e. parent ids
    # resolve to other recorded spans.
    span_ids = {e["args"]["span"] for e in spans if "args" in e}
    linked = sum(1 for e in spans
                 if e.get("args", {}).get("parent") in span_ids)
    if linked == 0:
        return fail("no span is parented under another (trace context lost)")

    other = data.get("otherData", {})
    for key in ("clock_hz", "span_count", "dropped_spans"):
        if key not in other:
            return fail("otherData missing %s" % key)

    # Per-category ring-wrap accounting (DESIGN.md §16): the exporter must
    # break dropped_spans down by category, every category must be present
    # (zeros included — "nothing dropped" is distinguishable from "counter
    # missing"), and the breakdown must sum to the total.
    by_cat = other.get("dropped_by_category")
    if not isinstance(by_cat, dict) or not by_cat:
        return fail("otherData missing dropped_by_category")
    missing = REQUIRED_CATEGORIES - set(by_cat)
    if missing:
        return fail("dropped_by_category missing categories: %s"
                    % sorted(missing))
    total = sum(by_cat.values())
    if total != other["dropped_spans"]:
        return fail("dropped_by_category sums to %d but dropped_spans is %d"
                    % (total, other["dropped_spans"]))

    print("check_trace: %d spans, %d linked, %d categories, %d dropped — OK"
          % (len(spans), linked, len(categories),
             other.get("dropped_spans", 0)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
