#!/usr/bin/env python3
"""Thread-count determinism check for ``*_bench`` reports.

Asserts that two reports of the same probe, run at different
``NEUROPULSIM_THREADS``, carry the same ``payload``: the parsed JSON
values must be equal.

Usage:
    check_payload.py A.json B.json [--strip-threads] [--bytes]

``--strip-threads`` drops every ``threads`` key from both payloads
before comparing (for probes that record their worker count in the
payload). ``--bytes`` additionally requires the raw payload text to be
byte-identical, not just equal after parsing.

A ``NaN``, ``Infinity`` or ``-Infinity`` token anywhere in a report
fails the check: Python's parser accepts them, but they are not JSON.
"""

import argparse
import json
import re
import sys


def strip_threads(o):
    if isinstance(o, dict):
        return {k: strip_threads(v) for k, v in o.items() if k != "threads"}
    if isinstance(o, list):
        return [strip_threads(v) for v in o]
    return o


def reject_constant(token):
    raise ValueError(f"non-finite number {token} is not JSON")


def raw_payload(text, path):
    # The runner renders `"payload": ...` last, right before the closing
    # brace of the report.
    m = re.search(r'"payload": (.*)\n\}', text, re.S)
    if m is None:
        sys.exit(f"{path}: no payload")
    return m.group(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--strip-threads", action="store_true")
    ap.add_argument("--bytes", action="store_true")
    args = ap.parse_args()

    texts = [open(p).read() for p in (args.a, args.b)]
    if args.bytes:
        raw = [raw_payload(t, p) for t, p in zip(texts, (args.a, args.b))]
        assert raw[0] == raw[1], (
            f"payload not byte-identical: {args.a} vs {args.b}")
    a, b = (json.loads(t, parse_constant=reject_constant)["payload"] for t in texts)
    if args.strip_threads:
        a, b = strip_threads(a), strip_threads(b)
    assert a == b, f"payload depends on thread count: {args.a} vs {args.b}"
    print(f"payload identical: {args.a} == {args.b}")


if __name__ == "__main__":
    main()
