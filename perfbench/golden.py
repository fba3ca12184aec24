"""Compare two golden records of per-item outputs.

usage: python3 perfbench/golden.py OLD NEW

OLD and NEW are record files written by run.py
(perfbench/out/golden/<workload>/seed-<n>.json) or directories of
them, matched by relative path. Items are keyed by index and input, so
runs of different lengths compare on the items both have. Prints every
differing output and exits 1 if there is one, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys


def records(path: str) -> dict[str, dict]:
    if os.path.isfile(path):
        return {"": _load(path)}
    out = {}
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            if name.endswith(".json"):
                full = os.path.join(dirpath, name)
                out[os.path.relpath(full, path)] = _load(full)
    return out


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["items"]


def diff(old: dict[str, dict], new: dict[str, dict]) -> tuple[int, list[str]]:
    """(items compared, lines describing each difference)."""
    compared, lines = 0, []
    for rel in sorted(set(old) & set(new)):
        for key in sorted(set(old[rel]) & set(new[rel])):
            compared += 1
            a, b = old[rel][key], new[rel][key]
            for field in sorted(set(a) | set(b)):
                if a.get(field) != b.get(field):
                    lines.append(f"{rel} {key} {field}: {a.get(field)!r} -> {b.get(field)!r}")
    return compared, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    compared, lines = diff(records(argv[0]), records(argv[1]))
    for line in lines:
        print(line)
    print(f"{compared} items compared, {len(lines)} differing outputs")
    return 1 if lines or not compared else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
