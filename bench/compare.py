#!/usr/bin/env python3
"""Compare the artifacts of two benchmark chains.

    python3 bench/compare.py <chain-dir-a> <chain-dir-b>

A chain's artifacts stay in `.bench_runs/<workload>/chain/` after a run;
copy that directory aside before running another commit. For every file
both directories hold, prints `identical`, or the largest absolute
difference between corresponding numbers when the two files differ only in
numeric values, or `differs` when their text differs otherwise. Exits 0
when every shared file is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def compare(a: Path, b: Path) -> str:
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return "identical"
    ta, tb = da.decode("utf-8", "replace"), db.decode("utf-8", "replace")
    if NUMBER.sub("#", ta) != NUMBER.sub("#", tb):
        return "differs"
    diffs = [abs(float(x) - float(y)) for x, y in zip(NUMBER.findall(ta), NUMBER.findall(tb))]
    return f"max abs difference {max(diffs):.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(p) for p in argv)
    names = sorted({p.name for p in dir_a.iterdir() if p.is_file()}
                   & {p.name for p in dir_b.iterdir() if p.is_file()})
    verdicts = {name: compare(dir_a / name, dir_b / name) for name in names}
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    return 0 if all(v == "identical" for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
