"""Side-by-side per-layer metrics of two sets of benchmark results.

    python3 bench/diff.py BEFORE AFTER

BEFORE and AFTER are result files written by ``bench/run.py`` (for
example ``.bench_out/explore-seed1-trace1.json``) or directories holding
them.  For each workload and trace mode present on both sides it prints
every metric of the result with its delta; with several seeds on one
side it shows the median over them.
"""

import glob
import json
import os
import statistics
import sys


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*-seed*-trace*.json")))
             if os.path.isdir(path) else [path])
    groups = {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        key = (doc["workload"], doc["trace"])
        for name, m in doc["result"]["metrics"].items():
            groups.setdefault(key, {}).setdefault(
                name, (m["unit"], []))[1].append(m["value"])
    return {key: {name: (unit, statistics.median(vals))
                  for name, (unit, vals) in ms.items()}
            for key, ms in groups.items()}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(set(before) & set(after)):
        print("== %s (trace %d)" % key)
        print("%-42s %13s %13s %13s %8s" % ("metric", "before", "after",
                                           "delta", "delta%"))
        old, new = before[key], after[key]
        for name in sorted(set(old) | set(new)):
            unit, a = old.get(name, (new.get(name, ("", 0))[0], 0))
            b = new.get(name, (unit, 0))[1]
            pct = "%+7.1f%%" % (100.0 * (b - a) / a) if a else "      -"
            print("%-42s %13.6g %13.6g %+13.6g %8s %s"
                  % (name, a, b, b - a, pct, unit))
        print()
    if not set(before) & set(after):
        print("no workload appears on both sides", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
