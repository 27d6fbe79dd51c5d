"""Benchmark driver: one seeded workload, one closed-loop client.

    python3 bench/run.py --workload explore --seed 1 --seconds 35 --trace 0

One client runs one operation at a time; the next starts when the
previous returns, and every output is checked by the benchmark's own
oracles (the check is outside the timed region).  With ``--trace 0`` the
run measures whole cycles of the workload's mix for ``--seconds`` and
reports the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it runs a fixed number of cycles, each operation once
untraced and once with spans on, reports the per-layer metrics and the
tracing overhead, and checks that both runs gave the same outputs.
``--workload all`` runs every workload in its own process and prints one
table.  The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics; details and spans go to
``--out``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("explore", "build", "codec")
DETAIL_UNITS = {
    "tail_percentile": "%", "samples": "count", "samples_beyond_tail": "count",
    "fail_ratio": "ratio", "cycles": "count", "measured_s": "s",
    "warnings_captured": "count", "encode_bits_per_s": "bit/s",
    "decode_bits_per_s": "bit/s", "sliding_symbols_per_s": "symbol/s",
    "spans": "count", "untraced_s": "s", "setup_wall_s": "s",
    "latency_p50_wall_s": "s", "latency_tail_wall_s": "s",
    "ref_loop_s": "s", "ref_samples": "count",
    "traced_s": "s", "traced_setup_s": "s", "outputs_differ": "count",
}
HARD_LIMIT_S = 150.0  # stop measuring past this, so a run ends within 180 s
STARTED = time.perf_counter()
REF_NOMINAL_S = 0.010  # the reference loop's time on the nominal host
REF_EVERY_S = 0.25     # at most one reference sample per this many seconds
REF_NEAREST = 9        # reference samples that scale one latency


def fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def load_package():
    if not os.path.isfile(os.path.join(SRC, "bimodal", "__init__.py")):
        fail("no package source at %s" % os.path.join(SRC, "bimodal"))
    sys.path.insert(0, SRC)
    import bimodal
    if not os.path.abspath(bimodal.__file__).startswith(SRC + os.sep):
        fail("imported bimodal from %s, not from %s" % (bimodal.__file__, SRC))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("missing %s" % path)
    with open(path) as fh:
        return json.load(fh)


def sloc():
    """Non-blank, non-comment lines per package module and in total."""
    out, total = {}, 0
    for path in sorted(glob.glob(os.path.join(SRC, "bimodal", "*.py"))):
        with open(path) as fh:
            n = sum(1 for ln in fh
                    if ln.strip() and not ln.strip().startswith("#"))
        stem = os.path.basename(path)[:-3]
        out[("init" if stem == "__init__" else stem) + ".sloc"] = n
        total += n
    out["src.sloc"] = total
    return out


def reference_loop():
    """Fixed pure-Python work (dict updates, tuples, integer arithmetic,
    a sort) that uses no bimodal code; its time follows the host's speed
    of the moment."""
    table, acc = {}, 0
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += (i * 2654435761) % 1000003
    return acc + len(sorted(table.items(), key=lambda kv: kv[1]))


class Speedometer:
    """Host speed over a run, from the reference loop timed between
    operations.

    A shared host runs everything up to about twice as slowly for tens of
    seconds at a time.  Each timed interval is scaled by REF_NOMINAL_S over
    the median of the REF_NEAREST reference samples nearest to it in time,
    so a latency reads in seconds on a host where the loop takes
    REF_NOMINAL_S, and a change of the program moves it in full."""

    def __init__(self):
        self.mid, self.secs = [], []
        self.last = -math.inf

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.mid.append((t0 + t1) / 2)
            self.secs.append(t1 - t0)
            self.last = t1

    def tick(self):
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def scaled(self, t0, t1):
        mid = (t0 + t1) / 2
        i = bisect.bisect(self.mid, mid)
        lo, hi = max(0, i - REF_NEAREST), min(len(self.mid), i + REF_NEAREST)
        near = sorted(range(lo, hi), key=lambda j: abs(self.mid[j] - mid))
        ref = statistics.median(self.secs[j] for j in near[:REF_NEAREST])
        return (t1 - t0) * REF_NOMINAL_S / ref


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


class Pass:
    """Latencies, failures and outputs of one sequence of operations."""

    def __init__(self):
        self.latency = []
        self.spans = []
        self.kinds = []
        self.failures = []
        self.digests = []
        self.phases = {}
        self.warnings = 0
        self.cycles = 0
        self.wall_s = 0.0


def run_op(wl, inputs, op, res, cache):
    """Time one operation, check its output and record both in ``res``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out, phases = wl.run(inputs, op)
            error = None
        except Exception as exc:  # counted as a failed operation
            error = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
    res.latency.append(t1 - t0)
    res.spans.append((t0, t1))
    res.kinds.append(op[0])
    res.warnings += len(caught)
    if error is None:
        res.digests.append(digest(out))
        # a repeated operation with the same output was already checked
        key = (digest(op), res.digests[-1])
        if key not in cache:
            cache[key] = wl.check(inputs, op, out)
        probs = cache[key] + [
            "unexpected %s: %s" % (w.category.__name__, w.message)
            for w in caught if not issubclass(w.category, UserWarning)]
        for name, (secs, amount) in (phases or {}).items():
            acc = res.phases.setdefault(name, [0.0, 0])
            acc[0] += secs
            acc[1] += amount
    else:
        probs = [error]
        res.digests.append(error)
    if probs:
        res.failures.append((str(op)[:80], probs[:3]))


def measure(wl, inputs, seed, seconds, speed):
    """Run whole cycles, stopping at the cycle boundary nearest to
    ``seconds`` (or at the hard limit); reference samples go between
    operations."""
    res = Pass()
    cache = {}
    t_begin = time.perf_counter()
    while True:
        for op in wl.cycle(inputs, seed, res.cycles):
            speed.tick()
            run_op(wl, inputs, op, res, cache)
            if time.perf_counter() - STARTED > HARD_LIMIT_S:
                break
        else:
            res.cycles += 1
            elapsed = time.perf_counter() - t_begin
            if elapsed + elapsed / res.cycles / 2 < seconds:
                continue
        break
    res.wall_s = time.perf_counter() - t_begin
    speed.sample(REF_NEAREST)
    return res


def tail(values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_setup(wl, seed, reps, speed=None):
    """Set up ``reps`` times; the (start, end) of each, with a burst of
    reference samples before the first and after each when ``speed`` is
    given."""
    spans = []
    for _ in range(reps):
        if speed is not None and not spans:
            speed.sample(REF_NEAREST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            t0 = time.perf_counter()
            inputs = wl.setup(seed)
            spans.append((t0, time.perf_counter()))
        if speed is not None:
            speed.sample(REF_NEAREST)
    return inputs, spans


def end_to_end(wl, args):
    speed = Speedometer()
    inputs, setup_spans = run_setup(wl, args.seed, wl.setup_reps, speed)
    res = measure(wl, inputs, args.seed, args.seconds, speed)
    setup_times = [b - a for a, b in setup_spans]
    scaled = [speed.scaled(a, b) for a, b in res.spans]
    value, beyond = tail(scaled, wl.tail_pct)
    middle = [wl.median_kind in (None, k) for k in res.kinds]
    metrics = {
        "setup_s": statistics.median(speed.scaled(a, b)
                                     for a, b in setup_spans),
        "latency_p50_s": statistics.median(
            x for x, m in zip(scaled, middle) if m),
        "latency_tail_s": value,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sloc(),
    }
    details = {
        "tail_percentile": round(100 * wl.tail_pct, 2),
        "samples": len(res.latency),
        "samples_beyond_tail": beyond,
        "fail_ratio": len(res.failures) / len(res.latency),
        "cycles": res.cycles,
        "measured_s": res.wall_s,
        "warnings_captured": res.warnings,
        "setup_runs_s": setup_times,
        "setup_wall_s": statistics.median(setup_times),
        "latency_p50_wall_s": statistics.median(
            x for x, m in zip(res.latency, middle) if m),
        "latency_tail_wall_s": tail(res.latency, wl.tail_pct)[0],
        "ref_loop_s": statistics.median(speed.secs),
        "ref_samples": len(speed.secs),
    }
    units = {"encode": "encode_bits_per_s", "decode": "decode_bits_per_s",
             "sliding": "sliding_symbols_per_s"}
    for phase, (secs, amount) in sorted(res.phases.items()):
        details[units[phase]] = amount / secs
    for kind in sorted(set(res.kinds)):
        details["p50_s." + kind] = statistics.median(
            [x for x, k in zip(scaled, res.kinds) if k == kind])
    return metrics, details, res


def traced(wl, args, out_dir):
    """A fixed number of cycles, each operation run once untraced and once
    traced (alternating which goes first), on inputs from an untraced and
    a traced set-up."""
    tracer = Tracer()
    inputs, _ = run_setup(wl, args.seed, 1)
    tracer.install()
    try:
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            traced_inputs = wl.setup(args.seed)
        setup_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    plain, spanned = Pass(), Pass()
    caches = ({}, {})
    ranges = {"setup": [(0, len(tracer.name))]}
    for k in range(wl.trace_cycles):
        for j, op in enumerate(wl.cycle(inputs, args.seed, k)):
            for on in ((False, True) if j % 2 == 0 else (True, False)):
                if not on:
                    run_op(wl, inputs, op, plain, caches[0])
                    continue
                first = len(tracer.name)
                tracer.install()
                try:
                    run_op(wl, traced_inputs, op, spanned, caches[1])
                finally:
                    tracer.uninstall()
                ranges.setdefault(op[0], []).append((first, len(tracer.name)))
            if time.perf_counter() - STARTED > HARD_LIMIT_S:
                break
        else:
            plain.cycles += 1
            continue
        break
    metrics = tracer.metrics(setup_s + sum(spanned.latency))
    metrics.update(sloc())
    over = sum(spanned.latency) - sum(plain.latency)
    metrics["trace.overhead_s"] = over
    metrics["trace.overhead_ratio"] = over / sum(plain.latency)
    spans_path = os.path.join(out_dir, "%s-seed%d.spans.jsonl.gz"
                              % (wl.name, args.seed))
    tracer.write(spans_path)
    details = {
        "cycles": plain.cycles,
        "samples": len(plain.latency),
        "spans": metrics["trace.spans"],
        "untraced_s": sum(plain.latency),
        "traced_s": sum(spanned.latency),
        "traced_setup_s": setup_s,
        "outputs_differ": sum(1 for a, b in zip(plain.digests,
                                                spanned.digests) if a != b),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "fail_ratio": len(plain.failures) / len(plain.latency),
        "self_share": tracer.shares(ranges),
    }
    return metrics, details, plain, spanned


def one(args, spec):
    out_dir = os.path.join(ROOT, args.out)
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    wl = workloads.make(args.workload, workdir)
    try:
        if args.trace:
            metrics, details, plain, spanned = traced(wl, args, out_dir)
            passes = (plain, spanned)
            wanted = spec["per_layer"]
            correct = (not plain.failures and not spanned.failures
                       and details["outputs_differ"] == 0)
        else:
            metrics, details, res = end_to_end(wl, args)
            passes = (res,)
            wanted = spec["end_to_end"]
            correct = not res.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    chosen = {}
    for m in wanted:
        if m["name"] not in metrics and not args.trace:
            fail("metric %s was not measured" % m["name"])
        chosen[m["name"]] = {"value": metrics.get(m["name"], 0),
                             "unit": m["unit"]}

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    for name, v in chosen.items():
        print("  %-44s %14.6g %s" % (name, v["value"], v["unit"]))
    for name, v in details.items():
        if not isinstance(v, (list, dict)):
            unit = "s" if name.startswith("p50_s.") else DETAIL_UNITS.get(
                name, "")
            print("  %-44s %14s %s" % (name, "%.6g" % v if isinstance(
                v, float) else v, unit))
    if args.trace:
        shares = details["self_share"]
        print("  self-time share per layer, by operation kind:")
        print("    %-10s" % "" + "".join("%9s" % k for k in shares))
        for layer in LAYERS:
            print("    %-10s" % layer + "".join(
                "%8.1f%%" % (100 * s[layer]) for s in shares.values()))
    for p in passes:
        for op, probs in p.failures[:5]:
            print("  FAILED %s: %s" % (op, "; ".join(probs)))
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": chosen}
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "result": result,
                   "all_metrics": metrics, "details": details,
                   "failures": [f for p in passes for f in p.failures]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


def every(args):
    """Each workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", args.out],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("workload %s exited %d" % (name, proc.returncode))
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, v in res["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = v
    print(json.dumps(merged, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".bench_out",
                    help="directory under the repository root for result "
                         "files and spans")
    args = ap.parse_args()
    spec = load_spec()
    load_package()
    if args.workload == "all":
        every(args)
    else:
        one(args, spec)


if __name__ == "__main__":
    main()
