"""The three benchmark workloads.

Each workload has a fixed catalogue of operation slots.  One cycle runs
every slot once per unit of weight, in a seeded order; the benchmark
runs whole cycles, so every run sees the same mix whatever the seed or
the speed of the code.  The seed picks each slot's input variants: an
isomorphic relabelling (shuffled state order, fresh names, fresh symbol
names that keep the symbols' sort order) and, where a slot offers a
pool, which graph is drawn.  Pools only hold graphs of similar cost, and
the slots that carry the median and the tail percentile draw nothing,
so those ranks always fall on the same slots.
"""

import contextlib
import io as _textio
import os
import shutil
import time

import oracles
from fixtures import ALTSPLIT, MIXED, OVERLAP, QUAD, TWOSTATE

FIXTURES = {"twostate": TWOSTATE, "altsplit": ALTSPLIT, "quad": QUAD,
            "mixed": MIXED, "overlap": OVERLAP}
VARIANTS = 3  # relabelled copies per slot; a cycle picks one at random
XI_CAP = 64   # the package's default entry cap for rate tables


def _base_text(source):
    """Graph text for a fixture name or an ("rll", d, k) triple; RLL
    graphs come from the package's constructor, so it runs in set-up."""
    if isinstance(source, str):
        return FIXTURES[source]
    from bimodal.construct import rll_graph
    from bimodal.io import serialize_graph
    return serialize_graph(rll_graph(source[1], source[2]))


def _variants(seed, slot, pool):
    """VARIANTS seeded (relabelled text, state map, source, t) draws."""
    out = []
    for v in range(VARIANTS):
        rng = oracles.new_rng(seed, slot, v)
        source, t = pool[rng.randrange(len(pool))]
        text, smap = oracles.relabel(_base_text(source), rng)
        out.append((text, smap, source, t))
    return out


class RateTables:
    """One operation is one rate table: rate_region(g, t) and
    coding_ratio(g, t).  graphs.power and spectra do all the work."""

    kind = "table"

    # slot: (law checked, pool of (graph, t))
    SLOTS = {
        "rll-tiny": (None, [(("rll", 2, 10), 8), (("rll", 1, 7), 8),
                            (("rll", 3, 7), 12)]),
        "mixed-2": ("mixed2", [("mixed", 2)]),
        "altsplit-7": ("altsplit", [("altsplit", 7)]),
        "overlap-5": (None, [("overlap", 5)]),
        "rll-small": (None, [(("rll", 2, 7), 12), (("rll", 3, 7), 16)]),
        "twostate-8": ("twostate", [("twostate", 8)]),
        "mixed-3": (None, [("mixed", 3)]),
        "rll210-16": ("rll16", [(("rll", 2, 10), 16)]),
        "rll210-18": (None, [(("rll", 2, 10), 18)]),
    }

    def setup(self, seed):
        from bimodal.io import parse_graph_file
        return {slot: [(parse_graph_file(text), text, smap, t, law)
                       for text, smap, _source, t in
                       _variants(seed, slot, pool)]
                for slot, (law, pool) in self.SLOTS.items()}

    def run(self, inputs, op):
        from bimodal import coding_ratio, rate_region
        g, _text, _smap, t, _law = inputs[op[0]][op[1]]
        return (rate_region(g, t, xi_cap=XI_CAP), coding_ratio(g, t)), None

    def check(self, inputs, op, out):
        _g, text, smap, t, law = inputs[op[0]][op[1]]
        states, a0, a1 = oracles.class_matrices(text, t)
        golden = (oracles.rll16_golden_problems(states, a0, a1, smap)
                  if law == "rll16" else [])
        points, (n_max, ratio) = out
        return (golden
                + oracles.region_problems(points, n_max, ratio, t, a0, a1,
                                          XI_CAP)
                + oracles.law_problems(law, t, n_max,
                                       {p.n0: p.n1 for p in points}))


class DesignPoints:
    """One operation is one design point driven through the command line
    entry point like the README tour: power -o, synth, verify.  graphs.power
    (three times per point) leads, then the verify structural checks, io,
    synth and cli."""

    kind = "point"

    # slot: (method, degrees, pool of (graph, t)); degrees is n for
    # n0 = n1 = n, an (n0, n1) pair, or None for the largest feasible n of
    # the drawn point, from DEGREES
    SLOTS = {
        "det-small": ("det", None, [("twostate", 2), ("quad", 1)]),
        "split-3": ("split", 3, [("twostate", 3)]),
        "stether-3": ("stether", 3, [("twostate", 3)]),
        "punctured-small": ("punctured", None, [("twostate", 3),
                                                ("twostate", 5),
                                                ("twostate", 6)]),
        "quad-det": ("det", None, [("quad", 2), ("quad", 3)]),
        "mixed-det": ("det", 16, [("mixed", 2)]),
        "rll210-10-punctured": ("punctured", 16, [(("rll", 2, 10), 10)]),
        "rll210-12-punctured": ("punctured", 32, [(("rll", 2, 10), 12)]),
        "rll210-14-punctured": ("punctured", 64, [(("rll", 2, 10), 14)]),
        "rll210-16-punctured": ("punctured", 128, [(("rll", 2, 10), 16)]),
        "rll210-16-stether": ("stether", (173, 178), [(("rll", 2, 10), 16)]),
        "rll210-18-punctured": ("punctured", 256, [(("rll", 2, 10), 18)]),
    }
    DEGREES = {("det-small", "twostate", 2): 1, ("det-small", "quad", 1): 2,
               ("punctured-small", "twostate", 3): 2,
               ("punctured-small", "twostate", 5): 8,
               ("punctured-small", "twostate", 6): 16,
               ("quad-det", "quad", 2): 8, ("quad-det", "quad", 3): 32}

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed):
        if os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir)
        os.makedirs(self.workdir)
        inputs = {}
        for slot, (method, degree, pool) in self.SLOTS.items():
            rows = []
            for v, (text, smap, source, t) in enumerate(
                    _variants(seed, slot, pool)):
                path = os.path.join(self.workdir, "%s-%d.cg" % (slot, v))
                with open(path, "w") as fh:
                    fh.write(text)
                n = self.DEGREES[(slot, source, t)] if degree is None \
                    else degree
                n0, n1 = n if isinstance(n, tuple) else (n, n)
                rows.append((path, text, smap, source, t, method, n0, n1))
            inputs[slot] = rows
        return inputs

    def run(self, inputs, op):
        from bimodal.cli import main
        path, _text, _smap, _source, t, method, n0, n1 = inputs[op[0]][op[1]]
        stem = os.path.join(self.workdir, "out")
        degrees = ["-t", str(t), "--n0", str(n0), "--n1", str(n1)]
        runs = []
        for argv in (["power", path, "-t", str(t), "-o", stem + ".power"],
                     ["synth", path, "--method", method, "-o",
                      stem + ".enc"] + degrees,
                     ["verify", stem + ".enc", "--against", path] + degrees):
            out, err = _textio.StringIO(), _textio.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
            runs.append((rc, out.getvalue(), err.getvalue()))
        with open(stem + ".power") as fh:
            power_text = fh.read()
        with open(stem + ".enc") as fh:
            enc_text = fh.read()
        return (runs, power_text, enc_text), None

    def check(self, inputs, op, out):
        _path, text, smap, source, t, _m, n0, n1 = inputs[op[0]][op[1]]
        runs, power_text, enc_text = out
        golden = source == ("rll", 2, 10) and t == 16
        probs = ["%s exit %d: %s" % (name, rc, err.strip())
                 for name, (rc, _o, err) in zip(("power", "synth"), runs)
                 if rc != 0]
        probs += oracles.verify_output_problems(runs[2][0], runs[2][1])
        probs += oracles.power_file_problems(power_text, text, t,
                                             smap if golden else None)
        copies = (oracles.golden_copies(smap)
                  if golden and (n0, n1) == (173, 178) else None)
        probs += oracles.encoder_file_problems(enc_text, text, t, n0, n1,
                                               copies)
        return probs


class Mix:
    """A workload over one operation family: a weighted catalogue of
    (slot, weight) entries listed by rising cost, with ``tail_pct`` chosen
    so the tail percentile falls in the middle of one slot.  The median is
    taken over every operation."""

    median_kind = None

    def __init__(self, name, family, catalogue, tail_pct, trace_cycles,
                 setup_reps):
        self.name = name
        self.family = family
        self.catalogue = catalogue
        self.tail_pct = tail_pct
        self.trace_cycles = trace_cycles
        self.setup_reps = setup_reps

    def setup(self, seed):
        return self.family.setup(seed)

    def cycle(self, inputs, seed, k):
        order = [slot for slot, w in self.catalogue for _ in range(w)]
        rng = oracles.new_rng(seed, "cycle", k)
        rng.shuffle(order)
        return [(self.family.kind, slot, rng.randrange(VARIANTS))
                for slot in order]

    def run(self, inputs, op):
        return self.family.run(inputs, op[1:])

    def check(self, inputs, op, out):
        return self.family.check(inputs, op[1:], out)


# The median falls in the middle of twostate-8 (weight 5 of 15, with 5
# below and 5 above) and the tail in the middle of rll210-16.
EXPLORE = [("rll-tiny", 1), ("mixed-2", 1), ("altsplit-7", 1),
           ("overlap-5", 1), ("rll-small", 1), ("twostate-8", 5),
           ("mixed-3", 1), ("rll210-16", 3), ("rll210-18", 1)]

# The median falls in the middle of rll210-10-punctured (weight 6 of 18,
# with 6 below and 6 above) and the tail in the middle of the golden
# rll210-16-stether point.
BUILD = [("det-small", 1), ("split-3", 1), ("stether-3", 1),
         ("punctured-small", 1), ("quad-det", 1), ("mixed-det", 1),
         ("rll210-10-punctured", 6), ("rll210-12-punctured", 1),
         ("rll210-14-punctured", 1), ("rll210-16-punctured", 1),
         ("rll210-16-stether", 2), ("rll210-18-punctured", 1)]


class Codec:
    """Short calls (a few blocks, encode then decode, as a command line
    or packet user makes them) mixed with long streams (encode, decode,
    then sliding-window decode of a prefix)."""

    name = "codec"
    # (name, graph, t, method, p, sliding window (m, a))
    ENCODERS = [
        ("rll16-stether", ("rll", 2, 10), 16, "stether", 8, (1, 0)),
        ("rll16-punctured", ("rll", 2, 10), 16, "punctured", 8, (1, 0)),
        ("rll18-stether", ("rll", 2, 10), 18, "stether", 9, (1, 0)),
        ("rll18-punctured", ("rll", 2, 10), 18, "punctured", 9, (1, 0)),
        ("quad-det", "quad", 1, "det", 2, (0, 0)),
        ("twostate3-punctured", "twostate", 3, "punctured", 2, (0, 1)),
    ]
    POLICIES = ("as-tagged", "fixed-parity", "rds-min")
    SHORT_BLOCKS = 16
    SHORTS_PER_LONG = 2
    LONG_BITS = 8192
    WINDOW = 64
    PAD = 2  # trailing blocks; covers every encoder's anticipation (<= 1)
    # a cycle is 18 long and 36 short operations; the long streams on the
    # two t=18 encoders are its 6 slowest, and the tail sits at their centre
    tail_pct = 1 - 3 / 54
    # the median is over the short calls only: its middle 12 of 36 are the
    # calls on the two t=16 encoders, and it sits at their centre
    median_kind = "short"
    trace_cycles = 3
    setup_reps = 5

    def setup(self, seed):
        from bimodal import (adjacency_pair, extract_deterministic,
                             joint_ae_exists, min_infnorm_ae, power,
                             stether, stether_punctured)
        from bimodal.io import parse_graph_file
        encoders = []
        for name, source, t, method, p, window in self.ENCODERS:
            rng = oracles.new_rng(seed, name)
            text, _smap = oracles.relabel(_base_text(source), rng)
            g = parse_graph_file(text)
            g = power(g, t) if t > 1 else g
            a0, a1, _ = adjacency_pair(g)
            n = 2 ** (p - 1)
            if method == "det":
                enc = extract_deterministic(
                    g, joint_ae_exists(a0, a1, n, n, xi_cap=1).entries, n, n)
            elif method == "stether":
                enc = stether(g, min_infnorm_ae(a0, a1, n, n)[1].entries,
                              n, n)
            else:
                enc = stether_punctured(
                    g, min_infnorm_ae(a0, a1, n + 1, n + 1)[1].entries, n, n)
            encoders.append((enc, p, window, list(enc.graph.states)))
        return encoders

    def cycle(self, inputs, seed, k):
        rng = oracles.new_rng(seed, "cycle", k)
        ops = []
        for e, (enc, p, _w, states) in enumerate(inputs):
            for policy in self.POLICIES:
                long_blocks = -(-self.LONG_BITS // p)
                ops.append(("long", e, policy, rng.choice(states),
                            oracles.random_blocks(rng, long_blocks, p)))
                for _ in range(self.SHORTS_PER_LONG):
                    ops.append(("short", e, policy, rng.choice(states),
                                oracles.random_blocks(
                                    rng, self.SHORT_BLOCKS, p)))
        rng.shuffle(ops)
        return ops

    def run(self, inputs, op):
        from bimodal import decode_sliding, decode_stream, encode_stream
        kind, e, policy, start, blocks = op
        enc, p, (m, a), _states = inputs[e]
        pad = ["0" * p] * self.PAD
        t0 = time.perf_counter()
        word, _end, _trace = encode_stream(enc, blocks + pad, start,
                                           policy=policy)
        t1 = time.perf_counter()
        decoded = decode_stream(enc, word, start, p=p)
        t2 = time.perf_counter()
        if kind == "short":
            return (word, decoded, None), None
        sliding = decode_sliding(enc, word[:self.WINDOW], m, a, p=p)
        t3 = time.perf_counter()
        bits = len(blocks) * p
        return (word, decoded, sliding), {
            "encode": (t1 - t0, bits), "decode": (t2 - t1, bits),
            "sliding": (t3 - t2, min(self.WINDOW, len(word)))}

    def check(self, inputs, op, out):
        kind, e, policy, _start, blocks = op
        _enc, _p, (m, a), _states = inputs[e]
        word, decoded, sliding = out
        probs = oracles.stream_problems(blocks, decoded, policy)
        if len(word) != len(blocks) + self.PAD:
            probs.append("encoded %d symbols for %d blocks"
                         % (len(word), len(blocks) + self.PAD))
        if sliding is not None:
            probs += oracles.sliding_problems(blocks, sliding, m, a, policy)
        return probs




def make(name, workdir):
    if name == "explore":
        return Mix(name, RateTables(), EXPLORE, 1 - (1 + 3 / 2) / 15, 2, 15)
    if name == "build":
        return Mix(name, DesignPoints(workdir), BUILD, 1 - (1 + 2 / 2) / 18,
                   2, 15)
    return Codec()
