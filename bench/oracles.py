"""Correctness oracles that share no code with the package under test.

Graph and encoder files are read with a parser of their own, word-graph
class counts come from a three-term matrix recurrence over exact Python
ints instead of word enumeration, and every check returns a list of
problems (empty when the output is right).
"""

import math
import random
import string

from fixtures import RLL16_A0, RLL16_A1, RLL16_X


def parse_text(text):
    """(states, parity0, parity1, edges, tags) of a graph or encoder file."""
    states, p0, p1, edges, tags = [], set(), set(), [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        f = rest.split()
        if key == "states":
            states += f
        elif key == "parity0":
            p0.update(f)
        elif key == "parity1":
            p1.update(f)
        elif key == "edge":
            edges.append((f[0], f[1], f[2], int(f[3]) if len(f) > 3 else 1))
        elif key == "tag":
            tags.append((f[0], int(f[1]), int(f[2]), f[3], f[4]))
        else:
            raise ValueError("unknown directive %r" % key)
    return states, p0, p1, edges, tags


def write_text(states, p0, p1, edges):
    out = ["states: " + " ".join(states),
           "parity0: " + " ".join(sorted(p0)),
           "parity1: " + " ".join(sorted(p1))]
    for (u, a, v, m) in edges:
        out.append("edge: %s %s %s" % (u, a, v)
                   + ("" if m == 1 else " %d" % m))
    return "\n".join(out) + "\n"


def relabel(text, rng):
    """Isomorphic copy: shuffled state order, fresh state names, and
    fresh equal-length symbol names that keep the symbols' sort order
    (constructions that sort candidate lists by label then build the same
    encoder up to renaming).  Returns (text, state name map)."""
    states, p0, p1, edges, _ = parse_text(text)
    names = rng.sample(range(100, 1000), len(states))
    smap = {s: "q%d" % n for s, n in zip(states, names)}
    order = list(states)
    rng.shuffle(order)
    syms = sorted(p0 | p1)
    width = 2 if len(syms) <= 600 else 3
    pool = set()
    while len(pool) < len(syms):
        pool.add("".join(rng.choice(string.ascii_lowercase)
                         for _ in range(width)))
    amap = dict(zip(syms, sorted(pool)))
    new_edges = [(smap[u], amap[a], smap[v], m) for (u, a, v, m) in edges]
    rng.shuffle(new_edges)
    return (write_text([smap[s] for s in order], {amap[a] for a in p0},
                       {amap[a] for a in p1}, new_edges), smap)


def _mat(n):
    return [[0] * n for _ in range(n)]


def _mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _add(*ms):
    return [[sum(vals) for vals in zip(*rows)] for rows in zip(*ms)]


def class_matrices(text, t):
    """Per-class path counts of the t-th power, indexed by state name.

    Split the symbols into class-0 only (S0), class-1 only (S1) and
    shared (S2).  With E, O the counts of shared-free words of even and
    odd parity and B the counts of words holding a shared symbol:
    E' = E S0 + O S1, O' = E S1 + O S0, B' = B (S0+S1+S2) + (E+O) S2,
    and A0 = E + B, A1 = O + B.
    """
    states, p0, p1, edges, _ = parse_text(text)
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    s0, s1, s2 = _mat(n), _mat(n), _mat(n)
    for (u, a, v, m) in edges:
        tgt = s2 if (a in p0 and a in p1) else (s0 if a in p0 else s1)
        tgt[idx[u]][idx[v]] += m
    e, o, b = s0, s1, s2
    total = _add(s0, s1, s2)
    for _ in range(t - 1):
        e, o, b = (_add(_mul(e, s0), _mul(o, s1)),
                   _add(_mul(e, s1), _mul(o, s0)),
                   _add(_mul(b, total), _mul(_add(e, o), s2)))
    return states, _add(e, b), _add(o, b)


def rll16_golden_problems(states, a0, a1, smap):
    """Oracle matrices of relabelled RLL(2,10)^16 against the goldens."""
    order = [smap["s%d" % i] for i in range(11)]
    pos = {s: i for i, s in enumerate(states)}
    for name, got, want in (("A0", a0, RLL16_A0), ("A1", a1, RLL16_A1)):
        mat = tuple(tuple(got[pos[u]][pos[v]] for v in order) for u in order)
        if mat != want:
            return ["oracle %s differs from the RLL16 golden" % name]
    return []


def witness_problems(a0, a1, n0, n1, x, cap):
    x = [int(v) for v in x]
    if len(x) != len(a0):
        return ["witness length %d != %d states" % (len(x), len(a0))]
    if min(x) < 0 or max(x) == 0 or max(x) > cap:
        return ["witness %s not in 0..%d or zero" % (x, cap)]
    for name, a, nb in (("A0", a0, n0), ("A1", a1, n1)):
        for i, row in enumerate(a):
            if sum(r * v for r, v in zip(row, x)) < nb * x[i]:
                return ["(%d,%d): %s x >= n x fails at row %d"
                        % (n0, n1, name, i)]
    return []


def region_problems(points, n_max, ratio, t, a0, a1, cap):
    """Exact witness check of every rate point plus ratio consistency."""
    probs = []
    n0s = [p.n0 for p in points]
    if n0s != sorted(set(n0s)):
        probs.append("region n0 values not strictly increasing")
    for p in points:
        probs += witness_problems(a0, a1, p.n0, p.n1, p.witness, cap)
    by_n0 = {p.n0: p.n1 for p in points}
    if n_max == 0:
        if ratio != float("-inf"):
            probs.append("ratio %r for n_max 0" % ratio)
    else:
        if ratio != math.log2(2 * n_max) / t:
            probs.append("ratio %r != log2(2*%d)/%d" % (ratio, n_max, t))
        if by_n0.get(n_max, -1) < n_max:
            probs.append("region misses (%d, %d)" % (n_max, n_max))
    if by_n0.get(n_max + 1, -1) >= n_max + 1:
        probs.append("(%d, %d) is in the region but n_max is %d"
                     % (n_max + 1, n_max + 1, n_max))
    return probs


def law_problems(law, t, n_max, by_n0):
    """Closed forms: twostate n_max = 2^(t-1) - 1, alternative split
    n_max = (2^t + 2(-1)^t) / 3, mixed t=2 points 20->26 and 39->13, and
    RLL(2,10)^16 admits (173, 178)."""
    if law == "twostate":
        want = 2 ** (t - 1) - 1
    elif law == "altsplit":
        want = (2 ** t + 2 * (-1) ** t) // 3
    elif law == "mixed2":
        if by_n0.get(20) != 26 or by_n0.get(39) != 13:
            return ["mixed t=2 points 20->%s, 39->%s"
                    % (by_n0.get(20), by_n0.get(39))]
        return []
    elif law == "rll16":
        return [] if by_n0.get(173, -1) >= 178 else ["(173,178) missing"]
    else:
        return []
    return [] if n_max == want else ["%s t=%d: n_max %d != %d"
                                     % (law, t, n_max, want)]


def power_file_problems(text, base_text, t, smap=None):
    """Class counts of a written power file against the recurrence."""
    states, a0, a1 = class_matrices(base_text, t)
    pstates, p0, p1, edges, _ = parse_text(text)
    if pstates != states:
        return ["power file states differ from the base graph"]
    pos = {s: i for i, s in enumerate(states)}
    n = len(states)
    got0, got1 = _mat(n), _mat(n)
    for (u, w, v, m) in edges:
        if len(w.split(".")) != t:
            return ["power edge %s has a word of length != %d" % (w, t)]
        if w in p0:
            got0[pos[u]][pos[v]] += m
        if w in p1:
            got1[pos[u]][pos[v]] += m
    if got0 != a0 or got1 != a1:
        return ["power file class counts differ from the recurrence"]
    if smap is not None:
        return rll16_golden_problems(states, a0, a1, smap)
    return []


def _parent(name):
    return name.rpartition("@")[0] if "@" in name else name


def encoder_file_problems(text, base_text, t, n0, n1, copies=None):
    """Out-degree recount, tag slots, word containment and parity, and
    optionally the number of copies of each base state."""
    states, p0, p1, edges, tags = parse_text(text)
    bstates, b0, b1, bedges, _ = parse_text(base_text)
    succ = {}
    for (u, a, v, _m) in bedges:
        succ.setdefault((u, a), set()).add(v)
    edge_set = {(u, a, v) for (u, a, v, _m) in edges}
    slots = {(s, c): [] for s in states for c in (0, 1)}
    probs = []
    for (s, c, slot, a, d) in tags:
        if (s, a, d) not in edge_set:
            probs.append("tag on missing edge %s %s %s" % (s, a, d))
            continue
        if (s, c) not in slots:
            probs.append("tag on unknown state %s" % s)
            continue
        slots[(s, c)].append(slot)
        parities = {0}
        for sym in a.split("."):
            cls = [k for k, p in ((0, b0), (1, b1)) if sym in p]
            parities = {q ^ k for q in parities for k in cls}
        if c not in parities:
            probs.append("class-%d tag on word %s of parity %s"
                         % (c, a, sorted(parities)))
    for (s, c), got in slots.items():
        want = n0 if c == 0 else n1
        if sorted(got) != list(range(want)):
            probs.append("state %s class %d has slots %s, wants 0..%d"
                         % (s, c, sorted(got)[:4], want - 1))
            break
    for (u, a, v) in edge_set:
        word = a.split(".")
        if len(word) != t:
            probs.append("encoder word %s has length != %d" % (a, t))
            break
        here = {_parent(u)}
        for sym in word:
            here = set().union(*(succ.get((q, sym), ()) for q in here))
        if _parent(v) not in here:
            probs.append("word %s does not lead %s -> %s in the constraint"
                         % (a, _parent(u), _parent(v)))
            break
    if copies is not None:
        got = {}
        for s in states:
            got[_parent(s)] = got.get(_parent(s), 0) + 1
        if {k: v for k, v in copies.items() if v} != got:
            probs.append("copies per state %s != %s" % (got, copies))
    return probs


def verify_output_problems(rc, out):
    lines = [ln.split(":", 1) for ln in out.splitlines() if ":" in ln]
    report = {k.strip(): v.strip() for k, v in lines}
    probs = [] if rc == 0 else ["verify exit %d" % rc]
    for key, want in (("out-degrees", "ok"), ("containment", "ok"),
                      ("lossless", "yes")):
        if report.get(key) != want:
            probs.append("verify %s: %s" % (key, report.get(key)))
    if not report.get("anticipation", "").isdigit():
        probs.append("verify anticipation: %s" % report.get("anticipation"))
    return probs


def payload(block, policy):
    """Bits the policy preserves: all of them as tagged, else all but the
    reserved first bit."""
    return block if policy == "as-tagged" else block[1:]


def stream_problems(blocks, decoded, policy):
    got = decoded[:len(blocks)]
    if len(got) != len(blocks):
        return ["decoded %d of %d blocks" % (len(got), len(blocks))]
    for i, (b, d) in enumerate(zip(blocks, got)):
        if d.provisional or payload(d.tag, policy) != payload(b, policy):
            return ["block %d: sent %s, decoded %s%s" % (
                i, b, d.tag, " (provisional)" if d.provisional else "")]
    return []


def sliding_problems(blocks, out, m, a, policy):
    n = len(out)
    for i in range(m, n - a):
        if out[i] is None or payload(out[i], policy) != payload(blocks[i],
                                                                policy):
            return ["window at %d: sent %s, decoded %s"
                    % (i, blocks[i], out[i])]
    return []


def golden_copies(smap):
    return {smap["s%d" % i]: RLL16_X[i] for i in range(11)}


def random_blocks(rng, count, p):
    return [format(rng.getrandbits(p), "0%db" % p) for _ in range(count)]


def new_rng(*parts):
    return random.Random(":".join(str(p) for p in parts))
