"""The value-identity corpus: one digest of every output a refactor must
leave unchanged, so that a change shows, by case, each output it moved.

``cases()`` yields one (key, input digest, output digest) per case.  A
digest is the sha256 of a value's canonical text (``canon``): order
kept, sets sorted, numpy arrays with their dtype, exceptions by type
and message, warnings by category and text, certificates by value.
The families, by key prefix:

  build/   the 36 design points of bench/workloads.DesignPoints for seeds
           1 and 7 through cli.main (power -o, synth, verify): exit
           codes, stdout, stderr (the work directory read as <work>) and
           both written files;
  fixture/ info, region, serialize_graph and export_dot on every fixture
           and its powers t <= 4;
  codec/   the six Codec().setup(seed) encoders for seeds 1 and 7: the
           encoder file, and per policy one seeded block stream's word,
           end state and running digital sum, decode_stream and
           decode_sliding at the encoder's window;
  synth/   every synth route, info, serialization and the least power
           budget on seeded random draws, half of them shuffled graphs
           with multiplicities and overlapping covers, and the least
           power budget of a dense binary draw beside each;
  draws/   the draws of the tests that compared against frozen copies of
           replaced code, with their seeds and generators, keeping the
           full value each compared.

Run as a script to rewrite value_corpus.txt next to it, one sorted
``key input output`` line per case:

    python tests/value_corpus.py
"""

import contextlib
import dataclasses
import hashlib
import io as _textio
import os
import sys
import tempfile
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "value_corpus.txt")
SEEDS = (1, 7)
if HERE not in sys.path:
    sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))
# the bench's modules import each other by bare name
sys.path.append(os.path.join(ROOT, "bench"))

import helpers  # noqa: E402
from bimodal import (  # noqa: E402
    BimodalError,
    InfeasibleVector,
    PairGraph,
    TaggedEncoder,
    adjacency_pair,
    check_encoder,
    decode_sliding,
    decode_stream,
    encode_stream,
    extract_deterministic,
    follower_le,
    joint_ae_exists,
    merge_split_pair,
    merge_states,
    min_infnorm_ae,
    NotFoundWithin,
    irreducible_components,
    parity_subgraph,
    period,
    power,
    presents_subset,
    split_one_round,
    stether,
    stether_punctured,
)
from bimodal import cli, graphs, io, verify  # noqa: E402
from bimodal.graphs import (  # noqa: E402
    Edge, Finite, Infinite, LabeledGraph, ParityPartition)


# -- canonical text and digests ---------------------------------------

# types whose repr is already canonical text
ATOMS = {type(None), bool, int, float, str, bytes, Edge}


def _items(v, opening, closing):
    if all(type(x) in ATOMS for x in v):
        return repr(v)
    return opening + ",".join(map(canon, v)) + closing


def _set(v):
    if all(type(x) is str for x in v):
        return "set%r" % sorted(v)
    return "set{%s}" % ",".join(sorted(map(canon, v)))


# canonical text by exact type
EXACT = {
    tuple: lambda v: _items(v, "(", ")"),
    list: lambda v: _items(v, "[", "]"),
    dict: lambda v: "{%s}" % ",".join("%s:%s" % (canon(k), canon(x))
                                      for k, x in v.items()),
    set: _set,
    frozenset: _set,
    np.ndarray: lambda v: "array<%s>%s" % (v.dtype.name, canon(v.tolist())),
    ParityPartition: lambda v: "ParityPartition%s%s" % (_set(v.class0),
                                                        _set(v.class1)),
    LabeledGraph: lambda v: "LabeledGraph%s" % canon(
        (v.states, v.edges, v.parity, v.members)),
    TaggedEncoder: lambda v: "TaggedEncoder%s" % canon(
        (v.graph, v.tags, v.n0, v.n1)),
    Infinite: lambda v: "Infinite(%s)" % canon(v.certificate),
}


def canon(v):
    """``v`` as text that equal values share and unequal ones do not."""
    if type(v) in ATOMS:
        return repr(v)
    exact = EXACT.get(type(v))
    if exact is not None:
        return exact(v)
    if isinstance(v, np.generic):
        return "%s(%r)" % (type(v).__name__, v.item())
    if isinstance(v, BaseException):
        return "%s(%r)" % (type(v).__name__, str(v))
    if isinstance(v, type):
        return v.__name__
    if isinstance(v, tuple) and hasattr(v, "_fields"):
        return type(v).__name__ + canon(tuple(v))
    if dataclasses.is_dataclass(v):
        return type(v).__name__ + canon(tuple(
            getattr(v, f.name) for f in dataclasses.fields(v)))
    raise TypeError("no canonical text for %s" % type(v).__name__)


def digest(v):
    return hashlib.sha256(canon(v).encode()).hexdigest()[:16]


def outcome(fn, *args, **kw):
    """What a call gives: ("ok", its value) or ("raised", the exception),
    and the warnings it gave, each by category and text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = "ok", fn(*args, **kw)
        except Exception as exc:  # every refusal is part of the value
            got = "raised", exc
    return got + ([(w.category, str(w.message)) for w in caught],)


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


@contextlib.contextmanager
def shown_warnings():
    """Every warning written to sys.stderr, as a script shows it, also
    where a test run records warnings or turns them into errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show
        yield


def run_cli(argv, work):
    """(exit code, stdout, stderr) of cli.main(argv), ``work`` read as
    <work>."""
    out, err = _textio.StringIO(), _textio.StringIO()
    with shown_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return (rc, out.getvalue().replace(work, "<work>"),
            err.getvalue().replace(work, "<work>"))


# -- families 1-3: the bench's inputs and the fixtures -----------------

def build_cases(work):
    import workloads
    for seed in SEEDS:
        family = workloads.DesignPoints(os.path.join(work, "build"))
        inputs = family.setup(seed)
        for slot, rows in inputs.items():
            for v, row in enumerate(rows):
                path, text, _smap, source, t, method, n0, n1 = row
                with shown_warnings():
                    (runs, power_text, enc_text), _ = family.run(
                        inputs, (slot, v))
                runs = [(rc, out.replace(work, "<work>"),
                         err.replace(work, "<work>"))
                        for rc, out, err in runs]
                yield ("build/%d/%s/%d" % (seed, slot, v),
                       digest((text, source, t, method, n0, n1)),
                       digest((runs, power_text, enc_text)))


FIXTURES = sorted(os.listdir(helpers.FIXTURES))


def fixture_cases(work):
    for name in FIXTURES:
        path = os.path.join(helpers.FIXTURES, name)
        with open(path) as fh:
            text = fh.read()
        g = helpers.load(name)
        for t in range(1, 5):
            h = power(g, t) if t > 1 else g
            written = os.path.join(work, "%s-%d.cg" % (name, t))
            serialized = io.serialize_graph(h)
            with open(written, "w") as fh:
                fh.write(serialized)
            key = "fixture/%s/t%d/" % (name, t)
            given = digest((text, t))
            yield key + "serialize", given, digest(serialized)
            yield key + "dot", given, digest(io.export_dot(h))
            yield key + "info", given, digest(run_cli(["info", written],
                                                      work))
            yield key + "region", given, digest(run_cli(
                ["region", path, "-t", str(t)], helpers.FIXTURES))


STREAM_BLOCKS = 40


def codec_cases():
    import oracles
    import workloads
    codec = workloads.Codec()
    for seed in SEEDS:
        made = outcome(codec.setup, seed)
        encoders = made[1]
        yield "codec/%d/setup" % seed, digest(seed), digest(made[2])
        for k, (row, (enc, p, (m, a), states)) in enumerate(
                zip(codec.ENCODERS, encoders)):
            name, source = row[0], row[1]
            text, _ = oracles.relabel(workloads._base_text(source),
                                      oracles.new_rng(seed, name))
            key = "codec/%d/%s/" % (seed, name)
            given = digest((text, row))
            yield key + "encoder", given, digest(io.serialize_encoder(enc))
            rng = np.random.default_rng([seed, k])
            for policy in codec.POLICIES:
                start = states[rng.integers(len(states))]
                blocks = [format(int(b), "0%db" % p) for b in
                          rng.integers(2 ** p, size=STREAM_BLOCKS)]
                blocks += ["0" * p] * codec.PAD
                encoded = outcome(encode_stream, enc, blocks, start,
                                  policy=policy)
                word = encoded[1][0] if encoded[0] == "ok" else []
                yield (key + policy, digest((given, start, blocks)), digest((
                    encoded, outcome(decode_stream, enc, word, start, p=p),
                    outcome(decode_sliding, enc, word, m, a, p=p))))


# -- family 4: synth routes on seeded random draws ---------------------

SYNTH_DRAWS = 120


def _route(route, g, base, t, n0, n1, rng):
    """The encoder a synth route builds from g = power(base, t) at (n0,
    n1), as the command line builds it, with a vector from the search
    (or a random one where the search finds none), and the check of what
    it built."""
    a0, a1, _ = adjacency_pair(g)
    up = route == "punctured"
    try:
        if route == "det":
            x = joint_ae_exists(a0, a1, n0, n1, xi_cap=1)
            x = x.entries if x is not None else None
        else:
            x = min_infnorm_ae(a0, a1, n0 + up, n1 + up, xi_cap=6)[1].entries
    except NotFoundWithin:
        x = None
    if x is None:
        x = tuple(int(v) for v in rng.integers(0, 3, size=len(g.states)))

    def build():
        if route == "det":
            return extract_deterministic(g, x, n0, n1)
        if route == "split":
            return merge_split_pair(
                split_one_round(parity_subgraph(g, 0), x, n0),
                split_one_round(parity_subgraph(g, 1), x, n1), x)
        if route == "stether":
            return stether(g, x, n0, n1)
        return stether_punctured(g, x, n0, n1)

    built = outcome(build)
    checked = None
    if built[0] == "ok":
        checked = outcome(lambda e: (io.serialize_encoder(e), str(
            check_encoder(e, base, n0, n1, t))), built[1])
    return x, built, checked


def _least_budget(g, t):
    """power(g, t), and the least POWER_BUDGET under which it builds: at
    least its edge count, more where a table of the schedule holds more
    rows."""
    got = outcome(power, g, t)
    if got[0] != "ok":
        return got

    def builds(budget):
        graphs.POWER_BUDGET = budget
        try:
            power(g, t)
        except BimodalError:
            return False
        return True

    kept = graphs.POWER_BUDGET
    try:
        lo = hi = max(len(got[1].edges), 1)
        while not builds(hi):
            lo, hi = hi + 1, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if builds(mid) else (mid + 1, hi)
    finally:
        graphs.POWER_BUDGET = kept
    return got, lo


def synth_cases(work):
    rng = np.random.default_rng(33)
    for i in range(SYNTH_DRAWS):
        strict = bool(i % 4 < 2)
        if i % 2:
            g = helpers.random_shuffled_graph(rng, strict)
        else:
            g = helpers.random_det_graph(rng, strict=strict)
            if i % 4 == 2:
                g = helpers.with_multiplicities(rng, g)
        text = io.serialize_graph(g)
        path = os.path.join(work, "synth-%d.cg" % i)
        with open(path, "w") as fh:
            fh.write(text)
        key, given = "synth/%03d/" % i, digest(g)
        yield key + "serialize", given, digest((text, io.export_dot(g)))
        yield key + "info", given, digest(run_cli(["info", path], work))
        yield key + "power", given, digest([_least_budget(g, t)
                                            for t in (2, 3)])
        # a dense binary draw: rows with several targets whose words
        # meet again, where power's row count differs from a sum
        states = ["d%d" % k for k in range(int(rng.integers(2, 4)))]
        dense = graphs.validate_graph(states, sorted({
            (u, "01"[rng.integers(2)], states[rng.integers(len(states))])
            for u in states for _ in range(rng.integers(2, 5))}), "0", "1")
        yield key + "dense-power", digest(dense), digest([
            _least_budget(dense, t) for t in (2, 3)])
        t = 1 + i % 3 // 2
        h = power(g, t) if t > 1 else g
        for route in ("det", "split", "stether", "punctured"):
            n0, n1 = (int(v) for v in rng.integers(0, 4, size=2))
            x, built, checked = _route(route, h, g, t, n0, n1, rng)
            yield (key + route, digest((given, t, n0, n1, x)),
                   digest((built, checked)))


# -- family 5: the draws of retired frozen-copy comparisons ------------
#
# Each generator replays one retired test's loop, with its seed and
# generators, and returns (input, output) per draw: the input as drawn,
# the output every value that test compared; ``seen`` collects the
# kinds that test asserted it met.

def pair_checks(e):
    """Every answer read off the pair graph; the edge checks share one
    prebuilt pair graph."""
    windows = [(m, a) for m in range(3) for a in range(3)]
    pg = PairGraph(e.graph)
    return (verify.losslessness(pg), verify.anticipation(pg),
            verify.definiteness(pg),
            [verify.is_definite(pg, m, a) for m, a in windows],
            graphs.memory(e.graph),
            [verify.sliding_block_decodable(e, m, a) for m, a in windows])


def draw_vector(rng, g, a0, a1, n0, n1, kind):
    """A witness at (n0, n1) (``kind`` 0, or a random 0-2 vector when none
    is found), or a vector meant to meet one refusal first: any length
    and sign (1), huge equal entries past the copy budget (2), or a 0-1
    vector (3)."""
    n = len(g.states)
    if kind == 0:
        try:
            return min_infnorm_ae(a0, a1, n0, n1, xi_cap=6)[1].entries
        except NotFoundWithin:
            return rng.integers(0, 3, size=n)
    if kind == 1:
        return rng.integers(-1, 3, size=n + int(rng.integers(-1, 2)))
    if kind == 2:
        return [10 ** int(rng.integers(6, 40))] * n
    return rng.integers(0, 2, size=n)


def outside_word(g, t, rng):
    """A word of t symbols of g that no path of g reads, or None."""
    import test_verify
    words = set(test_verify._words(g, t))
    symbols = sorted(g.parity.alphabet)
    for _ in range(50):
        w = ".".join(symbols[rng.integers(len(symbols))] for _ in range(t))
        if w not in words:
            return w
    return None


def relabelled(g, edge, label):
    """g with ``edge`` reading ``label``."""
    return LabeledGraph(g.states, [Edge(ed.src, label, ed.dst, ed.mult)
                                   if ed == edge else ed for ed in g.edges],
                        g.parity)


def draws_period(seen):
    """graphs.period on every irreducible component of random graphs and
    its powers t <= 3 (once against a depth-first dict walk)."""
    rng = np.random.default_rng(29)
    cases = []
    for i in range(600):
        g = helpers.random_graph(rng, max_states=5, strict=bool(i % 2))
        periods = []
        for comp, _ in irreducible_components(g):
            for t in (1, 2, 3):
                h = power(comp, t) if t > 1 else comp
                if not h.edges or len(irreducible_components(h)) != 1:
                    continue
                periods.append(period(h))
                seen.add("period %d" % min(periods[-1], 3))
                if any(e.mult > 1 for e in h.edges):
                    seen.add("multiplicity")
                if h.parity.class0 & h.parity.class1:
                    seen.add("overlapping cover")
        cases.append((g, periods))
    return cases


def draws_follower(seen):
    """follower_le on random pairs, their squares and determinized
    squares (once against an edge loop)."""
    rng = np.random.default_rng(97)
    cases = []
    for i in range(200):
        strict = bool(i % 2)
        g2 = helpers.random_det_graph(rng, strict=strict)
        g1 = helpers.random_graph(rng, max_states=3, strict=strict)
        if i % 3 == 0:
            g1 = helpers.with_multiplicities(rng, g1)
        got = []
        for a, b in ((g1, g2), (g2, g2),
                     (power(g1, 2), graphs.determinize(power(g2, 2)))):
            got.append(follower_le(a, b))
            labels = {s: set(es) for s, es in b.by_label.items()}
            lacks = {(u, v) for u in a.states for v in b.states
                     if not set(a.by_label[u]) <= labels[v]}
            failed = {(u, v) for u in a.states for v in b.states} - got[-1]
            seen |= {k for k, hit in (("lacks", lacks),
                                      ("reaches", failed - lacks),
                                      ("holds", got[-1])) if hit}
        cases.append(((g1, g2), got))
    return cases


def draws_stether(seen):
    """stether and punctured stethering on strict and overlapping covers
    (once against the cover-consistent division and the consecutive
    cut)."""
    rng = np.random.default_rng(14)
    cases = []
    for i in range(600):
        strict = bool(i % 2)
        if i % 8 < 2:
            g = helpers.random_graph(rng, max_states=3, strict=strict)
        else:
            g = helpers.random_det_graph(rng, strict=strict)
        base, g = g, g if i % 3 else power(g, 2)
        a0, a1, _ = adjacency_pair(g)
        n0, n1 = (int(v) for v in rng.integers(1, 4, size=2))
        got = []
        for up, build in ((0, stether), (1, stether_punctured)):
            try:
                _, x = min_infnorm_ae(a0, a1, n0 + up, n1 + up, xi_cap=6)
                x = x.entries
            except NotFoundWithin:
                x = rng.integers(0, 3, size=len(g.states))
            got.append((x, outcome(build, g, x, n0, n1)))
            seen.add((strict, got[-1][1][0] == "raised"))
        cases.append(((base, n0, n1), got))
    return cases


def draws_routes(seen):
    """stether, punctured stethering and extraction with vectors meant to
    meet each refusal (once against the routes as they checked the
    vector on the class matrices)."""
    rng = np.random.default_rng(27)
    routes = ((0, stether), (1, stether_punctured),
              (0, extract_deterministic))
    cases = []
    for i in range(800):
        strict = bool(i % 2)
        if i % 8 < 2:
            g = helpers.random_graph(rng, max_states=3, strict=strict)
        else:
            g = helpers.random_det_graph(rng, strict=strict)
        g = g if i % 3 else power(g, 2)
        if i % 7 == 0 and g.parity.class0 and g.parity.class1:
            g = helpers.with_multiplicities(rng, g)
        a0, a1, _ = adjacency_pair(g)
        n0, n1 = (int(v) for v in rng.integers(0, 4, size=2))
        got = []
        for up, build in routes:
            x = draw_vector(rng, g, a0, a1, n0 + up, n1 + up, i % 4)
            kind, value, warned = made = outcome(build, g, x, n0, n1)
            got.append((x, made))
            seen.add("built" if kind == "ok" else str(value).split(" ")[0]
                     if type(value) is InfeasibleVector
                     else type(value).__name__)
            seen.add("warned" if warned else "quiet")
        cases.append(((g, n0, n1), got))
    return cases


def draws_punctured_forever(seen):
    """Punctured stethering where two walks part and never tell apart."""
    import test_synth
    g, x = test_synth._parted_forever()
    return [((g, x), outcome(stether_punctured, g, x, 1, 2))]


def draws_presents(seen):
    """presents_subset verdicts: encoders inside the constraint, on its
    words and others', and ones that leave it on the first or a late
    edge (once against a (state set, label) memo)."""
    import test_verify as tv
    rng = np.random.default_rng(97)
    cases = []
    nondeterministic = 0
    for i in range(60):
        base = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                    max_out=3)
        g = base if i % 3 else power(base, 2)
        nondeterministic += not g.deterministic
        got = []
        for t in (1, 2, 3):
            keep = [ed for ed in g.edges if rng.random() < 0.8] or g.edges
            inside = power(LabeledGraph(g.states, keep, g.parity), t)
            other = tv._words(helpers.random_graph(rng, max_states=2), t)
            encoders = {"inside": inside,
                        "words": tv._labelled(rng, tv._words(g, t),
                                              g.parity),
                        "others": tv._labelled(rng, tv._words(g, t) + other,
                                               g.parity)}
            out = outside_word(g, t, rng)
            tails = [v for v in inside.states
                     if helpers.out_edges(inside, v)]
            if out is not None and tails:
                first = helpers.out_edges(inside, tails[-1])[0]
                late = helpers.out_edges(inside, tails[0])[-1]
                encoders["first"] = relabelled(inside, first, out)
                encoders["late"] = relabelled(inside, late, out)
            for kind, e in encoders.items():
                got.append((kind, presents_subset(e, g, t)))
                seen.add(got[-1])
        cases.append((base, got))
    if nondeterministic >= 20:
        seen.add("nondeterministic")
    return cases


def draws_word_split(seen):
    """The word split of words, longer words and non-words, and the
    presents_subset verdicts that read it (once against a branched
    split)."""
    import test_verify as tv
    rng = np.random.default_rng(89)
    cases = []
    for i in range(48):
        base = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                    max_out=2)
        if i % 4 == 0:
            base = helpers.with_multiplicities(rng, base)
        g = base if i % 3 else power(base, 2)
        got = []
        for t in (1, 2, 3):
            words = tv._words(g, t)
            w = words[0]
            labels = (words + tv._words(g, t + 1)
                      + ["zz", w + ".", w + ".." + w])
            got.append(graphs._split_words(g, t, labels))
            keep = [ed for ed in g.edges if rng.random() < 0.7]
            for e in (power(LabeledGraph(g.states, keep, g.parity), t),
                      tv._labelled(rng, words, g.parity),
                      tv._labelled(rng, labels, g.parity)):
                got.append(presents_subset(e, g, t))
                seen.add(got[-1])
        cases.append((base, got))
    return cases


def draws_pair_graph(seen):
    """The pair arrays and every pair check on nondeterministic graphs,
    edges of multiplicity 2 and the fixture encoders (once against the
    edge-pair listing)."""
    import test_acceptance
    rng = np.random.default_rng(83)
    encoders = [e for _, _, e, _, _, _ in test_acceptance._fixture_encoders()]
    for i in range(150):
        g = helpers.random_graph(rng, strict=bool(i % 2))
        if i % 3 == 0:
            g = graphs.validate_graph(g.states, [
                (ed.src, ed.label, ed.dst, int(rng.integers(1, 3)))
                for ed in g.edges], g.parity.class0, g.parity.class1)
        encoders.append(TaggedEncoder(g, {
            ed: ((int(rng.integers(2)), int(rng.integers(2))),)
            for ed in g.edges}, 1, 1))
    cases = []
    for e in encoders:
        pg = PairGraph(e.graph)
        got = pair_checks(e)
        cases.append((e, (pg.src, pg.dst, got)))
        seen.add((got[0], isinstance(got[1], Infinite),
                  any(ed.mult > 1 for ed in e.graph.edges)))
    return cases


def draws_pair_layer(seen):
    """Every pair check, follower_le into deterministic graphs and
    merge_states on random graphs, then every pair check on shuffled
    graphs whose tag sets are absent or hold one or two tags (once
    against label masks and Tarjan walks)."""
    rng = np.random.default_rng(89)
    cases = []
    for i in range(1000):
        strict = bool(i % 2)
        g = helpers.random_graph(rng, max_states=6, strict=strict)
        if i % 3 == 0:
            g = helpers.with_multiplicities(rng, g)
        e = TaggedEncoder(g, {
            ed: ((int(rng.integers(2)), int(rng.integers(2))),)
            for ed in g.edges}, 1, 1)
        got = pair_checks(e)
        h = helpers.random_det_graph(rng, max_states=6, strict=strict)
        merged = []
        for w in (None, [int(v) for v in rng.integers(0, 3, len(h.states))]):
            merged.append(outcome(merge_states, h, w))
        cases.append(((e, h), (got, follower_le(g, h), follower_le(h, h),
                               merged)))
        seen.add(("random", got[0], isinstance(got[1], Infinite),
                  got[2] is None, isinstance(got[4], Infinite))
                 + tuple(len(m[1].states) < len(h.states) for m in merged))
    for i in range(300):
        g = helpers.random_shuffled_graph(rng, strict=bool(i % 2))
        if i % 4 < 2:
            g = graphs.validate_graph(g.states, [ed[:3] for ed in g.edges],
                                      g.parity.class0, g.parity.class1)
        e = TaggedEncoder(g, {
            ed: tuple((int(rng.integers(2)), int(rng.integers(2)))
                      for _ in range(rng.integers(1, 3)))
            for ed in g.edges if rng.integers(4)}, 1, 1)
        got = pair_checks(e)
        cases.append((e, got))
        seen.add(("shuffled", got[0], isinstance(got[1], Infinite),
                  any(got[5]), all(got[5])))
    return cases


def draws_decoders(seen):
    """decode_stream on words that leave the encoder, run through an
    untagged edge or stop short, raw tags and 2-bit blocks interleaved
    (once against a per-call memo decoder)."""
    import test_verify as tv
    rng = np.random.default_rng(89)
    cases = []
    for i in range(160):
        e = tv._random_block_encoder(rng, strict=bool(i % 2))
        g = e.graph
        ant = verify.anticipation(e)
        a = ant.value if isinstance(ant, Finite) else None
        alphabet = sorted(g.parity.alphabet)
        for start in g.states[:3]:
            word, state = [], start
            for _ in range(2 * (a or 0) + 10):
                out = helpers.out_edges(g, state)
                ed = out[rng.integers(len(out))]
                word.append(ed.label)
                state = ed.dst
            words = [word]
            for bad in (alphabet[rng.integers(len(alphabet))], "zz"):
                words.append(list(word))
                words[-1][rng.integers(len(word))] = bad
            words += [w[:int(rng.integers(1, len(w) + 1))] for w in words]
            if a is not None:
                cases.append(((e, start, words), [
                    outcome(decode_stream, e, w, start, p)
                    for w in words for p in (None, 2)]))
    return cases


def draws_slots(seen):
    """slots_ok and out_degrees_ok on random tags, repeated and gapped
    ones among them (once against the by_tag rule)."""
    import test_verify as tv
    rng = np.random.default_rng(101)
    cases = []
    for i in range(300):
        e = tv._random_tagged(rng, strict=bool(i % 2))
        tags = {ed: ts + ((int(rng.integers(2)), int(rng.integers(3))),)
                if rng.random() < 0.2 else ts for ed, ts in e.tags.items()}
        for e in (e, TaggedEncoder(e.graph, tags, int(rng.integers(3)),
                                   int(rng.integers(3)))):
            cases.append((e, ([e.slots_ok(s, b, n) for s in e.graph.states
                               for b in (0, 1) for n in range(4)],
                              e.out_degrees_ok())))
    return cases


def draws_adjacency_pair(seen):
    """adjacency_pair's counts and dtypes on either side of its int64
    switch (once against a doubling in Python ints)."""
    cases = []
    for name, t in (("twostate.cg", 8), ("twostate.cg", 40),
                    ("rll210.cg", 16), ("rll210.cg", 18), ("rll210.cg", 64),
                    ("mixed.cg", 3), ("mixed.cg", 20), ("mixed.cg", 40),
                    ("quad.cg", 40)):
        got = outcome(adjacency_pair, helpers.load(name), t)
        cases.append(((name, t), got[:1] + (got[1][:2],) + got[2:]
                      if got[0] == "ok" else got))
    return cases


# name: the generator of (input, output) per draw, in draw order
RETIRED = {
    "period": draws_period,
    "follower": draws_follower,
    "stether": draws_stether,
    "routes": draws_routes,
    "punctured-forever": draws_punctured_forever,
    "presents": draws_presents,
    "word-split": draws_word_split,
    "pair-graph": draws_pair_graph,
    "pair-layer": draws_pair_layer,
    "decoders": draws_decoders,
    "slots": draws_slots,
    "adjacency-pair": draws_adjacency_pair,
}
CHUNK = 200  # draws per key


def retired_cases(seen):
    for name, draws in RETIRED.items():
        got = draws(seen.setdefault(name, set()))
        for k in range(0, len(got), CHUNK):
            part = got[k:k + CHUNK]
            yield ("draws/%s/%04d" % (name, k), digest([c for c, _ in part]),
                   digest([r for _, r in part]))


def cases(seen=None):
    """Every case as (key, input digest, output digest), in family order;
    ``seen``, a dict, gets each retired family's set of kinds met."""
    seen = {} if seen is None else seen
    with tempfile.TemporaryDirectory() as work:
        yield from build_cases(work)
        yield from fixture_cases(work)
        yield from codec_cases()
        yield from synth_cases(work)
    yield from retired_cases(seen)


def read(path=CORPUS):
    """The committed corpus: key -> (input digest, output digest)."""
    with open(path) as fh:
        return {key: (given, got) for key, given, got in
                (line.split() for line in fh if line.strip())}


def main():
    lines = sorted("%s %s %s\n" % case for case in cases())
    with open(CORPUS, "w") as fh:
        fh.writelines(lines)
    print("%d cases written to %s" % (len(lines), CORPUS))


if __name__ == "__main__":
    main()
