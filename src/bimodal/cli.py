"""Command line front end.

Exit codes: 0 success, 1 domain failure (infeasible, verification red,
undecodable), 2 usage or parse errors.  Errors and library warnings
reach stderr as one line each.
"""

from __future__ import annotations

import argparse
import functools
import gc
import re
import sys
import warnings

from . import graphs, io, spectra, synth, verify
from .graphs import BimodalError, Finite


def _load_graph(path):
    with open(path) as fh:
        return io.parse_graph_file(fh.read())


def _load_encoder(path):
    with open(path) as fh:
        return io.parse_encoder_file(fh.read())


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _maybe_power(g, t):
    return g if t == 1 else graphs.power(g, t)


def _int_min(lo):
    """argparse type: an integer no smaller than ``lo`` (graphs._whole)."""
    def parse(text):
        try:
            return graphs._whole(int(text), "argument", lo)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (lo, text))
    return parse


def cmd_info(args):
    g = _load_graph(args.file)
    print("states: %d" % len(g.states))
    print("edges: %d" % len(g.edges))
    print("deterministic: %s" % ("yes" if g.deterministic else "no"))
    comps = graphs.irreducible_components(g)
    print("irreducible components: %d" % len(comps))
    if len(comps) == 1 and g.edges:
        print("period: %d" % graphs.period(g))
    mem = graphs.memory(g)
    print("memory: %s" % (mem.value if isinstance(mem, Finite)
                          else "infinite"))
    print("capacity: %.6f" % spectra.capacity(g))


def cmd_power(args):
    g = _load_graph(args.file)
    _emit(io.serialize_graph(graphs.power(g, args.t)), args.output)


def cmd_franaszek(args):
    a0, a1, _ = graphs.adjacency_pair(_load_graph(args.file), args.t)
    got = spectra.joint_ae_exists(a0, a1, args.n0, args.n1, xi_cap=args.cap)
    if got is None:
        print("none <= %d" % args.cap)
        raise BimodalError("no nonzero vector within the cap")
    print(" ".join(str(v) for v in got.entries))


def cmd_region(args):
    g = _load_graph(args.file)
    points = spectra.rate_region(g, args.t, xi_cap=args.cap)
    lines = ["n0,n1,witness"]
    for p in points:
        lines.append('%d,%d,"%s"'
                     % (p.n0, p.n1, " ".join(str(v) for v in p.witness)))
    _emit("\n".join(lines) + "\n", args.output)


def _synthesize(g, a0, a1, method, n0, n1, cap):
    if method == "det":
        got = spectra.joint_ae_exists(a0, a1, n0, n1, xi_cap=1)
        if got is None:
            raise BimodalError("no 0-1 joint approximate eigenvector")
        return synth.extract_deterministic(g, got.entries, n0, n1)
    if method == "split":
        _, got = spectra.min_infnorm_ae(a0, a1, n0, n1, xi_cap=cap)
        e0 = synth.split_one_round(graphs.parity_subgraph(g, 0),
                                  got.entries, n0)
        e1 = synth.split_one_round(graphs.parity_subgraph(g, 1),
                                  got.entries, n1)
        return synth.merge_split_pair(e0, e1, got.entries)
    if method == "stether":
        _, got = spectra.min_infnorm_ae(a0, a1, n0, n1, xi_cap=cap)
        return synth.stether(g, got.entries, n0, n1)
    # punctured, the last of the methods argparse allows
    _, got = spectra.min_infnorm_ae(a0, a1, n0 + 1, n1 + 1, xi_cap=cap)
    return synth.stether_punctured(g, got.entries, n0, n1)


def cmd_synth(args):
    base = _load_graph(args.file)
    g = _maybe_power(base, args.t)
    # the search matrices are counted from the base graph, not the words
    a0, a1, _ = graphs.adjacency_pair(base, args.t)
    enc = _synthesize(g, a0, a1, args.method, args.n0, args.n1, args.cap)
    _emit(io.serialize_encoder(enc), args.output)


def cmd_verify(args):
    enc = _load_encoder(args.encoder)
    g = _load_graph(args.against)
    report = verify.check_encoder(enc, g, args.n0, args.n1, args.t)
    print(report)
    if not report.ok:
        raise BimodalError("verification failed")


def cmd_encode(args):
    enc = _load_encoder(args.encoder)
    # decode marks a provisional tag with a trailing ?, read without it
    tags = [tag.removesuffix("?") for tag in sys.stdin.read().split()]
    raw = [re.fullmatch(r"([0-9]+)/([0-9]+)", tag) for tag in tags]
    if any(raw):
        # c/s tokens, as decode prints them, are raw (class, slot) tags
        if not all(raw):
            raise ValueError("input mixes c/s tags with p-bit blocks")
        tags = [(int(m[1]), int(m[2])) for m in raw]
    word, end, trace = verify.encode_stream(
        enc, tags, args.start, policy=args.policy, p=args.p)
    print(" ".join(word))
    print("end: %s" % end, file=sys.stderr)
    print("rds: %s" % " ".join(str(v) for v in trace), file=sys.stderr)


def cmd_decode(args):
    enc = _load_encoder(args.encoder)
    word = sys.stdin.read().split()
    decoded = verify.decode_stream(enc, word, args.start, p=args.p)
    parts = []
    for d in decoded:
        tag = d.tag if isinstance(d.tag, str) else "%d/%d" % d.tag
        parts.append(tag + ("?" if d.provisional else ""))
    print(" ".join(parts))


def cmd_export_dot(args):
    g = _load_graph(args.file)
    _emit(io.export_dot(g), args.output)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bimodal",
        description="parity-split constrained encoder toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    count, positive = _int_min(0), _int_min(1)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("info", cmd_info, help="summarize a graph file")
    p.add_argument("file")

    p = add("power", cmd_power, help="write the t-th graph power")
    p.add_argument("file")
    p.add_argument("-t", type=positive, required=True)
    p.add_argument("-o", "--output")

    p = add("franaszek", cmd_franaszek,
            help="largest joint vector under a cap")
    p.add_argument("file")
    p.add_argument("--n0", type=count, required=True)
    p.add_argument("--n1", type=count, required=True)
    p.add_argument("--cap", type=positive, default=spectra.XI_CAP)
    p.add_argument("-t", type=positive, default=1)

    p = add("region", cmd_region, help="achievable degree pairs as CSV")
    p.add_argument("file")
    p.add_argument("-t", type=positive, required=True)
    p.add_argument("--cap", type=positive, default=spectra.XI_CAP)
    p.add_argument("-o", "--output")

    p = add("synth", cmd_synth, help="construct an encoder")
    p.add_argument("file")
    p.add_argument("--method", required=True,
                   choices=["det", "split", "stether", "punctured"])
    p.add_argument("--n0", type=count, required=True)
    p.add_argument("--n1", type=count, required=True)
    p.add_argument("--cap", type=positive, default=spectra.XI_CAP)
    p.add_argument("-t", type=positive, default=1)
    p.add_argument("-o", "--output")

    p = add("verify", cmd_verify, help="check an encoder against a graph")
    p.add_argument("encoder")
    p.add_argument("--against", required=True)
    p.add_argument("--n0", type=count, required=True)
    p.add_argument("--n1", type=count, required=True)
    p.add_argument("-t", type=positive, default=1)

    p = add("encode", cmd_encode,
            help="encode p-bit blocks or c/s tags from stdin")
    p.add_argument("encoder")
    p.add_argument("--start", required=True)
    p.add_argument("--policy", default="as-tagged",
                   choices=["as-tagged", "fixed-parity", "rds-min"])
    p.add_argument("-p", type=positive, default=None)

    p = add("decode", cmd_decode, help="decode a word from stdin")
    p.add_argument("encoder")
    p.add_argument("--start", required=True)
    p.add_argument("-p", type=positive, default=None)

    p = add("export-dot", cmd_export_dot, help="Graphviz output")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    return ap


# one parser per process: parsing leaves it unchanged
_parser = functools.cache(build_parser)


def _one_line(message, category, filename, lineno, line=None):
    """A library warning as one line, like the ``error:`` lines."""
    return "warning: %s\n" % message


def main(argv=None):
    # the command builds many containers and no reference cycles (a
    # test holds every command to that), so a cyclic collection would
    # only scan them; the pause covers the cached parser's build too,
    # whose cycles (argparse's, once per process) wait for a later
    # collection; the caller's setting comes back in the finally, after
    # a usage exit too
    collecting = gc.isenabled()
    gc.disable()
    shown = warnings.formatwarning
    try:
        args = _parser().parse_args(argv)
        warnings.formatwarning = _one_line
        args.fn(args)
    except (io.ParseError, graphs.ValidationError, OSError,
            UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # Warning: a library warning raised as an error under python -W error
    except (BimodalError, ValueError, Warning) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = shown
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
