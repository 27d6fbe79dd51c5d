"""Plain-text graph and encoder files.

Grammar, one directive per line, '#' starts a comment:

    states:  <name> ...
    parity0: <symbol> ...
    parity1: <symbol> ...
    edge: <src> <symbol> <dst> [<mult>]
    tag:  <src> <class> <slot> <symbol> <dst>

Tag lines turn the file into an encoder description.  Serialization is
canonical: declaration order for states, sorted symbols, edges sorted by
source, label, target.
"""

from __future__ import annotations

from .graphs import (BimodalError, TaggedEncoder, ValidationError,
                     _empty_classes, validate_graph)


class ParseError(Exception):
    def __init__(self, line_no, reason):
        self.line_no = line_no
        super().__init__("line %d: %s" % (line_no, reason))


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _parse(text):
    states = []
    parity0 = []
    parity1 = []
    edges = []
    tags = []
    seen = set()
    for no, line in _lines(text):
        if ":" not in line:
            raise ParseError(no, "missing ':' directive")
        key, _, rest = line.partition(":")
        key = key.strip()
        fields = rest.split()
        if key == "states":
            states.extend(fields)
        elif key == "parity0":
            parity0.extend(fields)
        elif key == "parity1":
            parity1.extend(fields)
        elif key == "edge":
            if len(fields) not in (3, 4):
                raise ParseError(no, "edge needs 3 or 4 fields")
            mult = 1
            if len(fields) == 4:
                try:
                    mult = int(fields[3])
                except ValueError:
                    raise ParseError(no, "bad multiplicity %r" % fields[3])
            edges.append((fields[0], fields[1], fields[2], mult))
        elif key == "tag":
            if len(fields) != 5:
                raise ParseError(no, "tag needs 5 fields")
            try:
                cls, slot = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(no, "bad tag class/slot")
            if cls not in (0, 1) or slot < 0:
                raise ParseError(no, "bad tag class/slot")
            if (fields[0], cls, slot) in seen:
                raise ParseError(no, "duplicate tag %s %d %d"
                                 % (fields[0], cls, slot))
            seen.add((fields[0], cls, slot))
            tags.append((fields[0], cls, slot, fields[3], fields[4]))
        else:
            raise ParseError(no, "unknown directive %r" % key)
    return states, parity0, parity1, edges, tags


def _validated(states, p0, p1, edges):
    try:
        return validate_graph(states, edges, p0, p1)
    except ValidationError as exc:
        raise ParseError(0, str(exc))


def parse_graph_file(text):
    states, p0, p1, edges, tags = _parse(text)
    if tags:
        raise ParseError(0, "file contains tag lines; use the encoder parser")
    return _validated(states, p0, p1, edges)


def parse_encoder_file(text):
    states, p0, p1, edges, tags = _parse(text)
    g = _validated(states, p0, p1, edges)
    index = {(e.src, e.label, e.dst): e for e in g.edges}
    tag_map = {}
    n = [0, 0]
    for (src, cls, slot, label, dst) in tags:
        e = index.get((src, label, dst))
        if e is None:
            raise ParseError(0, "tag refers to missing edge %s %s %s"
                             % (src, label, dst))
        tag_map.setdefault(e, []).append((cls, slot))
        n[cls] = max(n[cls], slot + 1)
    return TaggedEncoder(g, {e: tuple(sorted(t)) for e, t in tag_map.items()},
                         n[0], n[1])


def serialize_graph(g):
    """Canonical graph text; a graph with an empty parity class is
    refused, as the parser would refuse its file."""
    empty = _empty_classes(g.parity)
    if empty:
        raise BimodalError("; ".join(empty))
    out = ["states: %s" % " ".join(g.states)]
    out.append("parity0: %s" % " ".join(sorted(g.parity.class0)))
    out.append("parity1: %s" % " ".join(sorted(g.parity.class1)))
    for e in sorted(g.edges, key=g.edge_key):
        mult = "" if e.mult == 1 else " %d" % e.mult
        out.append("edge: %s %s %s%s" % (e.src, e.label, e.dst, mult))
    return "\n".join(out) + "\n"


def serialize_encoder(enc):
    out = [serialize_graph(enc.graph).rstrip("\n")]
    g = enc.graph
    for e in sorted(g.edges, key=g.edge_key):
        for (cls, slot) in sorted(enc.tags.get(e, ())):
            out.append("tag: %s %d %d %s %s"
                       % (e.src, cls, slot, e.label, e.dst))
    return "\n".join(out) + "\n"


def _dot_id(name):
    return '"%s"' % name.replace('"', '\\"')


def export_dot(g):
    """Graphviz text: class-0 edges solid, class-1 dashed, shared bold."""
    lines = ["digraph constraint {", "  rankdir=LR;"]
    for s in g.states:
        lines.append("  %s;" % _dot_id(s))
    for e in sorted(g.edges, key=g.edge_key):
        in0 = e.label in g.parity.class0
        in1 = e.label in g.parity.class1
        if in0 and in1:
            style = "bold"
        elif in1:
            style = "dashed"
        else:
            style = "solid"
        extra = "" if e.mult == 1 else " x%d" % e.mult
        lines.append('  %s -> %s [label="%s%s", style=%s];'
                     % (_dot_id(e.src), _dot_id(e.dst), e.label, extra,
                        style))
    lines.append("}")
    return "\n".join(lines) + "\n"
