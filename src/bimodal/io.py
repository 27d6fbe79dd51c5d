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
                     _empty_classes, _validated)


class ParseError(Exception):
    def __init__(self, line_no, reason):
        self.line_no = line_no
        super().__init__("line %d: %s" % (line_no, reason))


def _parse(text):
    states, parity0, parity1, edges, tags = [], [], [], [], []
    names = {"states": states, "parity0": parity0, "parity1": parity1}
    seen = set()
    comments = "#" in text
    for no, line in enumerate(text.splitlines(), start=1):
        if comments:
            line = line.split("#", 1)[0]
        key, colon, rest = line.partition(":")
        key = key.strip()
        if not colon:
            if key:
                raise ParseError(no, "missing ':' directive")
            continue
        fields = rest.split()
        # tag lines are half of an encoder file: test them first
        if key == "tag":
            if len(fields) != 5:
                raise ParseError(no, "tag needs 5 fields")
            src, cls, slot, label, dst = fields
            try:
                cls, slot = int(cls), int(slot)
            except ValueError:
                raise ParseError(no, "bad tag class/slot")
            if cls not in (0, 1) or slot < 0:
                raise ParseError(no, "bad tag class/slot")
            held = (src, cls, slot)
            if held in seen:
                raise ParseError(no, "duplicate tag %s %d %d" % held)
            seen.add(held)
            tags.append((src, cls, slot, label, dst))
        elif key == "edge":
            if len(fields) not in (3, 4):
                raise ParseError(no, "edge needs 3 or 4 fields")
            try:
                mult = int(fields[3]) if len(fields) == 4 else 1
            except ValueError:
                raise ParseError(no, "bad multiplicity %r" % fields[3])
            edges.append((fields[0], fields[1], fields[2], mult))
        elif key in names:
            names[key].extend(fields)
        else:
            raise ParseError(no, "unknown directive %r" % key)
    return states, parity0, parity1, edges, tags


def _read_graph(states, p0, p1, edges):
    """_validated's (graph, index), its violations as a ParseError."""
    try:
        return _validated(states, edges, p0, p1)
    except ValidationError as exc:
        raise ParseError(0, str(exc))


def parse_graph_file(text):
    states, p0, p1, edges, tags = _parse(text)
    if tags:
        raise ParseError(0, "file contains tag lines; use the encoder parser")
    return _read_graph(states, p0, p1, edges)[0]


def parse_encoder_file(text):
    states, p0, p1, edges, tags = _parse(text)
    g, index = _read_graph(states, p0, p1, edges)
    tag_map, n = {}, [0, 0]
    for (src, cls, slot, label, dst) in tags:
        e = index.get((src, label, dst))
        if e is None:
            raise ParseError(0, "tag refers to missing edge %s %s %s"
                             % (src, label, dst))
        tag_map[e] = tag_map.get(e, ()) + ((cls, slot),)
        n[cls] = max(n[cls], slot + 1)
    for e, held in tag_map.items():
        if len(held) > 1:
            tag_map[e] = tuple(sorted(held))
    return TaggedEncoder(g, tag_map, n[0], n[1])


def _sorted_edges(g):
    return [e for s in g.states for e in g.canonical_edges(s)]


def _graph_text(g, edges):
    """serialize_graph's text without its last newline."""
    empty = _empty_classes(g.parity)
    if empty:
        raise BimodalError("; ".join(empty))
    out = ["states: %s" % " ".join(g.states)]
    out.append("parity0: %s" % " ".join(sorted(g.parity.class0)))
    out.append("parity1: %s" % " ".join(sorted(g.parity.class1)))
    for e in edges:
        mult = "" if e.mult == 1 else " %d" % e.mult
        out.append("edge: %s %s %s%s" % (e.src, e.label, e.dst, mult))
    return "\n".join(out)


def serialize_graph(g):
    """Canonical graph text; a graph with an empty parity class is
    refused, as the parser would refuse its file."""
    return _graph_text(g, _sorted_edges(g)) + "\n"


def serialize_encoder(enc):
    """The graph's text, then the tag lines, from one sort of the edges."""
    g = enc.graph
    edges = _sorted_edges(g)
    out = [_graph_text(g, edges)]
    for e in edges:
        for (cls, slot) in sorted(enc.tags.get(e, ())):
            out.append("tag: %s %d %d %s %s"
                       % (e.src, cls, slot, e.label, e.dst))
    return "\n".join(out) + "\n"


def _quoted(text):
    """A DOT string: backslashes escaped first, then double quotes."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(g):
    """Graphviz text: class-0 edges solid, class-1 dashed, shared bold."""
    lines = ["digraph constraint {", "  rankdir=LR;"]
    for s in g.states:
        lines.append("  %s;" % _quoted(s))
    # by (in class 0, in class 1); a label in neither class is solid
    styles = {(True, True): "bold", (False, True): "dashed"}
    for e in _sorted_edges(g):
        style = styles.get((e.label in g.parity.class0,
                            e.label in g.parity.class1), "solid")
        extra = "" if e.mult == 1 else " x%d" % e.mult
        lines.append("  %s -> %s [label=%s, style=%s];"
                     % (_quoted(e.src), _quoted(e.dst),
                        _quoted(e.label + extra), style))
    lines.append("}")
    return "\n".join(lines) + "\n"
