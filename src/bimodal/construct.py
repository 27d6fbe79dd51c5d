"""Convenience builders for common constraint graphs."""

from __future__ import annotations

from .graphs import _whole, validate_graph


def rll_graph(d, k):
    """Run-length limited graph: between 1s, runs of 0s of length d..k.

    States s0..sk count the current run of 0s; symbol '0' extends it,
    '1' (odd class) closes a run of admissible length.
    """
    _whole(k, "run length k", _whole(d, "run length d"))
    states = ["s%d" % i for i in range(k + 1)]
    edges = []
    for i in range(k + 1):
        if i < k:
            edges.append(("s%d" % i, "0", "s%d" % (i + 1)))
        if i >= d:
            edges.append(("s%d" % i, "1", "s0"))
    return validate_graph(states, edges, ["0"], ["1"])

