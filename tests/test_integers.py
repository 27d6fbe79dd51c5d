"""The one integer rule (graphs._whole) at every public entry point that
takes a count: ints and numpy integers pass, anything else is refused
with ValueError, a whole float such as 2.0 included, so that no input is
truncated."""

import functools

import numpy as np
import pytest

import helpers
from bimodal import (
    Edge,
    InfeasibleVector,
    LabeledGraph,
    TaggedEncoder,
    ValidationError,
    adjacency,
    adjacency_pair,
    anticipation_lower_bound,
    capacity,
    check_encoder,
    coding_ratio,
    decode_sliding,
    decode_stream,
    encode_stream,
    extract_deterministic,
    franaszek_joint,
    is_definite,
    joint_ae_exists,
    merge_states,
    min_infnorm_ae,
    parity_subgraph,
    perron,
    power,
    presents_subset,
    rate_region,
    sliding_block_decodable,
    split_one_round,
    stether,
    stether_punctured,
    validate_graph,
)
from bimodal.construct import rll_graph


@functools.cache
def _inputs():
    """(g, q, g3, (a0, a1), e, ep, start, word): the two-state fixture,
    quad, the two-state graph's cube, quad's matrix pair, a (2, 2)
    encoder on quad, a punctured (2, 2) encoder on the cube, a start
    state of it and a word it encodes from there with 2-bit blocks."""
    g, q = helpers.two_state(), helpers.quad()
    g3 = power(g, 3)
    ep = stether_punctured(g3, (2, 1), 2, 2)
    start = ep.graph.states[0]
    word, _, _ = encode_stream(ep, ["00", "11", "01", "10"], start)
    return (g, q, g3, adjacency_pair(q)[:2],
            extract_deterministic(q, (1, 1), 2, 2), ep, start, word)


def _graph(v):
    return validate_graph("a", [("a", "0", "a", v), ("a", "1", "a")],
                          "0", "1")


# name: (call(v), an int v it accepts, the least v it accepts, the error
# of a v below that when it is not ValueError, the error of a fractional
# v when it is not ValueError)
CASES = {
    "power exponent": (lambda v, g, *_: power(g, v), 2, 1),
    "adjacency_pair exponent": (
        lambda v, g, *_: adjacency_pair(g, v), 2, 1),
    "presents_subset exponent": (
        lambda v, g, q, g3, a, e, *_: presents_subset(e, q, v), 1, 1),
    "check_encoder exponent": (
        lambda v, g, q, g3, a, e, *_: check_encoder(e, q, 2, 2, v), 1, 1),
    "check_encoder n0": (
        lambda v, g, q, g3, a, e, *_: check_encoder(e, q, v, 2), 2, 0),
    "check_encoder n1": (
        lambda v, g, q, g3, a, e, *_: check_encoder(e, q, 2, v), 2, 0),
    "validate_graph multiplicity": (
        lambda v, *_: _graph(v), 2, 1, ValidationError, ValidationError),
    "rll_graph d": (lambda v, *_: rll_graph(v, 3), 1, 0),
    "rll_graph k": (lambda v, *_: rll_graph(1, v), 3, 1),
    "perron entry": (lambda v, *_: perron([[v, 1], [1, 0]]), 1, 0),
    "pair matrix entry": (
        lambda v, g, q, g3, a, *_: joint_ae_exists(
            [[v, 1], [0, 2]], a[1], 2, 2), 1, 0),
    "franaszek_joint ceiling": (
        lambda v, g, q, g3, a, *_: franaszek_joint(*a, 2, 2, [v, 1]), 1, 0),
    "franaszek_joint n0": (
        lambda v, g, q, g3, a, *_: franaszek_joint(*a, v, 2, [1, 1]), 2, 0),
    "franaszek_joint n1": (
        lambda v, g, q, g3, a, *_: franaszek_joint(*a, 2, v, [1, 1]), 2, 0),
    "joint_ae_exists cap": (
        lambda v, g, q, g3, a, *_: joint_ae_exists(*a, 2, 2, xi_cap=v), 1,
        0),
    "joint_ae_exists n1": (
        lambda v, g, q, g3, a, *_: joint_ae_exists(*a, 2, v), 2, 0),
    "min_infnorm_ae cap": (
        lambda v, g, q, g3, a, *_: min_infnorm_ae(*a, 2, 2, xi_cap=v), 1,
        0),
    "anticipation_lower_bound n0": (
        lambda v, g, q, g3, a, *_: anticipation_lower_bound(*a, v, 2), 2,
        0),
    "anticipation_lower_bound cap": (
        lambda v, g, q, g3, a, *_: anticipation_lower_bound(
            *a, 2, 2, xi_cap=v), 1, 0),
    "rate_region exponent": (lambda v, g, *_: rate_region(g, v), 2, 1),
    "rate_region cap": (
        lambda v, g, *_: rate_region(g, 2, xi_cap=v), 4, 0),
    "coding_ratio exponent": (lambda v, g, *_: coding_ratio(g, v), 2, 1),
    "coding_ratio cap": (
        lambda v, g, *_: coding_ratio(g, 2, xi_cap=v), 4, 0),
    "extract_deterministic vector": (
        lambda v, g, q, *_: extract_deterministic(q, (v, 1), 2, 2), 1, 0,
        InfeasibleVector),
    "extract_deterministic n0": (
        lambda v, g, q, *_: extract_deterministic(q, (1, 1), v, 2), 2, 0),
    "stether vector": (
        lambda v, g, q, g3, *_: stether(g3, (v, 1), 3, 3), 3, 0,
        InfeasibleVector),
    "stether n1": (lambda v, g, q, g3, *_: stether(g3, (3, 1), 3, v), 3, 0),
    "stether_punctured vector": (
        lambda v, g, q, g3, *_: stether_punctured(g3, (v, 1), 2, 2), 2, 0,
        InfeasibleVector),
    "stether_punctured n0": (
        lambda v, g, q, g3, *_: stether_punctured(g3, (2, 1), v, 2), 2, 0),
    "split_one_round weight": (
        lambda v, g, q, g3, *_: split_one_round(
            parity_subgraph(g3, 1), (v, 1), 3), 2, 1, InfeasibleVector),
    "split_one_round degree": (
        lambda v, g, q, g3, *_: split_one_round(
            parity_subgraph(g3, 1), (2, 1), v), 3, 0),
    "merge_states weight": (lambda v, g, *_: merge_states(g, (v, 1)), 1, 0),
    "encode_stream block width": (
        lambda v, g, q, g3, a, e, ep, start, word: encode_stream(
            ep, ["00", "11"], start, p=v), 2, 1),
    "decode_stream block width": (
        lambda v, g, q, g3, a, e, ep, start, word: decode_stream(
            ep, word, start, p=v), 2, 1),
    "decode_sliding block width": (
        lambda v, g, q, g3, a, e, ep, start, word: decode_sliding(
            ep, word, 0, 1, p=v), 2, 1),
    "decode_sliding m": (
        lambda v, g, q, g3, a, e, ep, start, word: decode_sliding(
            ep, word, v, 1, p=2), 0, 0),
    "decode_sliding a": (
        lambda v, g, q, g3, a, e, ep, start, word: decode_sliding(
            ep, word, 0, v, p=2), 1, 0),
    "is_definite m": (
        lambda v, g, q, g3, a, e, ep, *_: is_definite(ep, v, 1), 1, 0),
    "is_definite a": (
        lambda v, g, q, g3, a, e, ep, *_: is_definite(ep, 1, v), 1, 0),
    "sliding_block_decodable m": (
        lambda v, g, q, g3, a, e, ep, *_: sliding_block_decodable(
            ep, v, 1), 0, 0),
    "TaggedEncoder n0": (
        lambda v, g, q, g3, a, e, *_: TaggedEncoder(
            e.graph, e.tags, v, 2).out_degrees_ok(), 2, 0),
    "TaggedEncoder n1": (
        lambda v, g, q, g3, a, e, *_: TaggedEncoder(
            e.graph, e.tags, 2, v).out_degrees_ok(), 2, 0),
    "sliding_block_decodable a": (
        lambda v, g, q, g3, a, e, ep, *_: sliding_block_decodable(
            ep, 0, v), 1, 0),
}


def _value(got):
    """A comparable form of an entry point's result."""
    if isinstance(got, TaggedEncoder):
        return got.graph, got.tags, got.n0, got.n1
    if isinstance(got, np.ndarray):
        return got.tolist()
    if isinstance(got, tuple):
        return tuple(map(_value, got))
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_integer_rule(name):
    call, good, lo, *errors = CASES[name]
    below, fraction = errors + [ValueError] * (2 - len(errors))
    inputs = _inputs()
    # ints and numpy integers give one answer
    want = _value(call(good, *inputs))
    for kind in (np.int64, np.uint8):
        assert _value(call(kind(good), *inputs)) == want
    for v, error in ((1.5, fraction), (2.0, fraction), (lo - 1, below)):
        with pytest.raises(error):
            call(v, *inputs)


def test_truncating_inputs_are_refused():
    # each of these once read a fraction as a smaller int, or died with
    # a bare TypeError or AttributeError
    g, q, g3, _, e, *_ = _inputs()
    fractional = LabeledGraph(["a"], [Edge("a", "0", "a", 1.5),
                                      Edge("a", "1", "a")], _graph(1).parity)
    for call in (
            lambda: joint_ae_exists([[1.5, .5], [.5, 1.5]], [[0, 0], [0, 0]],
                                    2, 0),
            lambda: perron([[1.5]]),
            lambda: stether(g3, (3.7, 1.2), 3, 3),
            lambda: extract_deterministic(q, (1.0, 1.9), 2, 2),
            lambda: merge_states(g, (0.5, 1)),
            lambda: presents_subset(e, q, 1.5),
            lambda: power(g, 2.0),
            lambda: adjacency_pair(g, 2.5),
            lambda: stether(g3, (3, 1), 2.5, 3),
            lambda: check_encoder(e, q, 2.0, 2),
            lambda: TaggedEncoder(g, {}, 2.0, 1).out_degrees_ok(),
            # summed multiplicities of a graph built without validate_graph
            lambda: adjacency(fractional),
            lambda: capacity(fractional),
            lambda: power(fractional, 2),
            lambda: adjacency_pair(fractional)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    with pytest.raises(ValidationError, match="^edge a 0 a: multiplicity "
                       "must be an integer >= 1, got 1.5$"):
        _graph(1.5)
