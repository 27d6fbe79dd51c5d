"""The bench tracer wraps the package by name: a smoke run of the whole
pipeline with it installed must give the untraced results and record
spans for every layer it passes through."""

import os
import sys

import bimodal
import helpers
from bimodal import (
    adjacency_pair,
    check_encoder,
    decode_sliding,
    decode_stream,
    encode_stream,
    min_infnorm_ae,
    power,
)
from bimodal.verify import PairGraph

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
from tracing import Tracer  # noqa: E402


def _pipeline():
    # the package's own names, looked up at call time, so an installed
    # tracer's wrappers are the ones called
    g = bimodal.power(helpers.two_state(), 3)
    a0, a1, _ = bimodal.adjacency_pair(g)
    _, x = bimodal.min_infnorm_ae(a0, a1, 3, 3)
    e = bimodal.stether_punctured(g, x.entries, 2, 2)
    report = bimodal.check_encoder(e, g, 2, 2)
    start = e.graph.states[0]
    word, end, trace = bimodal.encode_stream(
        e, ["00", "11", "01", "10", "00"], start, policy="rds-min")
    decoded = [d.tag for d in bimodal.decode_stream(e, word, start)]
    return (e.graph, e.tags, report, word, end, trace, decoded,
            bimodal.decode_sliding(e, word, 1, 1, p=2))


def test_traced_pipeline_matches_untraced():
    originals = (power, adjacency_pair, min_infnorm_ae, check_encoder,
                 encode_stream, decode_stream, decode_sliding,
                 PairGraph.__init__, PairGraph.ext, PairGraph.reach_sets)
    plain = _pipeline()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _pipeline()
    finally:
        tracer.uninstall()
    assert traced == plain
    names = set(tracer.name)
    for name in ("graphs.power", "graphs.adjacency_pair",
                 "spectra.min_infnorm_ae", "synth.stether_punctured",
                 "synth.stether", "verify.check_encoder",
                 "verify.PairGraph", "verify.PairGraph.ext",
                 "verify.PairGraph.reach_sets", "verify.encode_stream",
                 "verify.decode_stream", "verify.decode_sliding"):
        assert name in names, name
    # stether runs inside stether_punctured, so its span has a parent
    i = tracer.name.index("synth.stether")
    assert tracer.name[tracer.parent[i]] == "synth.stether_punctured"
    assert tracer.metrics(1.0)["synth.encoder_edges"] > 0
    # each pair graph counts the n^2 pairs of the encoder's n states, so
    # a PairGraph that stops exposing its nodes cannot report 0 pairs
    n = len(plain[0].states)
    built = [v for name, v in zip(tracer.name, tracer.value)
             if name == "verify.PairGraph"]
    assert built and built == [n * n] * len(built)
    assert tracer.metrics(1.0)["verify.PairGraph.pairs"] == n * n * len(built)
    # uninstall puts every original back
    assert (bimodal.power, bimodal.adjacency_pair, bimodal.min_infnorm_ae,
            bimodal.check_encoder, bimodal.encode_stream,
            bimodal.decode_stream, bimodal.decode_sliding,
            PairGraph.__init__, PairGraph.ext,
            PairGraph.reach_sets) == originals
