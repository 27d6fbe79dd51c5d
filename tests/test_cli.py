import gc
import io as stdio
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bimodal
import helpers
from bimodal import (
    BimodalError,
    Edge,
    ParseError,
    TaggedEncoder,
    anticipation,
    export_dot,
    parse_encoder_file,
    parse_graph_file,
    serialize_encoder,
    serialize_graph,
    extract_deterministic,
    power,
    validate_graph,
)
from bimodal.cli import main
from bimodal.construct import rll_graph
from bimodal.graphs import POWER_BUDGET


def fixture(name):
    import os
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


def test_graph_serialization_round_trip():
    for name in ("twostate.cg", "quad.cg", "hexchain.cg", "overlap.cg"):
        g = helpers.load(name)
        text = serialize_graph(g)
        h = parse_graph_file(text)
        assert set(h.states) == set(g.states)
        assert set(h.edges) == set(g.edges)
        assert h.parity.class0 == g.parity.class0
        assert h.parity.class1 == g.parity.class1
        # canonical form is stable
        assert serialize_graph(h) == text


def test_encoder_serialization_round_trip():
    e = extract_deterministic(helpers.quad(), (1, 1), 2, 2)
    text = serialize_encoder(e)
    f = parse_encoder_file(text)
    assert f.n0 == 2 and f.n1 == 2
    assert set(f.graph.edges) == set(e.graph.edges)
    assert f.tags == e.tags
    assert serialize_encoder(f) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph_file("states: a\nparity0: p\nparity1: q\nbogus: z\n")
    assert exc.value.line_no == 4
    with pytest.raises(ParseError):
        parse_graph_file("states: a\nparity0: p\nparity1: q\n"
                         "tag: a 0 0 p a\n")


def test_cli_info(capsys):
    assert main(["info", fixture("twostate.cg")]) == 0
    out = capsys.readouterr().out
    assert "states: 2" in out
    assert "deterministic: yes" in out
    assert "capacity: 1.000000" in out


def test_cli_rejects_mixed_word_lengths(tmp_path, capsys):
    # the words (a, a.a) and (a.a, a) would join to one label a.a.a
    src = tmp_path / "f.cg"
    src.write_text("states: s\nparity0: a\nparity1: a.a\n"
                   "edge: s a s\nedge: s a.a s\n")
    out = tmp_path / "p.cg"
    for argv in (["info", str(src)],
                 ["power", str(src), "-t", "2", "-o", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_power_franaszek_pipeline(tmp_path, capsys):
    out = tmp_path / "p16.cg"
    assert main(["power", fixture("rll210.cg"), "-t", "16",
                 "-o", str(out)]) == 0
    assert main(["franaszek", str(out), "--n0", "173", "--n1", "178",
                 "--cap", "2"]) == 0
    got = capsys.readouterr().out.strip()
    assert got == "1 1 2 2 2 2 1 1 1 1 0"
    assert main(["franaszek", str(out), "--n0", "174", "--n1", "178",
                 "--cap", "2"]) == 1


def test_cli_region(tmp_path):
    out = tmp_path / "region.csv"
    assert main(["region", fixture("mixed.cg"), "-t", "2",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n0,n1,witness"
    rows = {tuple(l.split(",")[:2]) for l in lines[1:]}
    assert ("20", "26") in rows
    assert ("39", "13") in rows
    # byte-stable across runs
    again = tmp_path / "region2.csv"
    assert main(["region", fixture("mixed.cg"), "-t", "2",
                 "-o", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_cli_synth_verify_round_trip(tmp_path, capsys):
    enc = tmp_path / "enc.cg"
    assert main(["synth", fixture("twostate.cg"), "-t", "2",
                 "--method", "det", "--n0", "1", "--n1", "1",
                 "-o", str(enc)]) == 0
    assert main(["verify", str(enc), "--against", fixture("twostate.cg"),
                 "-t", "2", "--n0", "1", "--n1", "1"]) == 0
    out = capsys.readouterr().out
    assert "anticipation: 0" in out
    assert "ok" in out
    # the written file re-parses and re-synthesizes identically
    text = enc.read_text()
    assert serialize_encoder(parse_encoder_file(text)) == text


@pytest.mark.parametrize("method", ["split", "stether", "punctured"])
def test_cli_synth_methods_reverify(tmp_path, method, capsys):
    enc = tmp_path / "enc.cg"
    n = {"split": 3, "stether": 3, "punctured": 2}[method]
    assert main(["synth", fixture("twostate.cg"), "-t", "3",
                 "--method", method, "--n0", str(n), "--n1", str(n),
                 "-o", str(enc)]) == 0
    code = main(["verify", str(enc), "--against", fixture("twostate.cg"),
                 "-t", "3", "--n0", str(n), "--n1", str(n)])
    out = capsys.readouterr().out
    if method == "punctured":
        assert code == 0
    else:
        # plain constructions only guarantee losslessness
        assert "lossless:    yes" in out


def test_cli_punctured_overlapping_cover_lossless(tmp_path, capsys):
    # symbol a is in both classes; both classes put each copy of a in the
    # same block, so the punctured encoder stays lossless
    (tmp_path / "ov.cg").write_text(
        "states: s0 s1\nparity0: a b\nparity1: a c d\n"
        "edge: s0 a s0\nedge: s0 c s1\nedge: s0 d s1\nedge: s1 a s0\n")
    graph, enc = str(tmp_path / "ov.cg"), str(tmp_path / "e.cg")
    degrees = ["-t", "2", "--n0", "1", "--n1", "3"]
    assert main(["synth", graph, "--method", "punctured", "-o", enc]
                + degrees) == 0
    assert main(["verify", enc, "--against", graph] + degrees) == 0
    out = capsys.readouterr().out
    assert "lossless:    yes" in out
    assert "anticipation: 1" in out


def test_cli_punctured_emits_infinite_anticipation(tmp_path, capsys):
    # b is in both classes; the (1, 2) punctured encoder of the square
    # parts two walks forever: synth writes it, as every method writes
    # what it builds, and verify refuses it
    (tmp_path / "ov.cg").write_text(
        "states: n0 n1\nparity0: a b\nparity1: b c\nedge: n0 a n1\n"
        "edge: n0 b n0\nedge: n0 c n1\nedge: n1 c n0\n")
    graph, enc = str(tmp_path / "ov.cg"), tmp_path / "e.cg"
    degrees = ["-t", "2", "--n0", "1", "--n1", "2"]
    assert main(["synth", graph, "--method", "punctured", "-o", str(enc)]
                + degrees) == 0
    assert capsys.readouterr() == ("", "") and enc.exists()
    assert main(["verify", str(enc), "--against", graph] + degrees) == 1
    captured = capsys.readouterr()
    assert "anticipation: infinite" in captured.out
    assert "violation: anticipation is infinite" in captured.out
    assert captured.err == "error: verification failed\n"


def test_cli_synth_infeasible(capsys):
    assert main(["synth", fixture("twostate.cg"), "-t", "2",
                 "--method", "det", "--n0", "2", "--n1", "2"]) == 1


def test_cli_encode_decode(tmp_path, capsys, monkeypatch):
    enc = tmp_path / "enc.cg"
    assert main(["synth", fixture("twostate.cg"), "-t", "2",
                 "--method", "det", "--n0", "1", "--n1", "1",
                 "-o", str(enc)]) == 0
    capsys.readouterr()
    start = parse_encoder_file(enc.read_text()).graph.states[0]
    monkeypatch.setattr("sys.stdin", stdio.StringIO("0 1 1 0"))
    assert main(["encode", str(enc), "--start", start, "-p", "1"]) == 0
    word = capsys.readouterr().out.strip()
    monkeypatch.setattr("sys.stdin", stdio.StringIO(word))
    assert main(["decode", str(enc), "--start", start, "-p", "1"]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", "1", "0"]


def test_cli_encode_decode_tags(tmp_path, capsys, monkeypatch):
    # degrees (3, 3) take no p-bit blocks: encode reads the c/s tags that
    # decode prints, so the encoder still round trips through the CLI
    enc = tmp_path / "enc.cg"
    assert main(["synth", fixture("twostate.cg"), "-t", "3",
                 "--method", "stether", "--n0", "3", "--n1", "3",
                 "-o", str(enc)]) == 0
    capsys.readouterr()
    e = parse_encoder_file(enc.read_text())
    start = e.graph.states[0]
    rng = np.random.default_rng(11)
    tags = ["%d/%d" % (c, s) for c, s in rng.integers(0, (2, 3), (40, 2))]
    # pad past the anticipation, so no tag of the input is provisional
    pad = ["0/0"] * anticipation(e).value
    monkeypatch.setattr("sys.stdin", stdio.StringIO(" ".join(tags + pad)))
    assert main(["encode", str(enc), "--start", start]) == 0
    word = capsys.readouterr().out
    assert len(word.split()) == len(tags + pad)
    monkeypatch.setattr("sys.stdin", stdio.StringIO(word))
    assert main(["decode", str(enc), "--start", start]) == 0
    assert capsys.readouterr().out.split()[:len(tags)] == tags
    # tags take neither -p nor p-bit blocks beside them
    for text, p in (("0/0 1/2", ["-p", "2"]), ("0/0 01", [])):
        monkeypatch.setattr("sys.stdin", stdio.StringIO(text))
        assert main(["encode", str(enc), "--start", start] + p) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_cli_encode_reads_decoded_output(tmp_path, capsys, monkeypatch):
    # decode marks the last tag provisional (0/0?); encode reads it as
    # 0/0, and the provisional edge reads the same label, so the word
    # comes back
    enc = tmp_path / "enc.cg"
    assert main(["synth", fixture("twostate.cg"), "-t", "3",
                 "--method", "stether", "--n0", "3", "--n1", "3",
                 "-o", str(enc)]) == 0
    capsys.readouterr()
    args = [str(enc), "--start", "alpha@0"]
    monkeypatch.setattr("sys.stdin", stdio.StringIO("0/0 1/2 0/1"))
    assert main(["encode"] + args) == 0
    word = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", stdio.StringIO(word))
    assert main(["decode"] + args) == 0
    decoded = capsys.readouterr().out
    assert decoded.split() == ["0/0", "1/2", "0/0?"]
    monkeypatch.setattr("sys.stdin", stdio.StringIO(decoded))
    assert main(["encode"] + args) == 0
    assert capsys.readouterr().out == word
    # the library refuses -p beside c/s tags, marked or not
    monkeypatch.setattr("sys.stdin", stdio.StringIO("0/0? 1/2"))
    assert main(["encode"] + args + ["-p", "2"]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def test_cli_block_input_reads_provisional_marks(tmp_path, capsys,
                                                 monkeypatch):
    # a p-bit block marked provisional encodes as the block
    enc = tmp_path / "enc.cg"
    assert main(["synth", fixture("quad.cg"), "--method", "det",
                 "--n0", "2", "--n1", "2", "-o", str(enc)]) == 0
    capsys.readouterr()
    start = parse_encoder_file(enc.read_text()).graph.states[0]
    words = []
    for blocks in ("00 11 01 10", "00 11 01 10?"):
        monkeypatch.setattr("sys.stdin", stdio.StringIO(blocks))
        assert main(["encode", str(enc), "--start", start]) == 0
        words.append(capsys.readouterr().out)
    assert words[0] == words[1]


def test_cli_decode_bad_word(tmp_path, capsys, monkeypatch):
    enc = tmp_path / "enc.cg"
    main(["synth", fixture("twostate.cg"), "-t", "2", "--method", "det",
          "--n0", "1", "--n1", "1", "-o", str(enc)])
    start = parse_encoder_file(enc.read_text()).graph.states[0]
    monkeypatch.setattr("sys.stdin", stdio.StringIO("zz.zz"))
    assert main(["decode", str(enc), "--start", start, "-p", "1"]) == 1


def test_cli_export_dot(capsys):
    assert main(["export-dot", fixture("overlap.cg")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "style=dashed" in out
    assert "style=bold" in out


def test_cli_error_codes(tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.cg")]) == 2
    bad = tmp_path / "bad.cg"
    bad.write_text("states: a\nnot a line\n")
    assert main(["info", str(bad)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["power", fixture("twostate.cg")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["power", "twostate.cg", "-t", "0"],
    ["franaszek", "twostate.cg", "--n0", "-1", "--n1", "1"],
    ["franaszek", "twostate.cg", "--n0", "1", "--n1", "1", "--cap", "0"],
    ["region", "twostate.cg", "-t", "-1"],
    ["synth", "twostate.cg", "-t", "0", "--method", "det",
     "--n0", "1", "--n1", "1"],
    ["verify", "quad.cg", "--against", "twostate.cg", "-t", "0",
     "--n0", "1", "--n1", "1"],
    ["encode", "quad.cg", "--start", "alpha", "-p", "0"],
    ["decode", "quad.cg", "--start", "alpha", "-p", "0"],
    ["power", "twostate.cg", "-t", "1.5"],
    ["franaszek", "twostate.cg", "--n0", "abc", "--n1", "1"],
], ids=["power-t", "franaszek-n0", "franaszek-cap", "region-t", "synth-t",
        "verify-t", "encode-p", "decode-p", "power-t-fraction",
        "franaszek-n0-word"])
def test_cli_error_codes_out_of_range(argv, capsys):
    argv = [fixture(a) if a.endswith(".cg") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected an integer >=" in capsys.readouterr().err


def test_cli_decode_unknown_start(tmp_path, capsys, monkeypatch):
    enc = tmp_path / "enc.cg"
    main(["synth", fixture("twostate.cg"), "-t", "2", "--method", "det",
          "--n0", "1", "--n1", "1", "-o", str(enc)])
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", stdio.StringIO("a.a"))
    assert main(["decode", str(enc), "--start", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown start")


def test_cli_info_directory(tmp_path, capsys):
    assert main(["info", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_info_binary_file(tmp_path, capsys):
    # a decode failure is an input error, not a domain failure
    path = tmp_path / "binary.cg"
    path.write_bytes(b"states: \xff\xfe\n")
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_export_dot_multiplicity():
    g = helpers.rll_16()
    dot = export_dot(g)
    assert "digraph" in dot
    assert "x2" in dot or all(e.mult == 1 for e in g.edges)


NONDETERMINISTIC = """states: s t
parity0: a
parity1: b
edge: s a s
edge: s a t
edge: s b t
edge: t a s
edge: t b s
"""


@pytest.mark.parametrize("method", ["det", "split"])
def test_cli_synth_verify_nondeterministic_target(method, tmp_path, capsys):
    # containment tracks sets of target states, so the target graph
    # need not be deterministic
    (tmp_path / "nondet.cg").write_text(NONDETERMINISTIC)
    graph, enc = str(tmp_path / "nondet.cg"), str(tmp_path / "enc.cg")
    assert main(["synth", graph, "--method", method, "--n0", "1",
                 "--n1", "1", "-o", enc]) == 0
    assert main(["verify", enc, "--against", graph,
                 "--n0", "1", "--n1", "1"]) == 0
    assert "containment: ok" in capsys.readouterr().out


def test_cli_verify_slot_gap(tmp_path, capsys):
    # two class-0 edges, but in slots 0 and 5: verify and encode read
    # the same slot rule, so verify fails as encode -p 2 would
    graph = ("states: s\nparity0: a b\nparity1: c d\n"
             "edge: s a s\nedge: s b s\nedge: s c s\nedge: s d s\n")
    (tmp_path / "g.cg").write_text(graph)
    (tmp_path / "enc.cg").write_text(
        graph + "tag: s 0 0 a s\ntag: s 0 5 b s\n"
        "tag: s 1 0 c s\ntag: s 1 1 d s\n")
    assert main(["verify", str(tmp_path / "enc.cg"), "--against",
                 str(tmp_path / "g.cg"), "--n0", "2", "--n1", "2"]) == 1
    out = capsys.readouterr().out
    assert "out-degrees: BAD" in out
    assert "violation: state 's' class-0 degree != 2" in out
    assert "class-1" not in out


@pytest.mark.parametrize("argv", [
    ["synth", "nondet.cg", "--method", "stether", "--n0", "1", "--n1", "1"],
    ["verify", "enc.cg", "--against", "nondet.cg", "--n0", "2", "--n1", "2"],
    ["franaszek", "quad.cg", "--n0", "99999999999999999999", "--n1", "1"],
    ["synth", "quad.cg", "--method", "det",
     "--n0", "99999999999999999999", "--n1", "1"],
    # every word is odd, so the power's class 0 is empty and its file
    # could not be read back
    ["power", "odd.cg", "-t", "1", "-o", "p.cg"],
    # the capacity is computed in floats, which stop near 1.8e308
    ["info", "past-float.cg"],
], ids=["synth-nondeterministic", "verify-nondeterministic",
        "franaszek-n0-huge", "synth-det-n0-huge",
        "power-empty-class", "info-past-float"])
def test_cli_library_errors_exit_1(argv, tmp_path, capsys):
    (tmp_path / "nondet.cg").write_text(NONDETERMINISTIC)
    (tmp_path / "past-float.cg").write_text(
        "states: s\nparity0: a\nparity1: b\n"
        "edge: s a s 1%s\nedge: s b s\n" % ("0" * 400))
    (tmp_path / "odd.cg").write_text(
        "states: s\nparity0: a\nparity1: b\nedge: s b s\n")
    (tmp_path / "enc.cg").write_text(serialize_encoder(
        extract_deterministic(helpers.quad(), (1, 1), 2, 2)))
    (tmp_path / "quad.cg").write_text(serialize_graph(helpers.quad()))
    argv = [str(tmp_path / a) if a.endswith(".cg") else a for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "p.cg").exists()


TWO = "states: s\nparity0: a\nparity1: b\nedge: s a s\nedge: s b s\n"


@pytest.mark.parametrize("argv", [
    ["region", "-t", "70"],
], ids=["region"])
def test_cli_class_counts_overflow(argv, tmp_path, capsys):
    # 2^69 words of each class: the rate table would have 2^69 + 1 rows,
    # so the row budget refuses it, naming t, before any sweep
    path = tmp_path / "two.cg"
    path.write_text(TWO)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "t=70" in err


@pytest.mark.parametrize("argv, want", [
    (["franaszek", "quad.cg", "--n0", "1", "--n1", "1",
      "--cap", "99999999999999999999"],
     "99999999999999999999 99999999999999999999"),
    (["franaszek", "two.cg", "--n0", "1", "--n1", "1", "-t", "70"], "64"),
], ids=["cap-overflow", "t70"])
def test_cli_franaszek_exact(argv, want, tmp_path, capsys):
    # caps and class counts past int64 are searched in Python ints
    (tmp_path / "quad.cg").write_text(serialize_graph(helpers.quad()))
    (tmp_path / "two.cg").write_text(TWO)
    argv = [str(tmp_path / a) if a.endswith(".cg") else a for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.out == want + "\n" and out.err == ""


def test_cli_info_huge_multiplicity(tmp_path, capsys):
    # an edge of multiplicity 10^20 is counted in Python ints
    path = tmp_path / "huge.cg"
    path.write_text("states: s\nparity0: a\nparity1: b\n"
                    "edge: s a s 100000000000000000000\nedge: s b s\n")
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "capacity: 66.438562" in out


def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_main_calls_in_sequence(capsys):
    # main keeps one parser per process: calls in a row, a usage error
    # among them, print what each prints in a process of its own
    calls = [["info", fixture("twostate.cg")],
             ["region", fixture("twostate.cg"), "-t", "3"],
             ["franaszek", fixture("quad.cg"), "--n0", "1"],
             ["franaszek", fixture("quad.cg"), "--n0", "2", "--n1", "2",
              "-t", "2"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(bimodal.__file__)))
    for argv in calls:
        alone = subprocess.run([sys.executable, "-m", "bimodal.cli"] + argv,
                               capture_output=True, text=True, env=env)
        want = alone.returncode, alone.stdout, alone.stderr
        assert _run_in_process(argv, capsys) == want
    assert [_run_in_process(a, capsys)[0] for a in calls] == [0, 0, 2, 0]


@pytest.mark.parametrize("argv", [
    ["power", "two.cg", "-t", "40", "-o", "out.cg"],
    ["synth", "two.cg", "--method", "det", "--n0", "1", "--n1", "1",
     "-t", "40", "-o", "out.cg"],
], ids=["power", "synth"])
def test_cli_power_budget(argv, tmp_path, capsys):
    # 2^40 words: the power's row budget refuses them, none is enumerated
    (tmp_path / "two.cg").write_text(TWO)
    argv = [str(tmp_path / a) if a.endswith(".cg") else a for a in argv]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "t=40" in err
    assert sorted(os.listdir(tmp_path)) == ["two.cg"]


def _forty(first):
    return ".".join([first] + ["a"] * 39)


# one state reading a^40 (class 0) and b a^39 (class 1)
FORTY = ("states: s\nparity0: %s\nparity1: %s\nedge: s %s s\n"
         "edge: s %s s\ntag: s 0 0 %s s\ntag: s 1 0 %s s\n"
         % ((_forty("a"), _forty("b")) * 3))


@pytest.mark.parametrize("encoder, code, containment", [
    (FORTY, 0, "ok"),
    (serialize_encoder(extract_deterministic(helpers.quad(), (1, 1), 2, 2)),
     1, "BAD"),
], ids=["words", "symbols"])
def test_cli_verify_long_words(encoder, code, containment, tmp_path,
                               capsys):
    # verify -t reads each label through the base graph, so a 40-symbol
    # word costs 40 steps and no power (2^40 words) is refused; labels
    # of one symbol are no 40-symbol words
    (tmp_path / "two.cg").write_text(TWO)
    (tmp_path / "enc.cg").write_text(encoder)
    start = time.perf_counter()
    assert main(["verify", str(tmp_path / "enc.cg"), "--against",
                 str(tmp_path / "two.cg"), "--n0", "1", "--n1", "1",
                 "-t", "40"]) == code
    assert time.perf_counter() - start < 10
    out = capsys.readouterr()
    assert "containment: %s" % containment in out.out
    assert out.err == ("error: verification failed\n" if code else "")


@pytest.mark.parametrize("graph, method, t, n", [
    ("twostate.cg", "det", 2, 1), ("twostate.cg", "split", 3, 3),
    ("twostate.cg", "stether", 3, 3), ("twostate.cg", "punctured", 3, 2),
    ("quad.cg", "det", 2, 8), ("rll210.cg", "punctured", 10, 16),
], ids=["twostate-det", "twostate-split", "twostate-stether",
        "twostate-punctured", "quad-det", "rll210-10-punctured"])
def test_cli_verify_builds_no_power(graph, method, t, n, tmp_path, capsys,
                                    monkeypatch):
    # verify -t reads the encoder's words through the base graph, and
    # prints what the check against the built power prints
    enc = tmp_path / "enc.cg"
    degrees = ["-t", str(t), "--n0", str(n), "--n1", str(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["synth", fixture(graph), "--method", method, "-o",
                     str(enc)] + degrees) == 0
    want = bimodal.check_encoder(parse_encoder_file(enc.read_text()),
                                 power(helpers.load(graph), t), n, n)
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(bimodal.graphs, "power",
                        lambda *a: calls.append(a) or power(*a))
    code = main(["verify", str(enc), "--against", fixture(graph)] + degrees)
    assert calls == []
    assert (code, capsys.readouterr().out) == (0 if want.ok else 1,
                                               str(want) + "\n")


@pytest.mark.parametrize("graph, method, t, n", [
    ("twostate.cg", "det", 2, 1), ("twostate.cg", "split", 3, 3),
    ("twostate.cg", "stether", 3, 3), ("twostate.cg", "punctured", 3, 2),
    ("quad.cg", "det", 2, 8), ("rll210.cg", "punctured", 10, 16),
], ids=["twostate-det", "twostate-split", "twostate-stether",
        "twostate-punctured", "quad-det", "rll210-10-punctured"])
@pytest.mark.filterwarnings("ignore:dropping zero-weight")
def test_cli_synth_counts_matrices_from_base(graph, method, t, n, tmp_path,
                                             monkeypatch):
    # synth -t counts the search matrices from the base graph, once, and
    # writes the encoder it writes from the matrices of the power's edges
    calls = []
    pair = bimodal.graphs.adjacency_pair
    argv = ["synth", fixture(graph), "--method", method, "-t", str(t),
            "--n0", str(n), "--n1", str(n), "-o"]
    with monkeypatch.context() as m:
        m.setattr(bimodal.graphs, "adjacency_pair",
                  lambda g, k=1: calls.append((g, k)) or pair(g, k))
        assert main(argv + [str(tmp_path / "base.cg")]) == 0
    assert calls == [(helpers.load(graph), t)]
    monkeypatch.setattr(bimodal.graphs, "adjacency_pair",
                        lambda g, k=1: pair(power(g, k)))
    assert main(argv + [str(tmp_path / "words.cg")]) == 0
    assert ((tmp_path / "base.cg").read_bytes()
            == (tmp_path / "words.cg").read_bytes())


def test_cli_synth_huge_cap(tmp_path, capsys):
    # the norm is 1, far below the caps whose products leave int64
    out = tmp_path / "enc.cg"
    assert main(["synth", fixture("quad.cg"), "--method", "split",
                 "--n0", "1", "--n1", "1", "--cap", "99999999999999999999",
                 "-o", str(out)]) == 0
    assert parse_encoder_file(out.read_text()).out_degrees_ok()


def test_cli_duplicate_tag(tmp_path, capsys, monkeypatch):
    # two class-0 edges of s both claim slot 0
    text = ("states: s\nparity0: a b\nparity1: c\n"
            "edge: s a s\nedge: s b s\nedge: s c s\n"
            "tag: s 0 0 a s\ntag: s 0 0 b s\ntag: s 1 0 c s\n")
    with pytest.raises(ParseError) as exc:
        parse_encoder_file(text)
    assert exc.value.line_no == 8
    enc = tmp_path / "enc.cg"
    enc.write_text(text)
    monkeypatch.setattr("sys.stdin", stdio.StringIO("0 1"))
    assert main(["encode", str(enc), "--start", "s", "-p", "1"]) == 2
    assert capsys.readouterr().err == "error: line 8: duplicate tag s 0 0\n"


def test_cli_decode_untagged_edge(capsys, monkeypatch):
    # a graph file read as an encoder has no tags to decode to
    monkeypatch.setattr("sys.stdin", stdio.StringIO("a"))
    assert main(["decode", fixture("twostate.cg"), "--start", "alpha"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_encode_malformed_block(tmp_path, capsys, monkeypatch):
    # the parity policies set the first bit of a block, never of a
    # string that is not one
    enc = tmp_path / "enc.cg"
    assert main(["synth", fixture("quad.cg"), "--method", "det",
                 "--n0", "2", "--n1", "2", "-o", str(enc)]) == 0
    start = parse_encoder_file(enc.read_text()).graph.states[0]
    for policy in ("as-tagged", "fixed-parity", "rds-min"):
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", stdio.StringIO("00 x1"))
        assert main(["encode", str(enc), "--start", start,
                     "--policy", policy]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


@st.composite
def cli_cases(draw):
    """(graph text, encoder text, argv, stdin) over every subcommand.

    The graph has up to three states and a cover of up to four symbols;
    the encoder file adds random tag lines.
    In argv, G and E name the two files.
    """
    cmd = draw(st.sampled_from(["info", "power", "franaszek", "region",
                                "synth", "verify", "encode", "decode",
                                "export-dot"]))
    states = ["s%d" % i for i in range(draw(st.integers(1, 3)))]
    p0, p1 = (sorted(draw(st.sets(st.sampled_from("abcd"), min_size=1,
                                  max_size=3))) for _ in range(2))
    labels = sorted(set(p0 + p1)) or ["a"]
    edges = draw(st.lists(st.tuples(*(st.sampled_from(v) for v in
                                      (states, labels, states))),
                          max_size=8, unique=True))
    graph = "".join("%s: %s\n" % kv for kv in (
        ("states", " ".join(states)), ("parity0", " ".join(p0)),
        ("parity1", " ".join(p1)))) + "".join(
        "edge: %s %s %s\n" % ed for ed in edges)
    tags = draw(st.lists(st.tuples(st.sampled_from(edges), st.integers(0, 1),
                                   st.integers(0, 1)),
                         max_size=8, unique_by=lambda t: (t[0][0],) + t[1:])
                ) if edges else []
    encoder = graph + "".join("tag: %s %d %d %s %s\n" % (u, c, slot, a, v)
                              for (u, a, v), c, slot in tags)
    num = lambda lo, hi: str(draw(st.integers(lo, hi)))
    t = ["-t", num(1, 2)]
    degrees = ["--n0", num(0, 3), "--n1", num(0, 3)]
    cap = ["--cap", num(1, 4)]
    start = ["--start", draw(st.sampled_from(states + ["nope"]))]
    p = draw(st.sampled_from([[], ["-p", "1"], ["-p", "2"]]))
    argv = {
        "info": ["info", "G"],
        "power": ["power", "G"] + t,
        "franaszek": ["franaszek", "G"] + degrees + cap + t,
        "region": ["region", "G"] + t + cap,
        "synth": ["synth", "G", "--method", draw(st.sampled_from(
            ["det", "split", "stether", "punctured"]))] + degrees + cap + t,
        "verify": ["verify", "E", "--against", "G"] + degrees + t,
        "encode": ["encode", "E", "--policy", draw(st.sampled_from(
            ["as-tagged", "fixed-parity", "rds-min"]))] + start + p,
        "decode": ["decode", "E"] + start + p,
        "export-dot": ["export-dot", "G"],
    }[cmd]
    words = st.sampled_from(labels + (["0", "1", "01", "10", "0/0", "0/1",
                                       "1/0", "1/2", "0/0?", "1/2?", "01?",
                                       "?", "0/1??"]
                                      if cmd == "encode" else []))
    stdin = " ".join(draw(st.lists(words, max_size=6)))
    return graph, encoder, argv, stdin


TWOSTATE = serialize_graph(helpers.two_state())
# no edges: the sweep's arrays are bounded by the cap alone
EDGELESS = "states: a\nparity0: p\nparity1: q\n"
PAST_INT64 = ["--cap", str(10 ** 23)]


@settings(max_examples=150, deadline=None)
@given(cli_cases())
@example((TWOSTATE, TWOSTATE, ["decode", "E", "--start", "alpha"], "a"))
@example((EDGELESS, EDGELESS, ["franaszek", "G", "--n0", "0", "--n1", "0"]
          + PAST_INT64, ""))
@example((EDGELESS, EDGELESS, ["region", "G", "-t", "1"] + PAST_INT64, ""))
@example((EDGELESS, EDGELESS, ["synth", "G", "--method", "stether", "--n0",
                               "0", "--n1", "0"] + PAST_INT64, ""))
def test_cli_never_raises(case):
    graph, encoder, argv, stdin = case
    out, err = stdio.StringIO(), stdio.StringIO()
    with tempfile.TemporaryDirectory() as d:
        files = {"G": (graph, "g.cg"), "E": (encoder, "e.cg")}
        for text, name in files.values():
            with open(os.path.join(d, name), "w") as fh:
                fh.write(text)
        argv = [os.path.join(d, files[a][1]) if a in files else a
                for a in argv]
        with mock.patch("sys.stdin", stdio.StringIO(stdin)), \
                redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 1, 2)
    # the one warning a drawn case may raise: stether's zero-weight drop
    for w in caught:
        assert w.category is UserWarning
        assert str(w.message).startswith("dropping zero-weight states: ")
    assert gc.isenabled()
    if code:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_serialize_parse_identity(seed, strict):
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, max_states=4, strict=strict)
    g = validate_graph(g.states, [ed[:3] + (int(rng.integers(1, 4)),)
                                  for ed in g.edges],
                       g.parity.class0, g.parity.class1)
    text = serialize_graph(g)
    assert serialize_graph(parse_graph_file(text)) == text
    # each edge takes a random set of classes, slots counted per state
    tags, slots = {}, {}
    for ed in g.edges:
        for c in (0, 1):
            if rng.random() < 0.6:
                slot = slots[ed.src, c] = slots.get((ed.src, c), -1) + 1
                tags.setdefault(ed, []).append((c, slot))
    text = serialize_encoder(TaggedEncoder(
        g, {ed: tuple(v) for ed, v in tags.items()}, 1, 1))
    assert serialize_encoder(parse_encoder_file(text)) == text


def _random_encoder(rng, strict):
    """A random tagged encoder on a random graph with multiplicities up
    to 3: each edge takes a random set of classes, slots counted per
    state, and now and then a second slot of one class."""
    g = helpers.with_multiplicities(
        rng, helpers.random_graph(rng, max_states=4, strict=strict))
    tags, slots = {}, {}
    for ed in g.edges:
        for c in (0, 1):
            for _ in range(1 + (rng.random() < 0.15)):
                if rng.random() < 0.6:
                    slot = slots[ed.src, c] = slots.get((ed.src, c), -1) + 1
                    tags.setdefault(ed, []).append((c, slot))
    # edges and each edge's tags in a random order
    for held in tags.values():
        if rng.random() < 0.5:
            held.reverse()
    order = rng.permutation(len(g.edges))
    return TaggedEncoder(g, {g.edges[i]: tuple(tags[g.edges[i]])
                             for i in order if g.edges[i] in tags}, 1, 1)


# numbers int() reads (signs, underscores, leading zeros, non-ASCII
# digits) and ones it does not, for a tag's class or slot and an edge's
# multiplicity
NUMBERS = ["0", "1", "2", "+1", "+0", "-0", "-1", "01", "1_0", "0_1",
           "\u0660", "\u0661", "\u0967", "\uff11", "\u00b2", "1.0", "x",
           "3", "10"]
# str.splitlines breaks lines at each of these
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85",
          "\u2028", "\u2029"]
MUTATIONS = ["comment", "blank", "colon", "swap", "hoist", "number",
             "edge", "duplicate", "missing", "fields", "directive", "split",
             "space", "untag"]
# the reader's messages, and those of validate_graph it passes on
MESSAGES = ["missing ':' directive", "unknown directive",
            "edge needs 3 or 4 fields", "tag needs 5 fields",
            "bad multiplicity", "bad tag class/slot", "duplicate tag",
            "tag refers to missing edge", "file contains tag lines",
            "duplicate edge", "is not a state", "is not in either class",
            "non-positive multiplicity"]


def _mutate(text, ops, sep, end):
    """``text`` with each (op, seed) of ``ops`` applied to its lines, in
    order, then joined by ``sep`` (a random break per line for "mix")
    and ended by one more break when ``end``."""
    lines = text.splitlines()
    for op, seed in ops:
        rng = random.Random(seed)
        i = rng.randrange(len(lines)) if lines else 0
        line = lines[i] if lines else ""
        fields = line.split()
        tags = [j for j, ln in enumerate(lines)
                if ln.startswith("tag: ") and len(ln.split()) == 6]
        if op == "comment":
            note = rng.choice([" # c: 1", "#", "  # tag: a 0 0 p a", "#x#"])
            if rng.random() < 0.5:
                lines[i] = line + note
            else:
                lines.insert(i, note.strip())
        elif op == "blank":
            lines.insert(i, rng.choice(["", "   ", "\t", " \xa0 "]))
        elif op == "colon":
            lines[i] = rng.choice([" ", ""]) + line.replace(
                ":", rng.choice([" : ", ":", "\t:\t", " :"]), 1).replace(
                ": ", ":", rng.random() < 0.5)
        elif op == "swap" and lines:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "hoist" and tags:
            lines.insert(0, lines.pop(rng.choice(tags)))
        elif op == "number" and fields[:1] == ["tag:"] and len(fields) == 6:
            fields[rng.choice([2, 3])] = rng.choice(NUMBERS)
            lines[i] = " ".join(fields)
        elif op == "number" and fields[:1] == ["edge:"]:
            fields[4:] = [rng.choice(NUMBERS)]
            lines[i] = " ".join(fields)
        elif op == "edge":
            edges = [ln for ln in lines if ln.startswith("edge:")]
            lines.insert(i, rng.choice(edges[:1] + [
                "edge: zz a n0", "edge: n0 a zz", "edge: n0 zz n0"]))
        elif op == "duplicate" and tags:
            # the same (src, class, slot), on its edge or a missing one
            parts = lines[rng.choice(tags)].split()
            parts[4] = rng.choice([parts[4], "zz"])
            lines.insert(rng.randrange(len(lines) + 1), " ".join(parts))
        elif op == "missing" and tags:
            j = rng.choice(tags)
            parts = lines[j].split()
            parts[rng.choice([1, 4, 5])] = rng.choice(["zz", "n0", "a"])
            lines[j] = " ".join(parts)
        elif op == "fields" and fields[:1] in (["edge:"], ["tag:"]):
            if rng.random() < 0.5:
                fields.pop()
            else:
                fields += ["1", "extra"][:rng.randrange(1, 3)]
            lines[i] = " ".join(fields)
        elif op == "directive":
            lines.insert(i, rng.choice(
                ["bogus: z", "Tag: n0 0 0 a n0", "edges: n0 a n0", ":",
                 "edge n0 a n0", "states", "tag", "# only a comment",
                 "parity2: a"]))
        elif op == "split" and fields[:1] in (["states:"], ["parity0:"],
                                              ["parity1:"]):
            cut = rng.randrange(1, len(fields) + 1)
            lines[i:i + 1] = [" ".join(fields[:cut]),
                              " ".join(fields[:1] + fields[cut:])]
        elif op == "space":
            lines[i] = line.replace(" ", rng.choice(
                ["\t", "  ", "\xa0", "\u3000", "\x1f"]), 1)
        elif op == "untag":
            lines = [ln for ln in lines if not ln.startswith("tag:")]
    if sep == "mix":
        rng = random.Random(len(lines))
        breaks = [rng.choice(BREAKS) for _ in lines]
        text = "".join(ln + b for ln, b in zip(lines, breaks))
        return text if end or not lines else text[:-len(breaks[-1])]
    return sep.join(lines) + (sep if end else "")


def _read_both(text):
    """Each reader's outcome on ``text``, today's and the frozen one's,
    for the encoder and the graph parser."""
    return ((helpers.read_outcome(parse_encoder_file, text),
             helpers.read_outcome(parse_graph_file, text)),
            (helpers.read_outcome(helpers.reference_parse_encoder_file,
                                  text),
             helpers.read_outcome(helpers.reference_parse_graph_file, text)))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 999)),
                max_size=4),
       st.sampled_from(BREAKS + ["mix"]), st.booleans())
def test_reader_matches_frozen_reader(seed, strict, ops, sep, end):
    # the one-pass reader gives what the reader before it gave, an
    # encoder or a ParseError with its line number and message, on
    # written encoders and on texts mutated from them
    e = _random_encoder(np.random.default_rng(seed), strict)
    text = serialize_encoder(e)
    assert text == helpers.reference_serialize_encoder(e)
    assert text.startswith(serialize_graph(e.graph))
    got, want = _read_both(_mutate(text, ops, sep, end))
    assert got == want


def test_reader_mutations_reach_every_outcome():
    # the mutations of test_reader_matches_frozen_reader reach each
    # outcome of both readers: an encoder, a graph, and every message
    rng = random.Random(5)
    kinds = set()
    for i in range(1500):
        e = _random_encoder(np.random.default_rng(i), bool(i % 2))
        ops = [(rng.choice(MUTATIONS), rng.randrange(1000))
               for _ in range(rng.randrange(4))]
        text = _mutate(serialize_encoder(e), ops,
                       rng.choice(BREAKS + ["mix"]), rng.random() < 0.5)
        got, want = _read_both(text)
        assert got == want, (text, ops)
        for kind, out in zip(("encoder", "graph"), got):
            if out[0] == "ParseError":
                kind = next((m for m in MESSAGES if m in out[2]), out[2])
            kinds.add(kind)
    assert kinds == {"encoder", "graph"} | set(MESSAGES)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=3))
def test_power_file_reads_back(seed, strict, t):
    # every graph file written is one the parser reads back
    g = power(helpers.random_graph(np.random.default_rng(seed),
                                   strict=strict), t)
    try:
        text = serialize_graph(g)
    except BimodalError as exc:
        assert not (g.parity.class0 and g.parity.class1)
        assert "parity class" in str(exc) and "is empty" in str(exc)
        return
    assert serialize_graph(parse_graph_file(text)) == text


@pytest.mark.parametrize("t", ["20000", "30000"])
def test_cli_region_refusal_names_the_budget(t, tmp_path, capsys):
    # 3300 and 4900 digits of rows: the refusal names the budget, not the
    # count, which past 4300 digits Python will not print
    path = tmp_path / "rll.cg"
    path.write_text(serialize_graph(rll_graph(2, 10)))
    assert main(["region", str(path), "-t", t]) == 1
    err = capsys.readouterr().err
    assert err == "error: rate table at t=%s would hold more than %d rows\n" \
        % (t, POWER_BUDGET)


@pytest.mark.parametrize("command", ["encode", "decode"])
@pytest.mark.parametrize("p", ["20000", "1000000000000"])
def test_cli_huge_block_width_refused(command, p, tmp_path, capsys,
                                      monkeypatch):
    # the width is compared with the degrees (1, 1) without building
    # 2^(p-1)
    enc = tmp_path / "enc.cg"
    main(["synth", fixture("twostate.cg"), "-t", "2", "--method", "det",
          "--n0", "1", "--n1", "1", "-o", str(enc)])
    capsys.readouterr()
    first = parse_encoder_file(enc.read_text()).graph.states[0]
    monkeypatch.setattr("sys.stdin", stdio.StringIO(""))
    start = time.perf_counter()
    assert main([command, str(enc), "--start", first, "-p", p]) == 1
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().err == (
        "error: block width %s needs out-degrees 2^%d, encoder has (1, 1)\n"
        % (p, int(p) - 1))


def test_cli_warning_on_one_line(tmp_path, capsys):
    # the golden stether point drops the zero-weight state s10; the
    # library's warning reaches stderr as one line, in a process of its
    # own, as pytest records warnings raised in its own process
    path = tmp_path / "rll.cg"
    path.write_text(serialize_graph(rll_graph(2, 10)))
    argv = ["synth", str(path), "--method", "stether", "-t", "16",
            "--n0", "173", "--n1", "178", "-o", str(tmp_path / "enc.cg")]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(bimodal.__file__)))
    run = subprocess.run([sys.executable, "-m", "bimodal.cli"] + argv,
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (0, "")
    assert run.stderr == "warning: dropping zero-weight states: s10\n"
    # in process, main leaves the warning format as it found it
    shown = warnings.formatwarning
    with pytest.warns(UserWarning, match="s10"):
        assert main(argv) == 0
    assert warnings.formatwarning is shown


def test_cli_warning_as_error_is_one_line(tmp_path, capsys):
    # under python -W error the zero-weight warning is raised; main
    # reports it as one error line and exits 1, writing nothing
    out = tmp_path / "enc.cg"
    argv = ["synth", fixture("trisplit.cg"), "--method", "stether", "-t",
            "2", "--n0", "6", "--n1", "6", "-o", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: dropping zero-weight states: x\n")
    assert not out.exists()


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector(collecting, tmp_path, monkeypatch,
                                     capsys):
    # main pauses the cyclic collector around the command and gives the
    # caller's setting back on every way out: exits 0, 1 and 2, a usage
    # exit and an exception it does not catch
    def broken(path):
        raise RuntimeError("not caught")

    monkeypatch.setattr("sys.stdin", stdio.StringIO("a"))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, code in (
                (["info", fixture("twostate.cg")], 0),
                (["decode", fixture("twostate.cg"), "--start", "alpha"], 1),
                (["info", str(tmp_path / "missing.cg")], 2)):
            assert main(argv) == code
            assert gc.isenabled() is collecting
        with pytest.raises(SystemExit):
            main(["power", fixture("twostate.cg")])
        assert gc.isenabled() is collecting
        monkeypatch.setattr(bimodal.cli, "_load_graph", broken)
        with pytest.raises(RuntimeError):
            main(["info", fixture("twostate.cg")])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.filterwarnings("ignore:dropping zero-weight")
def test_verify_runs_no_collection(tmp_path, capsys):
    # verify on the RLL(2,10) t=10 encoder (640 edges) allocates enough
    # containers for several collections, none of which run in main
    enc = str(tmp_path / "enc.cg")
    degrees = ["-t", "10", "--n0", "16", "--n1", "16"]
    assert main(["synth", fixture("rll210.cg"), "--method", "punctured",
                 "-o", enc] + degrees) == 0
    starts = []

    def count(phase, info):
        starts.append(phase == "start")

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        code = main(["verify", enc, "--against", fixture("rll210.cg")]
                    + degrees)
    finally:
        gc.callbacks.remove(count)
    assert (code, sum(starts)) == (0, 0)


@pytest.mark.filterwarnings("ignore:dropping zero-weight")
def test_first_command_in_a_process_runs_no_collection(tmp_path):
    # the cached parser is built inside the pause too: a fresh process
    # runs no collection over its first main(["verify", ...]), parser
    # build included (argparse leaves cycles enough for one)
    enc = str(tmp_path / "enc.cg")
    degrees = ["-t", "10", "--n0", "16", "--n1", "16"]
    assert main(["synth", fixture("rll210.cg"), "--method", "punctured",
                 "-o", enc] + degrees) == 0
    argv = ["verify", enc, "--against", fixture("rll210.cg")] + degrees
    code = ("import gc, sys\n"
            "from bimodal.cli import main\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: starts.append(phase))\n"
            "code = main(sys.argv[1:])\n"
            "print(code, starts.count('start'), gc.isenabled(),"
            " file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(bimodal.__file__)))
    run = subprocess.run([sys.executable, "-c", code] + argv,
                         capture_output=True, text=True, env=env)
    assert run.stderr == "0 0 True\n"
    assert run.stdout.startswith("out-degrees: ok\n")


OUT = "OUT"


@pytest.mark.parametrize("argv", [
    ["power", "rll210.cg", "-t", "10", "-o", OUT],
    ["power", "mixed.cg", "-t", "3", "-o", OUT],
    ["synth", "quad.cg", "--method", "det", "--n0", "2", "--n1", "2"],
    ["synth", "quad.cg", "--method", "det", "-t", "2", "--n0", "8",
     "--n1", "8"],
    ["synth", "quad.cg", "--method", "split", "--n0", "2", "--n1", "2"],
    ["synth", "twostate.cg", "--method", "split", "-t", "3", "--n0", "3",
     "--n1", "3"],
    ["synth", "quad.cg", "--method", "stether", "--n0", "2", "--n1", "2"],
    ["synth", "rll210.cg", "--method", "stether", "-t", "10", "--n0", "16",
     "--n1", "16", "-o", OUT],
    ["synth", "quad.cg", "--method", "punctured", "--n0", "1", "--n1", "1"],
    ["synth", "rll210.cg", "--method", "punctured", "-t", "10", "--n0",
     "16", "--n1", "16", "-o", OUT],
    ["verify", OUT, "--against", "rll210.cg", "-t", "10", "--n0", "16",
     "--n1", "16"],
    ["region", "rll210.cg", "-t", "10"],
    ["region", "mixed.cg", "-t", "2", "-o", OUT],
    ["info", "rll210.cg"],
    ["info", "mixed.cg"],
    ["franaszek", "rll210.cg", "-t", "10", "--n0", "16", "--n1", "16"],
    ["export-dot", "overlap.cg", "-o", OUT],
], ids=lambda argv: "-".join(a.removesuffix(".cg") for a in argv
                             if a != OUT and not a.startswith("-")))
@pytest.mark.filterwarnings("ignore:dropping zero-weight")
def test_commands_leave_no_cyclic_garbage(argv, tmp_path, capsys):
    # the pause costs no memory because a command makes no reference
    # cycles: whatever it built is freed by refcount when it returns
    out = str(tmp_path / "out")
    if argv[0] == "verify":
        assert main(["synth", fixture("rll210.cg"), "--method", "punctured",
                     "-o", out] + argv[4:]) == 0
    argv = [fixture(a) if a.endswith(".cg") else out if a == OUT else a
            for a in argv]
    # the parser is built once per process, and argparse leaves cycles
    bimodal.cli._parser()
    assert helpers.cyclic_garbage(main, argv) == (0, 0)
