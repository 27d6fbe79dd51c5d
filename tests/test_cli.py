import io as stdio

import pytest

import helpers
from bimodal import (
    Edge,
    ParseError,
    export_dot,
    parse_encoder_file,
    parse_graph_file,
    serialize_encoder,
    serialize_graph,
    extract_deterministic,
)
from bimodal.cli import main


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
], ids=["power-t", "franaszek-n0", "franaszek-cap", "region-t", "synth-t",
        "verify-t"])
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


def test_export_dot_multiplicity():
    g = helpers.rll_16()
    dot = export_dot(g)
    assert "digraph" in dot
    assert "x2" in dot or all(e.mult == 1 for e in g.edges)
