"""Command-line interface: documents in, documents out, exit codes."""

import contextlib
import io
import json
import sys

import pytest

from jacobispec import cli
from jacobispec.exactpoly import BiPoly
from jacobispec.pencil import curve_t, curve_w, pencil


def run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_in = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own exits
                code = exc.code
    finally:
        sys.stdin = old_in
    return code, out.getvalue(), err.getvalue()


PENCIL_DOC = json.dumps({"n": 2, "a": ["0", "1"], "b": ["1"]})


def test_charpoly_document():
    code, out, err = run(["charpoly"], stdin_text=PENCIL_DOC)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["tool"] == "jacobispec"
    assert doc["command"] == "charpoly"
    assert doc["input"] == json.loads(PENCIL_DOC)
    assert doc["result"]["form"] == "t"
    assert doc["result"]["curve"] == [["0", "1", "1"], ["-1"]]
    assert doc["timing_seconds"] >= 0


def test_charpoly_w_form():
    code, out, _ = run(["--form", "w", "charpoly"], stdin_text=PENCIL_DOC)
    assert code == cli.EXIT_OK
    assert json.loads(out)["result"]["curve"] == [["0", "1", "1"], [], ["-1"]]


def test_input_output_files(tmp_path):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(PENCIL_DOC)
    code, out, _ = run(
        ["--input", str(src), "--output", str(dst), "charpoly"]
    )
    assert code == cli.EXIT_OK
    assert out == ""
    doc = json.loads(dst.read_text())
    assert doc["result"]["curve"] == [["0", "1", "1"], ["-1"]]
    # a file that is not UTF-8 is a document error, not a crash
    src.write_bytes(b"\xff\xfe" + PENCIL_DOC.encode("utf-16-le"))
    code, _, err = run(["--input", str(src), "decide"])
    assert code == cli.EXIT_VALIDATION
    assert "cannot read input" in err


def test_decide_document_and_reverification():
    doc_in = json.dumps({"n": 3, "a": ["-1", "0", "4"], "b": ["1", "2"]})
    code, out, _ = run(["decide"], stdin_text=doc_in)
    assert code == cli.EXIT_OK
    result = json.loads(out)["result"]
    assert result["status"] == "Reducible"
    assert result["factor_degrees"] == [1, 2]
    assert result["witnesses"] == [[2]]
    # the reported factor lists carry enough to re-check the product exactly
    factors = [BiPoly.from_lists(layers, "t") for layers in result["factors_t"]]
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    assert prod == curve_t(pencil([-1, 0, 4], [1, 2]))


def test_detect_document():
    doc_in = json.dumps({"n": 3, "a": ["5", "7", "5"], "b": ["3", "3"]})
    code, out, _ = run(["detect"], stdin_text=doc_in)
    assert code == cli.EXIT_OK
    result = json.loads(out)["result"]
    assert result["reducible"]
    (cert,) = result["certificates"]
    assert cert["kind"] == "palindrome"
    assert cert["verified"]
    assert cert["data"]["couplings"] == ["3", "3"]
    target = BiPoly.from_lists(cert["target"], "w")
    factors = [BiPoly.from_lists(layers, "w") for layers in cert["factors"]]
    assert factors[0] * factors[1] == target
    assert target == curve_w(pencil([5, 7, 5], [3, 3]))


def test_monodromy_document():
    code, out, _ = run(["monodromy"], stdin_text=PENCIL_DOC)
    assert code == cli.EXIT_OK
    result = json.loads(out)["result"]
    assert result["permutations"] == [[2, 1], [2, 1]]
    assert result["orbit_degrees"] == [2]
    assert result["consistent"] is True
    assert abs(result["branch_points"][0]["im"] + 0.5) < 1e-12


def test_campaign_document_and_seed_override():
    camp = json.dumps(
        {
            "name": "t",
            "n": 3,
            "sampler": "generic",
            "parameter_range": 9,
            "sample_count": 4,
            "seed": 5,
        }
    )
    code, out, _ = run(["campaign"], stdin_text=camp)
    assert code == cli.EXIT_OK
    result = json.loads(out)["result"]
    assert result["campaign"]["seed"] == 5
    assert sum(result["counts"].values()) == 4

    code, out, _ = run(["--seed", "9", "campaign"], stdin_text=camp)
    assert code == cli.EXIT_OK
    assert json.loads(out)["result"]["campaign"]["seed"] == 9


def test_campaign_csv(tmp_path):
    camp = json.dumps(
        {
            "name": "t",
            "n": 3,
            "sampler": "generic",
            "parameter_range": 9,
            "sample_count": 4,
            "seed": 5,
        }
    )
    path = tmp_path / "samples.csv"
    code, _, _ = run(["--csv", str(path), "campaign"], stdin_text=camp)
    assert code == cli.EXIT_OK
    lines = path.read_text().splitlines()
    assert lines[0] == "index,n,a,b,outcome,witness"
    assert len(lines) == 5


def test_human_rendering():
    code, out, _ = run(["--human", "charpoly"], stdin_text=PENCIL_DOC)
    assert code == cli.EXIT_OK
    assert out.startswith("charpoly:")
    assert '[["0", "1", "1"], ["-1"]]' in out


def test_validation_errors_exit_2():
    code, _, err = run(["charpoly"], stdin_text="{bad json")
    assert code == cli.EXIT_VALIDATION
    assert "line 1" in err
    code, _, err = run(["charpoly"], stdin_text=json.dumps({"a": ["0"], "b": []}))
    assert code == cli.EXIT_VALIDATION
    assert "missing field 'n'" in err
    code, _, err = run(
        ["charpoly"], stdin_text=json.dumps({"n": 3, "a": ["0", "1"], "b": ["1"]})
    )
    assert code == cli.EXIT_VALIDATION
    assert "expected n = 3" in err
    code, _, err = run(
        ["charpoly"],
        stdin_text=json.dumps({"n": 2, "a": ["0", "1.5e3"], "b": ["1"]}),
    )
    assert code == cli.EXIT_VALIDATION
    # JSON booleans are not integers
    doc = json.dumps({"n": True, "a": ["1"], "b": []})
    code, _, err = run(["decide"], stdin_text=doc)
    assert code == cli.EXIT_VALIDATION
    assert "field 'n' must be int" in err
    camp = {
        "name": "t",
        "n": 3,
        "sampler": "generic",
        "parameter_range": True,
        "sample_count": 4,
        "seed": False,
    }
    code, _, err = run(["campaign"], stdin_text=json.dumps(camp))
    assert code == cli.EXIT_VALIDATION
    assert "field 'parameter_range' must be int" in err
    camp["parameter_range"] = 9
    code, _, err = run(["campaign"], stdin_text=json.dumps(camp))
    assert code == cli.EXIT_VALIDATION
    assert "field 'seed' must be int" in err


def test_unsupported_exit_3():
    doc = json.dumps({"n": 3, "a": ["0", "0", "1"], "b": ["1", "1"]})
    code, _, err = run(["decide"], stdin_text=doc)
    assert code == cli.EXIT_UNSUPPORTED
    assert "repeated diagonal" in err
    # non-squarefree curve through the monodromy command
    doc2 = json.dumps({"n": 2, "a": ["3", "3"], "b": ["0"]})
    code, _, err = run(["monodromy"], stdin_text=doc2)
    assert code == cli.EXIT_UNSUPPORTED


def test_selftest_passes():
    code, out, _ = run(["selftest"])
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    results = doc["result"]["results"]
    assert len(results) == 10
    assert all(c["passed"] for c in results)
    assert doc["result"]["passed"] is True
