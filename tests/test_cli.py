import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import packetlab as pl
from packetlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_css_json(capsys):
    code, out, _ = run(capsys, "css", "--S", "1", "--ell", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["state"]["window"] == {"kind": "symmetric", "M": 64}
    assert payload["moments"]["meanCos"] == pytest.approx(0.6977, abs=1e-4)
    assert payload["moments"]["meanL"] == 0.0


def test_css_csv(capsys):
    code, out, _ = run(capsys, "css", "--S", "1", "--ell", "0", "--output", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("meanL,varL,meanCos")
    assert float(row.split(",")[2]) == pytest.approx(0.6977, abs=1e-4)


def test_css_non_integer_ell_exits_2(capsys):
    code, _, err = run(capsys, "css", "--S", "1", "--ell", "0.5")
    assert code == 2
    assert "integer" in err


def test_moments_and_relations_roundtrip(tmp_path, capsys):
    state = pl.css_state(pl.CssParams(2.0, 1), pl.ModeWindow.symmetric(32))
    path = tmp_path / "state.json"
    path.write_text(pl.state_to_json(state))

    code, out, _ = run(capsys, "moments", "--state", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["meanL"] == pytest.approx(1.0, abs=1e-12)

    code, out, _ = run(capsys, "relations", "--state", str(path), "--output", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "relation,lhs,rhs,satisfied"
    names = {ln.split(",")[0] for ln in lines[1:]}
    assert names == {"NaiveRobertson", "CosRelation", "SinRelation", "CombinedPhi"}


def test_relations_with_f_table(tmp_path, capsys):
    table = pl.FTable(np.array([0.1, 1.8]), np.array([1.0, 4.3]), np.array([True, True]))
    tpath = tmp_path / "f.csv"
    tpath.write_text("\n".join(table.to_csv_rows()))
    state = pl.css_state(pl.CssParams(1.0, 0), pl.ModeWindow.symmetric(32))
    spath = tmp_path / "s.json"
    spath.write_text(pl.state_to_json(state))
    code, out, _ = run(capsys, "relations", "--state", str(spath), "--f-table", str(tpath))
    assert code == 0
    names = {entry["relation"] for entry in json.loads(out)}
    assert "ModifiedJudge" in names


def test_pencil_json(capsys):
    code, out, _ = run(capsys, "pencil", "--family", "circle", "--alpha", "1", "--truncation", "32")
    assert code == 0
    payload = json.loads(out)
    assert any(payload["physical"])


def test_scan_csv_flags_integers(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--family", "circle",
        "--alpha-min", "-1", "--alpha-max", "1", "--alpha-step", "0.5",
        "--output", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,minImagDistance,floor,flag"
    flags = {ln.split(",")[0]: ln.split(",")[3] for ln in lines[1:]}
    assert flags["-1"] == "1" and flags["0"] == "1" and flags["1"] == "1"
    assert flags["-0.5"] == "0" and flags["0.5"] == "0"


def test_floor_command(capsys):
    code, out, _ = run(capsys, "floor", "--alpha", "0.25", "--output", "csv")
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(np.sqrt(3) / 4)


def test_phase_min_command(capsys):
    code, out, _ = run(capsys, "phase-min", "--winding", "1", "--modulus", "vonmises", "--kappa", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["winding"] == 1.0
    assert abs(payload["meanL"] - 1.0) < 1e-8
    assert payload["fitResidual"] < 1e-6


def test_f_scan_command(capsys):
    code, out, _ = run(
        capsys, "f-scan", "--targets", "0.5,1.0", "--grid", "256", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "deltaPhiP,f,converged"
    assert len(lines) == 3
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "css", "--S", "2", "--ell", "3", "--center", "0.7")
    _, out2, _ = run(capsys, "css", "--S", "2", "--ell", "3", "--center", "0.7")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys,
        "scan", "--family", "circle",
        "--alpha-min", "0", "--alpha-max", "0", "--alpha-step", "1",
        "--output", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("alpha,")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_state_file_exits_2(capsys):
    code, _, err = run(capsys, "moments", "--state", "/nonexistent/state.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "circle", "--alpha-min", "0", "--alpha-max", "1", "--alpha-step", "0"],
        ["scan", "--family", "circle", "--alpha-min", "0", "--alpha-max", "1", "--alpha-step", "-0.5"],
        ["scan", "--family", "circle", "--alpha-min", "1", "--alpha-max", "-1", "--alpha-step", "0.5"],
        ["scan", "--family", "circle", "--alpha-min", "0", "--alpha-max", "inf", "--alpha-step", "0.5"],
        ["pencil", "--family", "oscillator", "--alpha", "-1"],
        ["f-scan", "--t-count", "0"],
        ["floor", "--alpha", "nan"],
        ["pencil", "--family", "circle", "--alpha", "nan"],
        # beyond M/2: rejected before the grid of 2e17 points is built
        ["scan", "--family", "circle", "--alpha-min", "0", "--alpha-max", "1e17", "--alpha-step", "0.5"],
        # a grid of 4e17 points: its allocation (beyond any address space) fails at once
        ["scan", "--family", "circle", "--alpha-min", "0", "--alpha-max", "4", "--alpha-step", "1e-17"],
        ["css", "--S", "0.5", "--ell", "0", "--center", "nan", "-M", "8"],
        ["css", "--S", "0.5", "--ell", "0", "--center", "inf", "-M", "8"],
    ],
    ids=[
        "zero-step", "negative-step", "min-above-max", "infinite-max",
        "negative-oscillator-alpha", "no-f-targets", "nan-floor-alpha", "nan-pencil-alpha",
        "max-beyond-truncation", "unallocatable-grid", "nan-center", "infinite-center",
    ],
)
def test_bad_pencil_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


# Numeric arguments drawn from zero, negative, non-finite, huge and normal
# values; truncations stay small so that every valid draw runs in milliseconds.
NUMBER = st.sampled_from(["0", "-1.5", "nan", "inf", "-inf", "1e300", "0.5", "2"])
COUNT = st.sampled_from(["0", "-3", "nan", "1e300", "1", "2"])
TRUNCATION = st.sampled_from(["0", "-3", "nan", "8"])
FAMILY = st.sampled_from(["circle", "oscillator"])


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["css", "pencil", "scan", "floor", "phase-min", "f-scan"]))
    options = {
        "css": ["--S", "--ell", "--center"],
        "pencil": ["--alpha", "--beta"],
        "scan": ["--alpha-min", "--alpha-max", "--alpha-step", "--beta"],
        "floor": ["--alpha"],
        "phase-min": ["--winding", "--kappa"],
        "f-scan": ["--t-min", "--t-max"],
    }[command]
    argv = [command]
    for option in options:
        argv += [option, draw(NUMBER)]
    if command in ("pencil", "scan", "floor"):
        argv += ["--family", draw(FAMILY)]
    if command == "phase-min":
        argv += ["--modulus", draw(st.sampled_from(["uniform", "vonmises", "random", "half-cosine"]))]
    if command == "f-scan":
        argv += ["--t-count", draw(COUNT)]
    if command in ("phase-min", "f-scan"):
        argv += ["--grid", "64"]
    else:
        argv += ["--truncation", draw(TRUNCATION)]
    return argv + ["--output", draw(st.sampled_from(["json", "csv"]))]


def assert_no_nan(text: str, output: str) -> None:
    """An artifact may carry Infinity where documented, never NaN."""
    if output == "json":
        def constant(name):
            assert name != "NaN", text
            return float(name)

        json.loads(text, parse_constant=constant)
    else:
        for line in text.splitlines()[1:]:
            assert not any(math.isnan(float(field)) for field in line.split(",")), line


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=fuzz_argv())
# a non-finite center once printed NaN moments with exit 0
@example(argv=["css", "--S", "0.5", "--ell", "0", "--center", "nan", "--truncation", "8", "--output", "json"])
@example(argv=["css", "--S", "2", "--ell", "0", "--center", "nan", "--truncation", "8", "--output", "csv"])
def test_fuzzed_numeric_arguments_keep_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects unparsable values
        code = exc.code
    # any other exception escaping main would print a traceback
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert_no_nan(out.getvalue(), argv[-1])
