import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

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


@pytest.mark.parametrize("command", ["moments", "relations"])
def test_state_from_stdin(tmp_path, monkeypatch, capsys, command):
    text = pl.state_to_json(pl.css_state(pl.CssParams(2.0, 1), pl.ModeWindow.symmetric(32)))
    path = tmp_path / "state.json"
    path.write_text(text)
    code, expected, _ = run(capsys, command, "--state", str(path))
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, command, "--state", "-") == (0, expected, "")


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


@pytest.fixture(scope="module")
def f_table_rows():
    return pl.f_table([0.2, 0.6, 1.0, 1.4, 1.7]).to_csv_rows()


@pytest.mark.parametrize("edit", ["reversed", "nan-deltaPhiP", "nan-f"])
def test_relations_rejects_unsorted_or_non_finite_f_table(tmp_path, capsys, f_table_rows, edit):
    # interpolation reads the rows as sorted: a reversed table would give
    # ModifiedJudge the wrong bound with exit 0
    header, *rows = f_table_rows
    rows = {
        "reversed": rows[::-1],
        "nan-deltaPhiP": rows[:2] + ["nan,2.0,1"] + rows[2:],
        "nan-f": rows[:2] + ["1.1,nan,1"] + rows[2:],
    }[edit]
    spath = tmp_path / "s.json"
    spath.write_text(pl.state_to_json(pl.css_state(pl.CssParams(1.0, 0), pl.ModeWindow.symmetric(32))))
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("\n".join(f_table_rows))
    bad.write_text("\n".join([header, *rows]))
    code, _, _ = run(capsys, "relations", "--state", str(spath), "--f-table", str(good))
    assert code == 0
    code, out, err = run(capsys, "relations", "--state", str(spath), "--f-table", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "ascending" in err


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
    assert lines[0] == "alpha,floor,flag"
    flags = {ln.split(",")[0]: ln.split(",")[2] for ln in lines[1:]}
    assert flags["-1"] == "1" and flags["0"] == "1" and flags["1"] == "1"
    assert flags["-0.5"] == "0" and flags["0.5"] == "0"


def test_two_mode_oscillator_window(capsys):
    # M = 1 leaves the modes 0 and 1, where T(iS) is 2 x 2 with
    # det T(iS) = S^2/4 - <N>(1 - <N>): one root at S = 2 sqrt(<N>(1 - <N>)),
    # refined on single-shift blocks of two modes.  Half of its mass sits in
    # the top mode, so it is not physical, and <N> = 0 has no root at all.
    code, out, err = run(capsys, "pencil", "--family", "oscillator", "--alpha", "0.5", "-M", "1")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["eigenvalues"] == [[0.0, 1.0]]
    assert payload["physical"] == [False]
    code, out, err = run(
        capsys,
        "scan", "--family", "oscillator",
        "--alpha-min", "0", "--alpha-max", "0.5", "--alpha-step", "0.5", "-M", "1",
        "--output", "csv",
    )
    assert code == 0, err
    assert out.strip().split("\n")[1:] == ["0,0,0", "0.5,0.5,0"]


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


@pytest.mark.parametrize("output", ["json", "csv"])
def test_phase_min_modulus_file(tmp_path, monkeypatch, capsys, output):
    # the 512 samples of exp(cos phi - 1) are the von Mises modulus at kappa 2
    samples = np.exp(np.cos(pl.grid_angles(512)) - 1.0)
    text = json.dumps(samples.tolist())
    path = tmp_path / "modulus.json"
    path.write_text(text)
    argv = ("phase-min", "--winding", "1", "--output", output)
    code, expected, _ = run(capsys, *argv, "--modulus", "vonmises", "--kappa", "2")
    assert code == 0
    assert run(capsys, *argv, "--modulus-file", str(path)) == (0, expected, "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, *argv, "--modulus-file", "-") == (0, expected, "")


def test_f_scan_command(capsys):
    code, out, _ = run(
        capsys, "f-scan", "--targets", "0.5,1.0", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "deltaPhiP,f,converged"
    assert len(lines) == 3
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_phase_min_json_carries_solver_flags(capsys):
    # a vanishing modulus is marked in the artifact, not only on stderr;
    # the CSV columns stay as they were
    code, out, _ = run(capsys, "phase-min", "--winding", "1", "--modulus", "vonmises", "--kappa", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["admissible"] is True and payload["certified"] is True
    assert payload["gradientNorm"] <= 1e-10 and payload["leastCurvature"] > 0.0
    assert payload["modulusVanishes"] is False
    with pytest.warns(pl.ModulusZeroWarning):
        code, out, _ = run(capsys, "phase-min", "--winding", "1", "--modulus", "half-cosine")
    payload = json.loads(out)
    assert code == 0
    assert payload["certified"] is True and payload["modulusVanishes"] is True
    with pytest.warns(pl.ModulusZeroWarning):
        code, out, _ = run(capsys, "phase-min", "--winding", "1", "--modulus", "half-cosine", "--output", "csv")
    assert code == 0
    assert out.split("\n")[0] == "winding,offset,fitResidual,deltaL,meanL"


@pytest.mark.parametrize(
    "argv, expected, printed",
    [
        (["--winding", "0.5", "--modulus", "uniform", "-G", "64"], 2, False),
        (["--winding", "1.5", "--modulus", "vonmises"], 2, False),
        (["--winding", "1", "--modulus", "half-cosine", "-G", "64"], 3, True),
        (["--winding", "0", "--modulus", "half-cosine", "-G", "64"], 3, True),
        (["--winding", "1", "--modulus", "vonmises", "-G", "16"], 3, False),
        (["--winding", "0.5", "--modulus", "half-cosine"], 0, True),
        (["--winding", "5", "--modulus", "uniform", "-G", "8"], 2, False),
        (["--winding", "4", "--modulus", "uniform", "-G", "8"], 2, False),
        (["--winding", "300", "--modulus", "vonmises", "-G", "512"], 2, False),
        (["--winding", "1000", "--modulus", "vonmises", "-G", "512"], 2, False),
    ],
    ids=["half-on-uniform", "half-on-vonmises", "kinked-integer", "saddle", "coarse-grid", "half-cosine",
         "aliased-5-on-8", "aliased-4-on-8", "aliased-300-on-512", "aliased-1000-on-512"],
)
def test_phase_min_exits_on_admissibility_and_certificate(capsys, argv, expected, printed):
    # each of the first four and the aliased ones once printed a wrong-class
    # answer, a saddle or an aliased <L> at exit 0.  An inadmissible pair and
    # a winding of at least G/2 print nothing (exit 2); a phase that does not
    # certify is printed where the modulus vanishes (exit 3), and raised where
    # it does not (exit 3, nothing printed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.ModulusZeroWarning)
        code, out, err = run(capsys, "phase-min", *argv)
    assert code == expected
    if expected == 2:
        G = int(argv[argv.index("-G") + 1]) if "-G" in argv else 512
        assert ("aliases" if abs(float(argv[1])) >= G / 2 else "not admissible") in err
    if not printed:
        assert out == ""
        return
    payload = json.loads(out)
    assert payload["admissible"] is True
    assert payload["certified"] is (expected == 0)
    if expected == 0:
        assert payload["deltaL"] == pytest.approx(0.5, abs=1e-12)


def test_f_table_converged_column_is_0_or_1(tmp_path, capsys):
    spath = tmp_path / "s.json"
    spath.write_text(pl.state_to_json(pl.css_state(pl.CssParams(1.0, 0), pl.ModeWindow.symmetric(32))))
    for flag, expected in (("1", 0), ("nan", 2), ("2", 2)):
        tpath = tmp_path / "f.csv"
        tpath.write_text(f"deltaPhiP,f,converged\n0.1,1.0,1\n1.8,4.3,{flag}\n")
        code, _, err = run(capsys, "relations", "--state", str(spath), "--f-table", str(tpath))
        assert code == expected, flag
        assert expected == 0 or err.startswith("error: ")


def test_f_scan_json_explains_each_point(capsys):
    from packetlab.variational import F_NEWTON_TOL

    code, out, _ = run(capsys, "f-scan", "--targets", "0.5,1.0,0.04")
    assert code == 3  # 0.04 is met but not resolved by the window
    points = json.loads(out)
    table = pl.f_table([0.5, 1.0, 0.04])
    assert [p["rounds"] for p in points] == table.rounds.tolist()
    assert [p["violation"] for p in points] == table.violation.tolist()
    assert all(p["violation"] <= F_NEWTON_TOL for p in points)
    assert [p["converged"] for p in points] == [False, True, True]
    code, out, _ = run(capsys, "f-scan", "--targets", "0.5,1.0,0.04", "--output", "csv")
    assert code == 3
    assert out.strip().split("\n") == table.to_csv_rows()


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


SCANS = [
    ["scan", "--family", "circle", "--alpha-min", "-1", "--alpha-max", "1", "--alpha-step", "0.25"],
    ["scan", "--family", "oscillator", "--alpha-min", "0", "--alpha-max", "3", "--alpha-step", "0.5"],
]


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("argv", SCANS, ids=["circle", "oscillator"])
def test_threaded_scan_matches_serial(monkeypatch, capsys, argv, output):
    monkeypatch.delenv("PACKETLAB_THREADS", raising=False)
    argv = [*argv, "-M", "32", "--output", output]
    serial = run(capsys, *argv)
    monkeypatch.setenv("PACKETLAB_THREADS", "2")
    assert run(capsys, *argv) == serial
    assert serial[0] == 0


def test_non_integer_threads_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("PACKETLAB_THREADS", "abc")
    code, out, err = run(capsys, *SCANS[0])
    assert (code, out) == (2, "")
    assert err.startswith("error: PACKETLAB_THREADS")


@pytest.mark.parametrize("argv", [
    ["floor", "--alpha", "0.25"],
    # 65 points, 20 KB of JSON
    ["scan", "--family", "circle", "--alpha-min", "-8", "--alpha-max", "8", "--alpha-step", "0.25", "-M", "16"],
], ids=["floor", "scan"])
def test_closed_stdout_keeps_exit_code(argv):
    # a reader that stops early (``| head``) once turned a finished run into
    # "error: [Errno 32] Broken pipe" and exit 2
    src = str(Path(pl.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from packetlab.cli import main; sys.exit(main({argv!r}))"
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_state_file_exits_2(capsys):
    code, _, err = run(capsys, "moments", "--state", "/nonexistent/state.json")
    assert code == 2
    assert "error" in err


_STATE = json.loads(pl.state_to_json(pl.css_state(pl.CssParams(1.0, 0), pl.ModeWindow.symmetric(8))))


@pytest.mark.parametrize(
    "command, option, content",
    [
        # the css artifact wraps the state under "state"
        ("moments", "--state", json.dumps({"state": _STATE, "moments": {}})),
        ("moments", "--state", json.dumps({"window": _STATE["window"]})),
        ("moments", "--state", json.dumps({**_STATE, "coeffs": [1.0] * 17})),
        ("moments", "--state", json.dumps({**_STATE, "coeffs": [["a", "b"]] * 17})),
        ("relations", "--f-table", "deltaPhiP,f,converged\n"),
        ("relations", "--f-table", "deltaPhiP,f,converged\n0.5,1.0\n"),
        ("phase-min", "--modulus-file", json.dumps({"samples": [1.0, 2.0]})),
        ("phase-min", "--modulus-file", "[]"),
    ],
    ids=[
        "css-artifact", "no-coeffs", "coeffs-not-pairs", "coeffs-strings",
        "f-table-header-only", "f-table-short-row", "modulus-object", "modulus-empty",
    ],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, command, option, content):
    path = tmp_path / "input"
    path.write_text(content)
    (tmp_path / "state.json").write_text(json.dumps(_STATE))
    argv = {
        "moments": ["moments"],
        "relations": ["relations", "--state", str(tmp_path / "state.json")],
        "phase-min": ["phase-min", "--winding", "1"],
    }[command]
    code, _, err = run(capsys, *argv, option, str(path))
    assert code == 2
    assert err.startswith("error: ")


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
        # a grid of 4e17 points: over MAX_GRID_POINTS, rejected before it is built
        ["scan", "--family", "circle", "--alpha-min", "0", "--alpha-max", "4", "--alpha-step", "1e-17"],
        # a subnormal step: (max - min) / step overflows to inf
        ["scan", "--family", "circle", "--alpha-min", "-1", "--alpha-max", "1", "--alpha-step", "1e-320"],
        ["css", "--S", "0.5", "--ell", "0", "--center", "nan", "-M", "8"],
        ["css", "--S", "0.5", "--ell", "0", "--center", "inf", "-M", "8"],
    ],
    ids=[
        "zero-step", "negative-step", "min-above-max", "infinite-max",
        "negative-oscillator-alpha", "no-f-targets", "nan-floor-alpha", "nan-pencil-alpha",
        "max-beyond-truncation", "unallocatable-grid", "infinite-grid", "nan-center",
        "infinite-center",
    ],
)
def test_bad_pencil_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        # one point over the cap: a grid that is cheap to build, so the
        # check, not the allocation, must reject it
        ["scan", "--family", "circle", "--alpha-min", "0", "--alpha-max", "1", "--alpha-step", "1e-5"],
        ["f-scan", "--t-count", "100001"],
    ],
    ids=["scan", "f-scan"],
)
def test_grid_over_the_point_cap_exits_2(monkeypatch, capsys, argv):
    # a scan at --alpha-step 1e-9 (1e9 + 1 points, 8 GB) was killed by the
    # kernel before any check ran; a grid over MAX_GRID_POINTS now exits 2
    # before it is allocated, and nothing is solved
    from packetlab import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the grid should have been rejected")

    monkeypatch.setattr(cli.pencil_mod, "quantization_scan", unreachable)
    monkeypatch.setattr(cli.variational, "f_table", unreachable)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and str(cli.MAX_GRID_POINTS) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["f-scan", "--targets", "0.5", "-M", "256"],
        ["moments", "--state", "state.json", "-G", "64"],
        ["css", "--S", "1", "--ell", "0", "--seed", "3"],
    ],
    ids=["f-scan-truncation", "moments-grid", "css-seed"],
)
def test_options_a_subcommand_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    if command == "phase-min":
        argv += ["--grid", "64"]
    elif command != "f-scan":
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
# an alpha beyond the truncated spectrum once overflowed the sweep's norms and
# printed every point as certified with residual inf
@example(argv=["pencil", "--alpha", "1e300", "--beta", "0", "--family", "circle", "--truncation", "8", "--output", "csv"])
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
