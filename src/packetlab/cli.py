"""Command-line interface.

Every subcommand is a thin wrapper over exactly one library operation and
writes a reproducible JSON or CSV artifact to stdout or ``--out``.  Every
artifact is rendered here: each handler builds its records once, its JSON
payload is those records (or wraps them), and its CSV is named columns of
the same records, rendered by :func:`_csv`.  Floating point is emitted with
17 significant digits (round-trip safe), so identical configurations and
seeds give byte-identical output.  The library keeps only the formats it
reads back: state JSON and the f-table CSV.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure flags
(partial results are still emitted where defined).  A reader that closes
stdout early (``| head``) leaves the exit code as it is.  Each input file
option (``--state``, ``--f-table``, ``--modulus-file``) reads stdin when
given ``-``.  The environment variable ``PACKETLAB_THREADS`` caps scan
parallelism.

Examples
--------
    packetlab css --S 1 --ell 0
    packetlab scan --family circle --alpha-min -1 --alpha-max 2 --alpha-step 0.1
    packetlab floor --alpha 0.25
    packetlab f-scan --t-count 8 --output csv
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import css, states, variational
from . import pencil as pencil_mod
from .errors import ConvergenceError, IntegerWindingError, PacketLabError, SingularPencilError
from .moments import PHI_P_MAX, moments, relation_margins

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# MomentReport field -> artifact name, in artifact order
_MOMENT_NAMES = {
    "mean_l": "meanL", "var_l": "varL", "mean_cos": "meanCos",
    "var_cos": "varCos", "mean_sin": "meanSin", "var_sin": "varSin",
    "delta_phi_p": "deltaPhiP", "gamma_star": "gammaStar",
    "delta_phi_combined": "deltaPhiCombined", "tail_mass": "tailMass",
}


def _csv(columns, records) -> list[str]:
    """The header ``columns`` and one row of those fields per record:
    floats at 17 digits, bools as 0/1, strings as they are."""

    def cell(x) -> str:
        if isinstance(x, bool):
            return str(int(x))
        return x if isinstance(x, str) else f"{float(x):.17g}"

    return [",".join(columns)] + [",".join(cell(r[c]) for c in columns) for r in records]


def _moment_artifact(report) -> tuple[list[str], dict]:
    record = {name: getattr(report, f) for f, name in _MOMENT_NAMES.items()}
    return _csv([n for n in record if n != "tailMass"], [record]), record


def scan_artifact(scan: pencil_mod.QuantizationScan) -> tuple[list[str], dict]:
    """CSV lines and JSON payload of a quantization scan: one record per
    point, of which the CSV holds alpha, floor and flag."""
    points = [
        {
            "alpha": float(a),
            "floor": float(f),
            "flag": bool(fl),
            "eigenvalues": [[float(z.real), float(z.imag)] for z in np.asarray(ev)],
            "error": err,
        }
        for a, f, fl, ev, err in zip(scan.alphas, scan.floor, scan.flagged, scan.eigenvalues, scan.errors)
    ]
    return _csv(("alpha", "floor", "flag"), points), {"family": scan.family, "points": points}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packetlab",
        description="Angular wave packets, uncertainty relations and squeezed states on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("css", help="construct a circular squeezed state and report its moments")
    p.add_argument("--S", type=float, required=True, help="squeezing (>= 0)")
    p.add_argument("--ell", type=float, required=True, help="mean angular momentum (must be integer)")
    p.add_argument("--center", type=float, default=0.0, help="packet center angle (radians)")

    p = sub.add_parser("moments", help="moment report of a state read from JSON")
    p.add_argument("--state", required=True, help="state JSON path, or - for stdin")

    p = sub.add_parser("relations", help="uncertainty-relation margins of a state")
    p.add_argument("--state", required=True, help="state JSON path, or - for stdin")
    p.add_argument("--f-table", default=None, help="CSV f-table for the modified-relation margin, or -")

    p = sub.add_parser("pencil", help="solve the squeezed-state pencil at one expectation value")
    p.add_argument("--family", choices=("circle", "oscillator"), required=True)
    p.add_argument("--alpha", type=float, required=True, help="target <A>")
    p.add_argument("--beta", type=float, default=0.0, help="target <B> (default 0)")

    p = sub.add_parser("scan", help="quantization scan over a grid of expectation values")
    p.add_argument("--family", choices=("circle", "oscillator"), required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-step", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)

    p = sub.add_parser("floor", help="minimum Delta A at fixed <A> = alpha")
    p.add_argument("--family", choices=("circle", "oscillator"), default="circle")
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("phase-min", help="minimize Delta L over phases at fixed modulus")
    p.add_argument("--winding", type=float, required=True, help="integer or half-integer")
    p.add_argument(
        "--modulus",
        choices=("uniform", "vonmises", "random", "half-cosine"),
        default="vonmises",
    )
    p.add_argument("--kappa", type=float, default=2.0, help="von Mises concentration")
    p.add_argument("--modulus-file", default=None, help="JSON modulus samples, or -; overrides --modulus")
    p.add_argument("--grid", "-G", type=int, default=512, help="angular grid size (default 512)")
    p.add_argument("--seed", type=int, default=0, help="seed of the random modulus")

    p = sub.add_parser("f-scan", help="tabulate f(Delta phi_p) for the modified relation")
    p.add_argument("--targets", default=None, help="comma-separated Delta phi_p targets")
    p.add_argument("--t-min", type=float, default=0.1 * PHI_P_MAX)
    p.add_argument("--t-max", type=float, default=0.95 * PHI_P_MAX)
    p.add_argument("--t-count", type=int, default=10)

    # every subcommand writes an artifact; only these build their own window
    for name, p in sub.choices.items():
        if name in ("css", "pencil", "scan", "floor"):
            p.add_argument("--truncation", "-M", type=int, default=64, help="mode cutoff M (default 64)")
        p.add_argument("--output", choices=("json", "csv"), default="json", help="artifact format")
        p.add_argument("--out", default=None, help="write to this path instead of stdout")
    return parser


def _state_payload(state: states.AngularState) -> dict:
    return json.loads(states.state_to_json(state))


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_css(args) -> tuple[list[str], object, int]:
    window = states.ModeWindow.symmetric(args.truncation)
    params = css.CssParams(args.S, args.ell, args.center)
    state = css.css_state(params, window)
    rows, record = _moment_artifact(css.css_moments(params, window))
    return rows, {"state": _state_payload(state), "moments": record}, EXIT_OK


def _cmd_moments(args) -> tuple[list[str], object, int]:
    rows, record = _moment_artifact(moments(states.state_from_json(_read(args.state))))
    return rows, record, EXIT_OK


def _cmd_relations(args) -> tuple[list[str], object, int]:
    state = states.state_from_json(_read(args.state))
    table = variational.read_f_table(_read(args.f_table).splitlines()) if args.f_table else None
    records = [
        {"relation": m.relation.value, "lhs": m.lhs, "rhs": m.rhs, "satisfied": m.satisfied}
        for m in relation_margins(state, table)
    ]
    return _csv(("relation", "lhs", "rhs", "satisfied"), records), records, EXIT_OK


def _cmd_pencil(args) -> tuple[list[str], object, int]:
    problem = pencil_mod._family_problem(args.family, args.alpha, args.beta, args.truncation)
    sol = pencil_mod.solve_pencil(problem)
    payload = {
        "family": args.family,
        "alpha": args.alpha,
        "beta": args.beta,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in sol.eigenvalues],
        "tailMass": [float(x) for x in sol.tail_masses],
        "residual": [float(x) for x in sol.residuals],
        "physical": [bool(x) for x in sol.physical],
    }
    # the payload holds the pairs as columns; the CSV has one row per pair
    columns = ("re", "im", "tailMass", "residual", "physical")
    pairs = zip(payload["eigenvalues"], payload["tailMass"], payload["residual"], payload["physical"])
    records = [dict(zip(columns, (*z, t, r, p))) for z, t, r, p in pairs]
    return _csv(columns, records), payload, EXIT_OK


def _cmd_scan(args) -> tuple[list[str], object, int]:
    if not all(math.isfinite(x) for x in (args.alpha_min, args.alpha_max, args.alpha_step)):
        raise ValueError("--alpha-min, --alpha-max and --alpha-step must be finite")
    if args.alpha_step <= 0:
        raise ValueError(f"--alpha-step must be positive, got {args.alpha_step}")
    if args.alpha_min > args.alpha_max:
        raise ValueError(
            f"--alpha-min {args.alpha_min} exceeds --alpha-max {args.alpha_max}"
        )
    # the endpoints first, so an out-of-range grid is never built
    pencil_mod._check_scan(args.family, [args.alpha_min, args.alpha_max], args.truncation)
    steps = (args.alpha_max - args.alpha_min) / args.alpha_step
    if not math.isfinite(steps):
        raise ValueError(f"--alpha-step {args.alpha_step} is too small for a finite grid")
    n = int(math.floor(steps + 0.5)) + 1
    alphas = args.alpha_min + args.alpha_step * np.arange(n)
    threads = os.environ.get("PACKETLAB_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        raise ValueError(f"PACKETLAB_THREADS must be an integer, got {threads!r}") from None
    scan = pencil_mod.quantization_scan(
        args.family, alphas, beta=args.beta, M=args.truncation, max_workers=workers
    )
    code = EXIT_NUMERICAL if any(e is not None for e in scan.errors) else EXIT_OK
    return (*scan_artifact(scan), code)


def _cmd_floor(args) -> tuple[list[str], object, int]:
    problem = pencil_mod._family_problem(args.family, 0.0, 0.0, args.truncation)
    floor, state = pencil_mod.uncertainty_floor(problem.A, args.alpha)
    payload = {"alpha": args.alpha, "floor": floor, "state": _state_payload(state)}
    return _csv(("alpha", "floor"), [payload]), payload, EXIT_OK


def _cmd_phase_min(args) -> tuple[list[str], object, int]:
    G = args.grid
    if args.modulus_file:
        samples = json.loads(_read(args.modulus_file))
        numbers = isinstance(samples, list) and all(isinstance(x, (int, float)) for x in samples)
        if not (numbers and samples):
            raise ValueError(f"{args.modulus_file} must hold a non-empty JSON array of numbers")
        r = variational.modulus_profile(np.asarray(samples, dtype=float))
    elif args.modulus == "uniform":
        r = variational.uniform_modulus(G)
    elif args.modulus == "vonmises":
        r = variational.vonmises_modulus(G, args.kappa)
    elif args.modulus == "half-cosine":
        r = variational.half_winding_modulus(G)
    else:
        r = variational.random_smooth_modulus(G, args.seed)
    profile, delta_l = variational.minimize_phase(r, args.winding)
    if not profile.admissible:
        raise IntegerWindingError(
            f"winding {profile.slope} is not admissible on this modulus: r e^(i w phi) jumps at phi = +-pi"
        )
    payload = {
        "winding": profile.slope,
        "offset": profile.offset,
        "fitResidual": profile.fit_residual,
        "deltaL": delta_l,
        "meanL": variational.mean_l_of(r, profile),
        "admissible": profile.admissible,
        "gradientNorm": profile.gradient_norm,
        "leastCurvature": profile.least_curvature,
        "certified": profile.certified,
        "modulusVanishes": r.vanishes,
    }
    code = EXIT_OK if profile.certified else EXIT_NUMERICAL
    return _csv(("winding", "offset", "fitResidual", "deltaL", "meanL"), [payload]), payload, code


def _cmd_f_scan(args) -> tuple[list[str], object, int]:
    if args.targets:
        targets = [float(t) for t in args.targets.split(",")]
    else:
        if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
            raise ValueError("--t-min and --t-max must be finite")
        targets = np.linspace(args.t_min, args.t_max, args.t_count)
    table = variational.f_table(targets)
    payload = [
        {"deltaPhiP": float(t), "f": float(f), "converged": bool(c), "rounds": int(n), "violation": float(v)}
        for t, f, c, n, v in zip(table.delta_phi_p, table.f, table.converged, table.rounds, table.violation)
    ]
    code = EXIT_OK if bool(np.all(table.converged)) else EXIT_NUMERICAL
    return table.to_csv_rows(), payload, code


# each handler returns its CSV lines, its JSON payload and its exit code;
# main joins one of the two forms and is the one place that writes
_HANDLERS = {
    "css": _cmd_css,
    "moments": _cmd_moments,
    "relations": _cmd_relations,
    "pencil": _cmd_pencil,
    "scan": _cmd_scan,
    "floor": _cmd_floor,
    "phase-min": _cmd_phase_min,
    "f-scan": _cmd_f_scan,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, payload, code = _HANDLERS[args.command](args)
        text = ("\n".join(rows) if args.output == "csv" else json.dumps(payload)) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            return code
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early (``| head``): the run stands, and
            # the flush at shutdown goes to /dev/null instead of failing again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (SingularPencilError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PacketLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
