"""Command-line interface.

Every subcommand is a thin wrapper over exactly one library operation and
writes a reproducible JSON or CSV artifact to stdout or ``--out``.  Floating
point is emitted with 17 significant digits (round-trip safe), so identical
configurations and seeds give byte-identical output.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure flags
(partial results are still emitted where defined).  The environment variable
``PACKETLAB_THREADS`` caps scan parallelism.

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
from .errors import ConvergenceError, PacketLabError, SingularPencilError
from .moments import (
    CSV_HEADER,
    PHI_P_MAX,
    margins_to_dict,
    moments,
    relation_margins,
    report_to_csv_row,
    report_to_dict,
    report_to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(payload) -> str:
    return json.dumps(payload, allow_nan=True)


def _load_state(path: str) -> states.AngularState:
    text = sys.stdin.read() if path == "-" else open(path).read()
    return states.state_from_json(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--truncation", "-M", type=int, default=64, help="mode cutoff M (default 64)")
    p.add_argument("--grid", "-G", type=int, default=512, help="angular grid size (default 512)")
    p.add_argument("--output", choices=("json", "csv"), default="json", help="artifact format")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized inputs")


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
    _add_common(p)

    p = sub.add_parser("moments", help="moment report of a state read from JSON")
    p.add_argument("--state", required=True, help="state JSON path, or - for stdin")
    _add_common(p)

    p = sub.add_parser("relations", help="uncertainty-relation margins of a state")
    p.add_argument("--state", required=True, help="state JSON path, or - for stdin")
    p.add_argument("--f-table", default=None, help="CSV f-table enabling the modified-relation margin")
    _add_common(p)

    p = sub.add_parser("pencil", help="solve the squeezed-state pencil at one expectation value")
    p.add_argument("--family", choices=("circle", "oscillator"), required=True)
    p.add_argument("--alpha", type=float, required=True, help="target <A>")
    p.add_argument("--beta", type=float, default=0.0, help="target <B> (default 0)")
    _add_common(p)

    p = sub.add_parser("scan", help="quantization scan over a grid of expectation values")
    p.add_argument("--family", choices=("circle", "oscillator"), required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-step", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("floor", help="minimum Delta A at fixed <A> = alpha")
    p.add_argument("--family", choices=("circle", "oscillator"), default="circle")
    p.add_argument("--alpha", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("phase-min", help="minimize Delta L over phases at fixed modulus")
    p.add_argument("--winding", type=float, required=True, help="integer or half-integer")
    p.add_argument(
        "--modulus",
        choices=("uniform", "vonmises", "random", "half-cosine"),
        default="vonmises",
    )
    p.add_argument("--kappa", type=float, default=2.0, help="von Mises concentration")
    p.add_argument("--modulus-file", default=None, help="JSON array of modulus samples (overrides --modulus)")
    _add_common(p)

    p = sub.add_parser("f-scan", help="tabulate f(Delta phi_p) for the modified relation")
    p.add_argument("--targets", default=None, help="comma-separated Delta phi_p targets")
    p.add_argument("--t-min", type=float, default=0.1 * PHI_P_MAX)
    p.add_argument("--t-max", type=float, default=0.95 * PHI_P_MAX)
    p.add_argument("--t-count", type=int, default=10)
    _add_common(p)

    return parser


def _state_payload(state: states.AngularState) -> dict:
    return json.loads(states.state_to_json(state))


def _cmd_css(args) -> int:
    window = states.ModeWindow.symmetric(args.truncation)
    params = css.CssParams(args.S, args.ell, args.center)
    state = css.css_state(params, window)
    report = css.css_moments(params, window)
    if args.output == "csv":
        _emit(
            CSV_HEADER + "\n" + report_to_csv_row(report),
            args.out,
        )
    else:
        _emit(
            _json_dumps(
                {"state": _state_payload(state), "moments": report_to_dict(report)}
            ),
            args.out,
        )
    return EXIT_OK


def _cmd_moments(args) -> int:
    state = _load_state(args.state)
    report = moments(state)
    if args.output == "csv":
        _emit(CSV_HEADER + "\n" + report_to_csv_row(report), args.out)
    else:
        _emit(report_to_json(report), args.out)
    return EXIT_OK


def _cmd_relations(args) -> int:
    state = _load_state(args.state)
    table = None
    if args.f_table:
        with open(args.f_table) as fh:
            table = variational.read_f_table(fh.read().splitlines())
    margins = relation_margins(state, table)
    if args.output == "csv":
        rows = ["relation,lhs,rhs,satisfied"]
        rows += [
            f"{m.relation.value},{_f17(m.lhs)},{_f17(m.rhs)},{int(m.satisfied)}"
            for m in margins
        ]
        _emit("\n".join(rows), args.out)
    else:
        _emit(_json_dumps(margins_to_dict(margins)), args.out)
    return EXIT_OK


def _cmd_pencil(args) -> int:
    problem = pencil_mod._family_problem(args.family, args.alpha, args.beta, args.truncation)
    sol = pencil_mod.solve_pencil(problem)
    if args.output == "csv":
        rows = ["re,im,axisDistance,tailMass,residual,physical"]
        for i in range(sol.n):
            z = sol.eigenvalues[i]
            rows.append(
                f"{_f17(z.real)},{_f17(z.imag)},{_f17(abs(z.real))},"
                f"{_f17(sol.tail_masses[i])},{_f17(sol.residuals[i])},{int(sol.physical[i])}"
            )
        _emit("\n".join(rows), args.out)
    else:
        payload = {
            "family": args.family,
            "alpha": args.alpha,
            "beta": args.beta,
            "eigenvalues": [[float(z.real), float(z.imag)] for z in sol.eigenvalues],
            "axisDistance": [float(x) for x in sol.axis_distances],
            "tailMass": [float(x) for x in sol.tail_masses],
            "residual": [float(x) for x in sol.residuals],
            "physical": [bool(x) for x in sol.physical],
        }
        _emit(_json_dumps(payload), args.out)
    return EXIT_OK


def _cmd_scan(args) -> int:
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
    n = int(math.floor((args.alpha_max - args.alpha_min) / args.alpha_step + 0.5)) + 1
    alphas = args.alpha_min + args.alpha_step * np.arange(n)
    workers = int(os.environ.get("PACKETLAB_THREADS", "1"))
    scan = pencil_mod.quantization_scan(
        args.family, alphas, beta=args.beta, M=args.truncation, max_workers=workers
    )
    if args.output == "csv":
        _emit("\n".join(pencil_mod.scan_to_csv_rows(scan)), args.out)
    else:
        _emit(_json_dumps(pencil_mod.scan_to_dict(scan)), args.out)
    return EXIT_NUMERICAL if any(e is not None for e in scan.errors) else EXIT_OK


def _cmd_floor(args) -> int:
    problem = pencil_mod._family_problem(args.family, 0.0, 0.0, args.truncation)
    floor, state = pencil_mod.uncertainty_floor(problem.A, args.alpha)
    if args.output == "csv":
        _emit("alpha,floor\n" + f"{_f17(args.alpha)},{_f17(floor)}", args.out)
    else:
        _emit(_json_dumps({"alpha": args.alpha, "floor": floor, "state": _state_payload(state)}), args.out)
    return EXIT_OK


def _cmd_phase_min(args) -> int:
    G = args.grid
    if args.modulus_file:
        samples = np.asarray(json.loads(open(args.modulus_file).read()), dtype=float)
        r = variational.modulus_profile(samples)
    elif args.modulus == "uniform":
        r = variational.uniform_modulus(G)
    elif args.modulus == "vonmises":
        r = variational.vonmises_modulus(G, args.kappa)
    elif args.modulus == "half-cosine":
        r = variational.half_winding_modulus(G)
    else:
        r = variational.random_smooth_modulus(G, args.seed)
    profile, delta_l = variational.minimize_phase(r, args.winding)
    mean_l = variational.mean_l_of(r, profile)
    payload = {
        "winding": profile.slope,
        "offset": profile.offset,
        "fitResidual": profile.fit_residual,
        "deltaL": delta_l,
        "meanL": mean_l,
    }
    if args.output == "csv":
        _emit(
            "winding,offset,fitResidual,deltaL,meanL\n"
            + ",".join(_f17(payload[k]) for k in ("winding", "offset", "fitResidual", "deltaL", "meanL")),
            args.out,
        )
    else:
        _emit(_json_dumps(payload), args.out)
    return EXIT_OK


def _cmd_f_scan(args) -> int:
    if args.targets:
        targets = [float(t) for t in args.targets.split(",")]
    else:
        if not (math.isfinite(args.t_min) and math.isfinite(args.t_max)):
            raise ValueError("--t-min and --t-max must be finite")
        targets = np.linspace(args.t_min, args.t_max, args.t_count)
    table = variational.f_table(targets)
    if args.output == "csv":
        _emit("\n".join(table.to_csv_rows()), args.out)
    else:
        payload = [
            {"deltaPhiP": float(t), "f": float(f), "converged": bool(c)}
            for t, f, c in zip(table.delta_phi_p, table.f, table.converged)
        ]
        _emit(_json_dumps(payload), args.out)
    return EXIT_OK if bool(np.all(table.converged)) else EXIT_NUMERICAL


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SingularPencilError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PacketLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
