"""The four benchmark workloads.

Each workload draws all of its inputs from the seed, hands the library only
those inputs, and checks every item's outputs.  An item is the unit that
`items_per_s` counts and whose latency `item_p50_ms`/`item_tail_ms` report.
Items come in fixed cycles (`cycle`), so every run mixes the item kinds in
the same proportions whatever the seed; the measuring loop only stops at the
end of a cycle.

Library calls always go through the package namespace (``pl.name``), looked
up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import packetlab as pl

PI_SQRT3 = math.pi / math.sqrt(3.0)

# Target grid of acceptance criterion 5, as fractions of pi/sqrt(3).
F_FRACTIONS = (0.05, 0.1, 0.15, 0.25, 0.4, 0.55, 0.7, 0.85, 0.9, 0.95, 0.97, 0.99)
# Small f-table loaded by `states` and `cli` before timing.
SETUP_F_FRACTIONS = (0.1, 0.4, 0.7, 0.95)


class CheckFailed(Exception):
    """An item's output broke the bound its workload checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def fractional(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """n values in [lo, hi], each at least 0.05 from an integer."""
    out = []
    while len(out) < n:
        a = float(rng.uniform(lo, hi))
        if abs(a - round(a)) >= 0.05:
            out.append(a)
    return out


def interleave(a: list, b: list) -> list:
    out = []
    for k in range(max(len(a), len(b))):
        out += a[k:k + 1] + b[k:k + 1]
    return out


def align_phase(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    z = np.vdot(v, ref)
    return v * (z / abs(z))


class Scan:
    """One item is one alpha point, sent as a one-point `quantization_scan`.

    Why: this is the paper's result (minimum-uncertainty packets only at
    integer <L>), and `pencil` does nearly all of the work.  A circle M=128
    point is dominated by the dense QZ, an oscillator M=64 point by the
    imaginary-axis sweep, so a QZ change and a sweep change move different
    item kinds.  Should leave alone: `variational`, `css`, `bessel`,
    `moments` (never called).

    The cycle runs four circle M=128 points per circle M=64 point and
    oscillator point, so both the median and the tail item are M=128 points
    at every run length this benchmark uses.

    Check: a circle point is flagged exactly when alpha is an integer, at
    both M.  Oscillator points fail only on a solver error; their flags are
    recorded but not gated (acceptance criterion 7 is their gate).
    """

    name = "scan"
    params = {"circle_M": [64, 128], "oscillator_M": 64, "G": None}
    CYCLE = ("circle128", "circle64", "circle128", "oscillator64", "circle128", "circle128")
    KINDS = {"circle128": ("circle", 128), "circle64": ("circle", 64), "oscillator64": ("oscillator", 64)}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        integers = [float(k) for k in rng.permutation(np.arange(-2, 3))]
        circle = interleave(integers, fractional(rng, -2.0, 2.0, 5))
        osc = interleave([float(k) for k in rng.permutation(4)], fractional(rng, 0.0, 3.0, 4))
        self.alphas = {"circle128": circle, "circle64": circle, "oscillator64": osc}
        self.flags: dict[str, dict[float, bool]] = {k: {} for k in self.KINDS}

    def warmup(self) -> None:
        pl.quantization_scan("circle", [0.5], M=64)
        pl.quantization_scan("oscillator", [0.5], M=64)

    def cycle(self, k: int) -> list:
        items, seen = [], {}
        for kind in self.CYCLE:
            j = k * self.CYCLE.count(kind) + seen.get(kind, 0)
            seen[kind] = seen.get(kind, 0) + 1
            alphas = self.alphas[kind]
            items.append((kind, alphas[j % len(alphas)]))
        return items

    @staticmethod
    def kind(item) -> str:
        return item[0]

    def run(self, item) -> None:
        kind, alpha = item
        family, M = self.KINDS[kind]
        scan = pl.quantization_scan(family, [alpha], M=M)
        check(scan.errors[0] is None, f"{kind} alpha={alpha}: {scan.errors[0]}")
        flagged = bool(scan.flagged[0])
        self.flags[kind][alpha] = flagged
        if family == "circle":
            check(flagged == (alpha == round(alpha)),
                  f"{kind} alpha={alpha}: flagged={flagged}")

    def probe(self, item) -> None:
        """QZ-only solve of the item's pencil, timed as `pencil.qz_ms`."""
        kind, alpha = item
        family, M = self.KINDS[kind]
        make = pl.circle_problem if family == "circle" else pl.oscillator_problem
        pl.solve_pencil(make(alpha, 0.0, M), axis_sweep=False)

    def outcomes(self) -> dict:
        out = {}
        for kind, flags in self.flags.items():
            out[kind] = {
                "alphas": sorted(flags),
                "flagged": sorted(a for a, f in flags.items() if f),
            }
            if kind.startswith("circle"):
                ints = sorted(a for a in flags if a == round(a))
                out[kind]["flags_equal_integers"] = out[kind]["flagged"] == ints
        return out


class FTableWork:
    """One item is one `f_table` call on a seed-jittered criterion-5 grid.

    Why: the L-BFGS-B penalty loop in `variational` does almost all of the
    work; `moments` runs once per target.  Should leave alone: `pencil`
    (never called), so a pencil change must show no movement here.

    Check: every target converged, the table is monotone, and both
    extrapolated endpoints are within the criterion-5 tolerances.
    """

    name = "ftable"
    params = {"M": None, "G": 512, "n_modulus": 32, "targets": len(F_FRACTIONS)}
    JITTER = 0.005

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.grids: list[list[float]] = []
        self.endpoints: list[tuple[float, float]] = []

    def _grid(self, k: int) -> list[float]:
        while len(self.grids) <= k:
            u = self.rng.uniform(-1.0, 1.0, len(F_FRACTIONS))
            self.grids.append([f * (1.0 + self.JITTER * x) * PI_SQRT3 for f, x in zip(F_FRACTIONS, u)])
        return self.grids[k]

    def warmup(self) -> None:
        pl.f_table([0.5 * PI_SQRT3])

    def cycle(self, k: int) -> list:
        return [self._grid(k)]

    @staticmethod
    def kind(item) -> str:
        return "table"

    def run(self, targets) -> None:
        table = pl.f_table(targets)
        left = pl.extrapolate_to_zero(table, n_points=3)
        right = pl.extrapolate_to_flat(table, n_points=3)
        self.endpoints.append((left, right))
        check(bool(np.all(table.converged)), "f_table: a target did not converge")
        check(table.is_monotone, "f_table: table is not monotone")
        check(abs(left - 1.0) <= 0.02, f"f_table: f(0) -> {left}")
        check(abs(right - 4.375) <= 0.05 * 4.375, f"f_table: f(max) -> {right}")

    def outcomes(self) -> dict:
        lefts = [e[0] for e in self.endpoints]
        rights = [e[1] for e in self.endpoints]
        return {
            "tables": len(self.endpoints),
            "f0_range": [min(lefts), max(lefts)] if lefts else None,
            "fmax_range": [min(rights), max(rights)] if rights else None,
        }


def setup_f_table() -> "pl.FTable":
    """Small f-table, round-tripped through its CSV form as a user would load it."""
    table = pl.f_table([f * PI_SQRT3 for f in SETUP_F_FRACTIONS])
    return pl.read_f_table(table.to_csv_rows())


class States:
    """One item is one state taken through the analysis pipeline.

    The state is a seeded `random_state` (M=32) or a `css_state` (M=64) with
    S and l drawn from the seed; it goes through `moments`,
    `relation_margins` (f-table loaded before timing), a grid round trip and
    a JSON round trip.  CSS states add `css_moments`, `eigenvector_at`
    against `css_state`, and `uncertainty_floor`.  Each item also runs one
    `minimize_phase` on a smooth modulus, at integer or half-integer winding.

    Why: the work is many ~0.1-5 ms calls, so `moments`, `css`, `bessel` and
    `states` dominate and per-call overhead is visible.  `pencil` appears only
    through `eigenvector_at` (the sweep kernel without QZ), so a batched-sweep
    change that slows single-point calls shows here.  The half-integer
    `minimize_phase` sets the tail.  Should leave alone: the QZ path of
    `pencil` (never called).

    The cycle makes CSS items with integer winding half of all items, so
    the median is one of them.  Half-integer windings cost 5-270 ms
    depending on the modulus; a seed-drawn set of moduli would make the tail
    depend on how many slow ones a seed happens to draw.  They therefore use
    the twenty moduli of acceptance criterion 6 at both signs, in a
    seed-drawn order; integer windings use seed-drawn moduli.

    Check: the bounds of acceptance criteria 2, 3, 4 and 6 applied to the
    item.
    """

    name = "states"
    params = {"random_M": 32, "css_M": 64, "G": 512}
    CYCLE = (("css", "int"), ("random", "int"), ("css", "int"), ("random", "half"),
             ("css", "int"), ("random", "int"), ("css", "int"), ("css", "half"))
    HALF_INPUTS = tuple((s, w) for s in range(100, 120) for w in (0.5, -0.5))
    POOL = 4096

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        n = self.POOL
        self.state_seed = rng.integers(0, 2**31, n)
        self.S = rng.uniform(0.25, 4.0, n)
        self.ell = rng.integers(-3, 4, n)
        self.floor_frac = rng.uniform(0.05, 0.95, n)
        self.modulus_seed = rng.integers(0, 2**31, n)
        self.int_winding = rng.integers(-2, 3, n)
        self.half_order = rng.permutation(len(self.HALF_INPUTS))
        self.table = setup_f_table()
        self.w32 = pl.ModeWindow.symmetric(32)
        self.w64 = pl.ModeWindow.symmetric(64)
        self.counts = {"random": 0, "css": 0, "int": 0, "half": 0}

    def warmup(self) -> None:
        for item in self.cycle(self.POOL // len(self.CYCLE) - 1):
            self.run(item)
        self.counts = dict.fromkeys(self.counts, 0)

    def cycle(self, k: int) -> list:
        halves = [kind for kind in self.CYCLE if kind[1] == "half"]
        items = []
        for j, (state_kind, winding_kind) in enumerate(self.CYCLE):
            i = len(self.CYCLE) * k + j
            if winding_kind == "int":
                phase_input = (int(self.modulus_seed[i]), int(self.int_winding[i]))
            else:
                h = len(halves) * k + sum(1 for x in items if x[1] == "half")
                phase_input = self.HALF_INPUTS[self.half_order[h % len(self.HALF_INPUTS)]]
            items.append((state_kind, winding_kind, i % self.POOL, phase_input))
        return items

    @staticmethod
    def kind(item) -> str:
        return f"{item[0]}-{item[1]}"

    def _pipeline(self, state, window):
        pl.moments(state)
        margins = pl.relation_margins(state, self.table)
        back = pl.from_grid(pl.to_grid(state), window)
        check(float(np.max(np.abs(back.coeffs - state.coeffs))) <= 1e-12, "grid round trip")
        again = pl.state_from_json(pl.state_to_json(state))
        check(float(np.max(np.abs(again.coeffs - state.coeffs))) <= 1e-14, "JSON round trip")
        return {m.relation: m for m in margins}

    def run(self, item) -> None:
        state_kind, winding_kind, i, (modulus_seed, w) = item
        if state_kind == "random":
            state = pl.random_state(self.w32, int(self.state_seed[i]))
            margins = self._pipeline(state, self.w32)
            # criterion 4
            for rel in (pl.Relation.COS_RELATION, pl.Relation.SIN_RELATION, pl.Relation.COMBINED_PHI):
                check(margins[rel].satisfied, f"random state {i}: {rel.value} violated")
        else:
            S, ell = float(self.S[i]), int(self.ell[i])
            params = pl.CssParams(S, ell)
            state = pl.css_state(params, self.w64)
            self._pipeline(state, self.w64)
            # criterion 2
            rep = pl.css_moments(params, self.w64)
            sat = abs(rep.delta_l * math.sqrt(rep.var_sin) - 0.5 * rep.mean_cos)
            check(sat <= 1e-11, f"css S={S} l={ell}: saturation defect {sat:.2e}")
            problem = pl.circle_problem(float(ell), M=64)
            vec, _ = pl.eigenvector_at(problem, S)
            diff = float(np.max(np.abs(align_phase(vec.coeffs, state.coeffs) - state.coeffs)))
            check(diff <= 1e-8, f"css S={S} l={ell}: eigenvector differs by {diff:.2e}")
            # criterion 3
            u = float(self.floor_frac[i])
            floor, _ = pl.uncertainty_floor(problem.A, ell + u)
            check(abs(floor - math.sqrt(u * (1.0 - u))) <= 1e-9, f"floor at {ell + u}: {floor}")
        self.counts[state_kind] += 1

        # criterion 6
        r = pl.random_smooth_modulus(512, modulus_seed)
        profile, dl = pl.minimize_phase(r, w)
        if winding_kind == "int":
            check(profile.fit_residual <= 1e-6, f"winding {w}: fit residual {profile.fit_residual:.2e}")
            mean_l = pl.mean_l_of(r, profile)
            check(abs(mean_l - w) <= 1e-8, f"winding {w}: <L> = {mean_l}")
        else:
            check(dl >= 0.5 - 1e-9, f"winding {w}: Delta L = {dl} < 1/2")
        self.counts[winding_kind] += 1

    def outcomes(self) -> dict:
        return {"items_by_kind": dict(self.counts)}


class Cli:
    """One item is one `packetlab` subcommand run in a fresh subprocess.

    One client runs them sequentially in a closed loop: `css`, `moments`,
    `relations --f-table`, `pencil`, `floor`, `phase-min`, a short `scan`, a
    short `f-scan`, and `css --ell 0.5`, which must exit 2.

    Why: the only workload that pays `import packetlab` on every item (most
    of each invocation), so import-path changes show here and only in
    `setup_s` elsewhere; it also covers argument handling and 17-digit
    emission.  Every layer runs inside the children, so its per-layer numbers
    are the subprocess wall times per subcommand and the import profile.

    Check: each run exits with the expected code, and its stdout is
    byte-identical to the first run with the same arguments.
    """

    name = "cli"
    params = {"M": 64, "G": 512}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        state = pl.random_state(pl.ModeWindow.symmetric(32), int(rng.integers(0, 2**31)))
        (workdir / "state.json").write_text(pl.state_to_json(state))
        (workdir / "ftable.csv").write_text("\n".join(setup_f_table().to_csv_rows()) + "\n")
        S = f"{rng.uniform(0.25, 4.0):.6f}"
        ell = str(int(rng.integers(-3, 4)))
        scan_lo = int(rng.integers(-20, 19)) / 10
        targets = sorted(rng.uniform(0.2, 0.8, 2) * PI_SQRT3)
        self.commands = [
            ("css", ["css", "--S", S, "--ell", ell], 0),
            ("scan", ["scan", "--family", "circle", "--alpha-min", f"{scan_lo:.1f}",
                      "--alpha-max", f"{scan_lo + 0.2:.1f}", "--alpha-step", "0.1"], 0),
            ("moments", ["moments", "--state", "state.json"], 0),
            ("relations", ["relations", "--state", "state.json", "--f-table", "ftable.csv"], 0),
            ("f_scan", ["f-scan", "--targets", ",".join(f"{t:.6f}" for t in targets)], 0),
            ("pencil", ["pencil", "--family", "circle", "--alpha", f"{rng.uniform(-2.0, 2.0):.4f}"], 0),
            ("floor", ["floor", "--alpha", f"{rng.uniform(-2.0, 2.0):.4f}"], 0),
            ("phase_min", ["phase-min", "--winding", str(int(rng.integers(-2, 3))),
                           "--modulus", "random", "--seed", str(int(rng.integers(0, 10**6)))], 0),
            ("css_bad_ell", ["css", "--S", S, "--ell", f"{int(ell) + 0.5}"], 2),
        ]
        self.reference: dict[str, bytes] = {}
        self.cwd = workdir

    def _invoke(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "packetlab", *argv],
            cwd=self.cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120,
        )

    def warmup(self) -> None:
        self._invoke(["floor", "--alpha", "0.25"])

    def cycle(self, k: int) -> list:
        return self.commands

    @staticmethod
    def kind(item) -> str:
        return item[0]

    @staticmethod
    def span_name(item) -> str:
        return f"cli.{item[0]}"

    def run(self, item) -> None:
        name, argv, expected = item
        proc = self._invoke(argv)
        check(proc.returncode == expected, f"{name}: exit {proc.returncode}, expected {expected}")
        ref = self.reference.setdefault(name, proc.stdout)
        check(proc.stdout == ref, f"{name}: output differs from its first run")

    def outcomes(self) -> dict:
        return {"commands": {name: " ".join(argv) for name, argv, _ in self.commands}}


WORKLOADS = {w.name: w for w in (Scan, FTableWork, States, Cli)}
