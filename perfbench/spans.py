"""Spans around the public functions of packetlab, recorded from outside.

`Tracer.install` replaces every public function of the library modules listed
in LAYERS with a wrapper that records one span per call: name, tag, start,
end, parent span and item id.  Every reference to the function in any
packetlab namespace is replaced, so calls between modules (``pencil`` calling
``operators.build``) are traced as well as calls from the benchmark.  Spans
stay in memory until the run ends; `per_layer_metrics` reduces them to the
numbers the benchmark reports, and `Tracer.dump` writes them out.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("states", "operators", "bessel", "css", "moments", "pencil", "variational")

# Subcommands of the cli workload, by metric name.
CLI_COMMANDS = (
    "css", "moments", "relations", "pencil", "floor",
    "phase_min", "scan", "f_scan", "css_bad_ell",
)


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "item", "error", "counts")

    def __init__(self, name, tag, parent, item):
        self.name = name
        self.tag = tag
        self.parent = parent
        self.item = item
        self.start = self.end = 0.0
        self.error = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _family(problem) -> str:
    return "circle" if problem.window.is_symmetric else "oscillator"


def _solve_tag(args, kwargs):
    tag = _family(args[0])
    return tag if kwargs.get("axis_sweep", True) else tag + ".qz"


def _winding_tag(args, kwargs):
    winding = float(args[1] if len(args) > 1 else kwargs["winding"])
    return "int" if winding == round(winding) else "half"


# Per-function tags (from the arguments) and counts (from the result).
TAGS = {
    "pencil.solve_pencil": _solve_tag,
    "variational.minimize_phase": _winding_tag,
}
COUNTS = {
    "pencil.solve_pencil": lambda sol: {"certified": int(sol.swept.sum())},
    "variational.f_table": lambda table: {
        "targets": int(table.f.size),
        "converged": int(table.converged.sum()),
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.item = None
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str, tag=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, tag, parent, self.item)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tag_of = TAGS.get(name)
        count_of = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, tag_of(args, kwargs) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
            if count_of:
                span.counts = count_of(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of LAYERS wherever packetlab binds them."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"packetlab.{layer}"]
            for fname, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not fname.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "packetlab" and not modname.startswith("packetlab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self, path) -> None:
        rows = [
            [s.name, s.tag, s.start, s.end, s.parent, s.item, s.error, s.counts]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "tag", "start", "end", "parent", "item", "error", "counts"],
                 "spans": rows},
                fh,
            )


def self_times(spans: list[Span]) -> list[float]:
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(spans: list[Span], n_items: int) -> dict[str, tuple[float, str]]:
    """Reduce the spans of the traced phase to (value, unit) per metric.

    A layer the workload never calls reports 0, which is itself the
    prediction for workloads that should leave that layer alone.
    """
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durs(name, tag=None):
        return [spans[i].duration for i in by_name.get(name, ())
                if tag is None or spans[i].tag == tag]

    def mean_ms(name, **kw):
        return 1e3 * _mean(durs(name, **kw))

    def mean_us(name, **kw):
        return 1e6 * _mean(durs(name, **kw))

    per_item = max(n_items, 1)
    m: dict[str, tuple[float, str]] = {}

    m["operators.build_ms"] = (mean_ms("operators.build"), "ms")
    builds = sum(1 for i in by_name.get("operators.build", ()) if spans[i].item is not None)
    m["operators.builds"] = (builds / per_item, "count")

    # Full solves (inside scan points) against the QZ-only probe solves.
    solves = [i for i in by_name.get("pencil.solve_pencil", ()) if not spans[i].tag.endswith(".qz")]
    probes = [i for i in by_name.get("pencil.solve_pencil", ()) if spans[i].tag.endswith(".qz")]
    sweep_in: dict[int, list[float]] = {i: [] for i in solves}
    for i in by_name.get("pencil.smallest_singular_pair", ()):
        p = spans[i].parent
        if p in sweep_in:
            sweep_in[p].append(spans[i].duration)
    points = sum(len(v) for v in sweep_in.values())
    certified = sum(spans[i].counts["certified"] for i in solves if spans[i].counts)

    def sweep_ms(family=None):
        return 1e3 * _mean(
            sum(sweep_in[i]) for i in solves if family is None or spans[i].tag == family
        )

    qz = 1e3 * _mean(spans[i].duration for i in probes)
    solve = 1e3 * _mean(spans[i].duration for i in solves)
    m["pencil.solve_ms"] = (solve, "ms")
    m["pencil.qz_ms"] = (qz, "ms")
    m["pencil.sweep_ms"] = (sweep_ms(), "ms")
    m["pencil.solve_remainder_ms"] = (solve - qz - sweep_ms() if solves else 0.0, "ms")
    for fam in ("circle", "oscillator"):
        m[f"pencil.qz_ms.{fam}"] = (mean_ms("pencil.solve_pencil", tag=fam + ".qz"), "ms")
        m[f"pencil.sweep_ms.{fam}"] = (sweep_ms(fam), "ms")
    m["pencil.sweep_points"] = (points / len(solves) if solves else 0.0, "count")
    m["pencil.sweep_certified"] = (certified / len(solves) if solves else 0.0, "count")
    m["pencil.sweep_certified_frac"] = (certified / points if points else 0.0, "frac")
    m["pencil.eigenvector_at_ms"] = (mean_ms("pencil.eigenvector_at"), "ms")
    m["pencil.floor_us"] = (mean_us("pencil.uncertainty_floor"), "us")

    m["moments.moments_us"] = (mean_us("moments.moments"), "us")
    m["moments.relation_margins_us"] = (mean_us("moments.relation_margins"), "us")
    # the gamma-minimized spread kernel behind delta_phi_p, moments,
    # css_moments and every f_table target
    m["moments.delta_phi_p_us"] = (mean_us("moments.minimized_second_moment"), "us")

    m["css.state_us"] = (mean_us("css.css_state"), "us")
    m["css.moments_us"] = (mean_us("css.css_moments"), "us")
    m["bessel.ratios_us"] = (mean_us("bessel.bessel_i_ratios"), "us")

    m["states.random_state_us"] = (mean_us("states.random_state"), "us")
    m["states.grid_roundtrip_us"] = (mean_us("states.to_grid") + mean_us("states.from_grid"), "us")
    m["states.json_roundtrip_us"] = (
        mean_us("states.state_to_json") + mean_us("states.state_from_json"), "us")

    m["variational.minimize_phase_int_ms"] = (mean_ms("variational.minimize_phase", tag="int"), "ms")
    m["variational.minimize_phase_half_ms"] = (mean_ms("variational.minimize_phase", tag="half"), "ms")
    m["variational.minimize_phase_failed"] = (
        sum(1 for i in by_name.get("variational.minimize_phase", ()) if spans[i].error), "count")
    tables = [spans[i] for i in by_name.get("variational.f_table", ()) if spans[i].counts]
    targets = sum(t.counts["targets"] for t in tables)
    m["variational.f_table_target_ms"] = (
        1e3 * sum(t.duration for t in tables) / targets if targets else 0.0, "ms")
    m["variational.f_table_converged_frac"] = (
        sum(t.counts["converged"] for t in tables) / targets if targets else 0.0, "frac")

    for cmd in CLI_COMMANDS:
        d = durs(f"cli.{cmd}")
        m[f"cli.{cmd}_ms"] = (1e3 * statistics.median(d) if d else 0.0, "ms")

    # self time inside items only, so probe calls between items do not count
    own = self_times(spans)
    for layer in LAYERS + ("bench",):
        total = sum(own[i] for i, s in enumerate(spans)
                    if s.item is not None and s.name.split(".")[0] == layer)
        m[f"{layer}.self_ms_per_item"] = (1e3 * total / per_item, "ms")
    return m


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (us) from ``python -X importtime`` output.

    Returns the cumulative time of every top-level-or-nested module and, for
    each, the module whose import first pulled it in (children are printed
    before their parent, one indentation level deeper).
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((name.strip(), int(cum), depth))
    cumulative, parent = {}, {}
    for k, (name, cum, depth) in enumerate(rows):
        cumulative.setdefault(name, cum)
        for pname, _, pdepth in rows[k + 1:]:
            if pdepth < depth:
                parent.setdefault(name, pname)
                break
    return {"cumulative_us": cumulative, "imported_by": parent}


def first_packetlab_importer(profile: dict, module: str):
    """The packetlab module on whose import ``module`` was first loaded."""
    name = module
    while name in profile["imported_by"]:
        name = profile["imported_by"][name]
        if name.startswith("packetlab."):
            return name
    return None
