"""Layer timing for the traced run.

Wraps wpirc's functions at the layer boundaries and aggregates spans in
memory: per span name the call count, the total time and the self time
(total minus the time of the spans it encloses), plus the time each span
spends in each child span.  A wrapper is installed under every name that
any loaded ``wpirc`` module binds to the original function, because
``sim``, ``benchmark`` and the package import ``solve``, ``eq_solve``,
``radar_mi`` and the rest by name; patching only the defining module would
miss those calls.  A function that no longer exists is reported as an
absent layer, and every metric that depends on it reads 0.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, defining module, attribute, modules to patch in; None = all)
TARGETS = (
    ("cli.main", "wpirc.cli", "main", None),
    ("sim.run_sweep", "wpirc.sim", "run_sweep", None),
    ("sim.sample_channel", "wpirc.sim", "sample_channel", None),
    ("sim.write_csv", "wpirc.sim", "write_csv", None),
    ("solver.solve", "wpirc.solver", "solve", None),
    ("solver.inner_allocation", "wpirc.solver", "inner_allocation", None),
    ("solver._gamma_profile", "wpirc.solver", "_gamma_profile", None),
    ("benchmark.eq_solve", "wpirc.benchmark", "eq_solve", None),
    # rate evaluations are counted where the solver layers make them
    ("model.radar_mi", "wpirc.model", "radar_mi", ("wpirc.solver", "wpirc.benchmark")),
    ("model.comm_rate", "wpirc.model", "comm_rate", ("wpirc.solver", "wpirc.benchmark")),
    ("certify.equal_power_demand_bound", "wpirc.certify", "equal_power_demand_bound", None),
    ("certify.brute_force_oracle", "wpirc.certify", "brute_force_oracle", None),
    ("certify.kkt_certificate", "wpirc.certify", "kkt_certificate", None),
)
# The shared outer time-split search gets its span name from the scheme
# that called it: "solver.outer" under solve, "benchmark.outer" under
# eq_solve.  Its allocator argument is wrapped as "<scheme>.allocator".
OUTER = ("wpirc.solver", "solve_with_allocation")
SCHEMES = {"solver.solve": "solver", "benchmark.eq_solve": "benchmark"}
# What a call's result says about the work it did.
OUTCOMES = {
    "solver.solve": lambda sol: getattr(getattr(sol, "status", None), "value", "unknown"),
    "solver.inner_allocation": lambda res: getattr(res, "active", "unknown"),
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, seconds in child spans]
        self.count: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.under: defaultdict = defaultdict(float)  # (parent, child) -> seconds
        self.outcome: Counter = Counter()  # (span name, outcome) -> calls
        self.absent: list[str] = []

    def call(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            self.count[name] += 1
            self.total[name] += dt
            self.self_time[name] += dt - frame[1]
            if self.stack:
                parent = self.stack[-1]
                parent[1] += dt
                self.under[parent[0], name] += dt

    def wrap(self, name, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if outcome is not None:
                self.outcome[name, outcome(result)] += 1
            return result

        return wrapper

    def wrap_outer(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scheme = next(
                (SCHEMES[f[0]] for f in reversed(self.stack) if f[0] in SCHEMES), "solver"
            )
            bound = sig.bind(*args, **kwargs)
            if "allocator" in bound.arguments:
                bound.arguments["allocator"] = self.wrap(
                    f"{scheme}.allocator", bound.arguments["allocator"]
                )
            return self.call(f"{scheme}.outer", fn, bound.args, bound.kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target while the block runs, then restore it."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "wpirc" or n.startswith("wpirc."))
        ]
        targets = [(name, mod, attr, only, self.wrap) for name, mod, attr, only in TARGETS]
        targets.append(("solver.outer", *OUTER, None, lambda _, fn: self.wrap_outer(fn)))
        patches = []
        try:
            for name, mod, attr, only, make in targets:
                original = getattr(sys.modules.get(mod), attr, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = make(name, original)
                for m in modules:
                    if only is not None and m.__name__ not in only:
                        continue
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            patches.append((m, key, original))
            yield self
        finally:
            for m, key, original in reversed(patches):
                setattr(m, key, original)


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, op_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced phase whose ops took ``op_seconds``."""
    c, t = tr.count, tr.total
    solves = c["solver.solve"]
    inner = c["solver.inner_allocation"]
    rate_names = ("model.radar_mi", "model.comm_rate")
    sweep = t["sim.run_sweep"]
    sweep_solving = tr.under["sim.run_sweep", "solver.solve"] + tr.under[
        "sim.run_sweep", "benchmark.eq_solve"
    ]
    certify_names = ("certify.equal_power_demand_bound", "certify.brute_force_oracle")
    return {
        "solver.inner_allocation.calls_per_solve": (_per(inner, solves), "count"),
        "solver.inner_allocation.ms_per_call": (1e3 * _per(t["solver.inner_allocation"], inner), "ms"),
        "solver.inner_allocation.both_share": (
            _per(tr.outcome["solver.inner_allocation", "both"], inner),
            "share",
        ),
        "solver._gamma_profile.calls_per_inner": (_per(c["solver._gamma_profile"], inner), "count"),
        "solver._gamma_profile.us_per_call": (
            1e6 * _per(t["solver._gamma_profile"], c["solver._gamma_profile"]),
            "us",
        ),
        "solver.outer.allocator_calls_per_solve": (
            _per(c["solver.allocator"], c["solver.outer"]),
            "count",
        ),
        "solver.outer.self_ms": (1e3 * _per(tr.self_time["solver.outer"], c["solver.outer"]), "ms"),
        "solver.infeasible_share": (_per(tr.outcome["solver.solve", "infeasible"], solves), "share"),
        "model.rate_evals_per_solve": (
            _per(sum(c[n] for n in rate_names), solves + c["benchmark.eq_solve"]),
            "count",
        ),
        "model.rate_eval_share": (_per(sum(t[n] for n in rate_names), op_seconds), "share"),
        "benchmark.eq_solve.ms_per_call": (
            1e3 * _per(t["benchmark.eq_solve"], c["benchmark.eq_solve"]),
            "ms",
        ),
        "benchmark.eq_solve.allocator_calls_per_solve": (
            _per(c["benchmark.allocator"], c["benchmark.outer"]),
            "count",
        ),
        **{
            f"{name}.ms": (1e3 * _per(t[name], c[name]), "ms")
            for name in (*certify_names, "certify.kkt_certificate")
        },
        "certify.share": (_per(sum(t[n] for n in certify_names), op_seconds), "share"),
        "sim.sample_channel.ms": (1e3 * _per(t["sim.sample_channel"], c["sim.sample_channel"]), "ms"),
        "sim.write_csv.ms": (1e3 * _per(t["sim.write_csv"], c["sim.write_csv"]), "ms"),
        "sim.self_share": (_per(sweep - sweep_solving, sweep), "share"),
        "cli.self_ms": (1e3 * _per(tr.self_time["cli.main"], c["cli.main"]), "ms"),
    }
