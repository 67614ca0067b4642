"""In-process span tracer for the benchmark's traced run.

Each layer of shelterplan is timed from outside: the tracer replaces a
layer's public functions with wrappers that record a span (name, start,
end, parent) around every call, keeps the spans in memory, and puts the
originals back when the run ends. Nothing in the program changes.

Names imported with ``from .x import f`` are separate bindings, so a
function is wrapped in every module that imports it, not only in the
module that defines it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

# Row families of the public model (README, "Row names in exported models").
ROW_FAMILIES = ("2a", "2b", "2c", "2d", "3b", "4a", "4b", "4c")

# Per-layer metrics in report order, with their units. Times and counts
# are per pass over the workload's commands; ``cli.import_s`` is paid once.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "domain.load_instance_s": "s",
    "domain.save_instance_s": "s",
    "datagen.generate_s": "s",
    "datagen.load_tables_s": "s",
    "model.build_s": "s",
    "model.to_scipy_s": "s",
    "model.cols": "count",
    "model.rows": "count",
    "model.nnz": "count",
    **{f"model.rows.{fam}": "count" for fam in ROW_FAMILIES},
    "model.write_mps_s": "s",
    "model.mps_mb": "MB",
    "solver.lp.root_s": "s",
    "solver.lp.node_s": "s",
    "solver.lp.iters": "count",
    "solver.lp.solves": "count",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.heuristic_s": "s",
    "solver.heuristic.calls": "count",
    "solver.heuristic.hits": "count",
    "solver.heuristic.hit_ratio": "ratio",
    "solver.repair_s": "s",
    "solver.incumbents": "count",
    "solver.verify_s": "s",
    "solver.verify.calls": "count",
    "solver.bnb_s": "s",
    "solver.bnb.self_s": "s",
    "solver.plan_cost": "cost",
    "solver.final_gap": "ratio",
    "scenarios.report_s": "s",
    "scenarios.overflow_timeseries.calls": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        # Set when a heuristic call returns; the next incumbent verify
        # before another LP or heuristic call makes that call a hit.
        self._pending_heuristic = False
        self.heuristic_hits = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._on_open(name, parent)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closing {span.name}")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.dur

    def _on_open(self, name: str, parent: int | None) -> None:
        if name in ("solver.lp", "solver.heuristic"):
            self._pending_heuristic = False
        elif name == "solver.verify" and self._in_bnb(parent) and self._pending_heuristic:
            self.heuristic_hits += 1
            self._pending_heuristic = False

    def _in_bnb(self, parent: int | None) -> bool:
        return parent is not None and self.spans[parent].name == "solver.bnb"

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_return(span, args, kwargs, result)`` may attach attributes to
        the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(self.spans[idx], args, kwargs, result)
                return result
            finally:
                self.close(idx)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Wrapped attributes that do not hold their original any more."""
        bad = []
        for owner, attr, original in self._installed:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad

    # -- hooks -----------------------------------------------------------------

    def note_heuristic(self, span, args, kwargs, result) -> None:
        self._pending_heuristic = True


def install(tracer: Tracer, pkg) -> None:
    """Wrap the public entry points of every shelterplan layer."""
    cli, domain, datagen, model, solver, scenarios = (
        pkg.cli, pkg.domain, pkg.datagen, pkg.model, pkg.solver, pkg.scenarios,
    )

    def on_linprog(span, args, kwargs, res):
        span.attrs["nit"] = int(getattr(res, "nit", 0) or 0)

    def on_build(span, args, kwargs, lp):
        span.attrs.update(
            cols=lp.n_cols, rows=lp.n_rows, nnz=lp.nnz, families=lp.counts_by_family()
        )

    def on_write_mps(span, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        span.attrs["bytes"] = os.path.getsize(path)

    def on_bnb(span, args, kwargs, sol):
        span.attrs.update(nodes=sol.node_count, objective=sol.objective, gap=sol.gap)

    for owner in (domain, cli):
        tracer.wrap(owner, "load_instance", "domain.load_instance")
        tracer.wrap(owner, "save_instance", "domain.save_instance")
    for owner in (datagen, cli, scenarios):
        tracer.wrap(owner, "generate_instance", "datagen.generate")
        tracer.wrap(owner, "load_default_tables", "datagen.load_tables")
    for owner in (model, cli, scenarios):
        tracer.wrap(owner, "build", "model.build", on_build)
    tracer.wrap(model.LinearProgram, "to_scipy", "model.to_scipy")
    tracer.wrap(model, "write_mps", "model.write_mps", on_write_mps)
    tracer.wrap(solver, "linprog", "solver.lp", on_linprog)
    tracer.wrap(solver, "schedule_heuristic", "solver.heuristic", tracer.note_heuristic)
    tracer.wrap(solver, "repair_expansion", "solver.repair")
    for owner in (solver, cli, scenarios):
        tracer.wrap(owner, "verify", "solver.verify")
        tracer.wrap(owner, "branch_and_bound", "solver.bnb", on_bnb)
    for attr in ("bed_sources", "expansion_percentages", "service_source_breakdown",
                 "overflow_timeseries"):
        for owner in (scenarios, cli):
            tracer.wrap(owner, attr, f"scenarios.{attr}")
    tracer.wrap(scenarios, "_solution_tables", "scenarios._solution_tables")


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call (calibration)."""

    class _Owner:
        @staticmethod
        def f():
            return None

    plain = _Owner.f
    t0 = time.perf_counter()
    for _ in range(samples):
        plain()
    t_plain = time.perf_counter() - t0

    tracer = Tracer()
    tracer.wrap(_Owner, "f", "calibration")
    wrapped = _Owner.f
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    t_wrapped = time.perf_counter() - t0
    tracer.restore()
    return max(t_wrapped - t_plain, 0.0) / samples


def self_check(tracer: Tracer) -> list[str]:
    """Problems with the recorded spans: open spans, negative self time."""
    problems = []
    if tracer._stack:
        problems.append(f"{len(tracer._stack)} spans left open")
    for span in tracer.spans:
        if span.dur < 0:
            problems.append(f"span {span.name} ends before it starts")
        if span.child_s > span.dur + 1e-9:
            problems.append(
                f"children of {span.name} cover {span.child_s:.6f} s > {span.dur:.6f} s"
            )
    return problems


def layer_metrics(tracer: Tracer, passes: int, wall_s: float, import_s: float) -> dict:
    """Per-layer metrics from the recorded spans, per pass of the workload."""
    spans = tracer.spans
    tot: dict[str, float] = {}
    count: dict[str, int] = {}
    for span in spans:
        tot[span.name] = tot.get(span.name, 0.0) + span.dur
        count[span.name] = count.get(span.name, 0) + 1

    def total(name: str) -> float:
        return tot.get(name, 0.0)

    # The first LP under each branch and bound is its root relaxation.
    root_s = node_s = 0.0
    rooted: set[int | None] = set()
    lp_spans = [s for s in spans if s.name == "solver.lp"]
    for s in lp_spans:
        if s.parent in rooted:
            node_s += s.dur
        else:
            rooted.add(s.parent)
            root_s += s.dur
    bnb = [s for s in spans if s.name == "solver.bnb"]
    builds = [s for s in spans if s.name == "model.build"]
    bnb_s = sum(s.dur for s in bnb)
    nodes = sum(s.attrs["nodes"] for s in bnb)
    heur_calls = count.get("solver.heuristic", 0)

    sums = {
        "cli.self_s": sum(s.dur - s.child_s for s in spans if s.name.startswith("cli.")),
        "domain.load_instance_s": total("domain.load_instance"),
        "domain.save_instance_s": total("domain.save_instance"),
        "datagen.generate_s": total("datagen.generate"),
        "datagen.load_tables_s": total("datagen.load_tables"),
        "model.build_s": total("model.build"),
        "model.to_scipy_s": total("model.to_scipy"),
        "model.cols": sum(s.attrs["cols"] for s in builds),
        "model.rows": sum(s.attrs["rows"] for s in builds),
        "model.nnz": sum(s.attrs["nnz"] for s in builds),
        **{
            f"model.rows.{fam}": sum(s.attrs["families"].get(fam, 0) for s in builds)
            for fam in ROW_FAMILIES
        },
        "model.write_mps_s": total("model.write_mps"),
        "model.mps_mb": sum(s.attrs["bytes"] for s in spans if s.name == "model.write_mps") / 1e6,
        "solver.lp.root_s": root_s,
        "solver.lp.node_s": node_s,
        "solver.lp.iters": sum(s.attrs["nit"] for s in lp_spans),
        "solver.lp.solves": len(lp_spans),
        "solver.nodes": nodes,
        "solver.heuristic_s": total("solver.heuristic"),
        "solver.heuristic.calls": heur_calls,
        "solver.heuristic.hits": tracer.heuristic_hits,
        "solver.repair_s": total("solver.repair"),
        "solver.incumbents": sum(
            1 for s in spans if s.name == "solver.verify" and tracer._in_bnb(s.parent)
        ),
        "solver.verify_s": total("solver.verify"),
        "solver.verify.calls": count.get("solver.verify", 0),
        "solver.bnb_s": bnb_s,
        "solver.bnb.self_s": sum(s.dur - s.child_s for s in bnb),
        "solver.plan_cost": sum(s.attrs["objective"] for s in bnb),
        "scenarios.report_s": sum(
            s.dur for s in spans
            if s.name.startswith("scenarios.")
            and (s.parent is None or not spans[s.parent].name.startswith("scenarios."))
        ),
        "scenarios.overflow_timeseries.calls": count.get("scenarios.overflow_timeseries", 0),
        "trace.spans": len(spans),
    }
    m = {"cli.import_s": import_s}
    m.update({k: v / passes for k, v in sums.items()})
    m.update({
        "solver.nodes_per_s": nodes / bnb_s if bnb_s > 0 else 0.0,
        "solver.heuristic.hit_ratio": tracer.heuristic_hits / heur_calls if heur_calls else 0.0,
        "solver.final_gap": sum(s.attrs["gap"] for s in bnb) / len(bnb) if bnb else 0.0,
        "trace.overhead_frac": span_cost_s() * len(spans) / wall_s if wall_s > 0 else 0.0,
    })
    return {name: m[name] for name in PER_LAYER}
