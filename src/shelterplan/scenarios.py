"""Experiment grid, replication protocol, and solution metrics.

Reproduces the sensitivity-analysis axes (arrival volume, service duration,
abandonment, pandemic capacity shock) at desk scale by default: youth counts
divided by ten on a 60-day horizon with bed stocks scaled to match, so the
whole grid solves in minutes. Replications use common random numbers: every
scenario arm shares the per-youth substreams of its seed, so level-to-level
comparisons are low-variance.

All metrics are recomputed from (instance, solution) pairs alone, never from
solver internals, so any serialized solution can be re-reported.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .datagen import DataTables, GenerationConfig, generate_instance, load_default_tables
from .domain import (
    BED_SERVICE_ID,
    HOUSING,
    INCOMPATIBILITY,
    REFERRAL,
    ProblemInstance,
)
from .model import build, index_values
from .solver import Solution, SolverConfig, branch_and_bound, verify

DESK_BASE = GenerationConfig(n_youth=50, horizon_T=60, bed_scale=0.1)
FULL_BASE = GenerationConfig(n_youth=500, horizon_T=180, bed_scale=1.0)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    overrides: Mapping[str, object]
    seeds: tuple[int, ...]

    def config(self, base: GenerationConfig, seed: int) -> GenerationConfig:
        return replace(base, seed=seed, **dict(self.overrides))


def experiment_grid(base: GenerationConfig, seeds: Sequence[int]) -> list[ScenarioSpec]:
    """The sensitivity grid: base plus one-axis deviations and the pandemic arm."""
    seeds = tuple(seeds)
    n = base.n_youth
    low, high = round(n * 0.6), round(n * 1.4)
    covid_n = round(n * 0.8)
    return [
        ScenarioSpec("base", {}, seeds),
        ScenarioSpec("youth_low", {"n_youth": low}, seeds),
        ScenarioSpec("youth_high", {"n_youth": high}, seeds),
        ScenarioSpec("theta_low", {"abandonment_theta": 0.1}, seeds),
        ScenarioSpec("theta_high", {"abandonment_theta": 0.3}, seeds),
        ScenarioSpec("duration_low", {"duration_scale": 0.8}, seeds),
        ScenarioSpec("duration_high", {"duration_scale": 1.2}, seeds),
        ScenarioSpec("covid", {"n_youth": covid_n, "capacity_scale": 0.5}, seeds),
    ]


# ---------------------------------------------------------------------------
# Per-solution metrics
# ---------------------------------------------------------------------------


def _solution_tables(solution: Solution):
    """The X, E and O values of at least 0.5, rounded, by structured keys.

    Each metric below parses the solution with it, unless its caller passes
    the result in as ``parsed``, so that one report parses a solution once.
    """
    tables = index_values(
        {name: int(round(v)) for name, v in solution.values.items() if not v < 0.5}
    )
    return tables["X"], tables["E"], tables["O"]


def _overflow_series(instance: ProblemInstance, solution: Solution, parsed=None) -> dict:
    """Per-day overflow bed referrals by organization id, and of all under None.

    Every series comes from one parse of the solution.
    """
    _, _, o = parsed or _solution_tables(solution)
    series = {key: np.zeros(instance.horizon_T)
              for key in [None] + [org.id for org in instance.organizations]}
    for (s, i, t), v in o.items():
        if i == BED_SERVICE_ID:
            series[None][t - 1] += v
            series[s][t - 1] += v
    return series


def overflow_timeseries(
    instance: ProblemInstance, solution: Solution, org_id: int | None = None
) -> np.ndarray:
    """Per-day overflow bed referrals from one organization (or all)."""
    return _overflow_series(instance, solution).get(org_id, np.zeros(instance.horizon_T))


def bed_sources(instance: ProblemInstance, solution: Solution, parsed=None) -> dict:
    """Youth counts by the bed source they relied on, per organization.

    Each youth counts once, at the most constrained tier (existing < extra
    in-house < overflow) they occupied on any day of their stay; slots within
    a day are assigned to youth in id order. Youth whose bed sits at the
    catch-all organization count as incompatible.
    """
    x, e, o = parsed or _solution_tables(solution)
    org_by_id = {org.id: org for org in instance.organizations}
    bed_days: dict[tuple[int, int], list[int]] = {}
    youth_org: dict[int, int] = {}
    for (y, s, i, t), _ in sorted(x.items()):
        if i != BED_SERVICE_ID:
            continue
        youth_org[y] = s
        bed_days.setdefault((s, t), []).append(y)

    tier: dict[int, int] = {}
    for (s, t), ys in bed_days.items():
        org = org_by_id[s]
        cap = org.capacity(BED_SERVICE_ID, t)
        extra = e.get((s, BED_SERVICE_ID, t), 0)
        for pos, y in enumerate(sorted(ys)):
            if pos < cap:
                level = 0
            elif pos < cap + extra:
                level = 1
            else:
                level = 2
            tier[y] = max(tier.get(y, 0), level)

    per_org: dict[int, dict[str, int]] = {}
    psi_count = 0
    for y, s in youth_org.items():
        if org_by_id[s].kind == INCOMPATIBILITY:
            psi_count += 1
            continue
        bucket = per_org.setdefault(s, {"existing": 0, "extra": 0, "overflow": 0})
        bucket[("existing", "extra", "overflow")[tier[y]]] += 1
    return {"per_org": per_org, "incompatibility": psi_count, "served": len(youth_org)}


def _bed_peaks(table: Mapping[tuple[int, int, int], int], org_ids) -> dict[int, int]:
    """Largest daily bed value of each given organization (0 if none)."""
    peaks = dict.fromkeys(org_ids, 0)
    for (s, i, t), v in table.items():
        if i == BED_SERVICE_ID and s in peaks:
            peaks[s] = max(peaks[s], v)
    return peaks


def expansion_percentages(instance: ProblemInstance, solution: Solution, parsed=None) -> dict:
    """Peak (extra beds + overflow referrals) relative to existing beds, per org.

    Also returns each housing organization's ``peak_extra`` and
    ``peak_overflow`` beds.
    """
    _, e, o = parsed or _solution_tables(solution)
    org_ids = [org.id for org in instance.housing_orgs()]
    peak_extra, peak_overflow = _bed_peaks(e, org_ids), _bed_peaks(o, org_ids)
    out: dict[int, float | None] = {}
    values = []
    for org in instance.housing_orgs():
        cap = org.capacity(BED_SERVICE_ID, 1)
        if cap <= 0:
            out[org.id] = None
            continue
        pct = 100.0 * (peak_extra[org.id] + peak_overflow[org.id]) / cap
        out[org.id] = pct
        values.append(pct)
    system = float(np.mean(values)) if values else 0.0
    return {
        "per_org": out,
        "system_average": system,
        "peak_extra": peak_extra,
        "peak_overflow": peak_overflow,
    }


def service_source_breakdown(
    instance: ProblemInstance, solution: Solution, parsed=None
) -> dict:
    """Units by category and source, plus the extra-hours heatmap.

    Sources: existing in-house capacity, extra in-house units, overflow at a
    housing organization, referral (any unit delivered by a provider), and
    the catch-all. The heatmap rows are the housing organizations; its value
    is extra in-house units plus referral units attributed to the youth's
    bed organization.
    """
    x, e, o = parsed or _solution_tables(solution)
    org_by_id = {org.id: org for org in instance.organizations}
    categories = instance.services.categories()
    breakdown = {
        cat: {"in_house": 0, "extra": 0, "overflow": 0, "referral": 0, "incompatibility": 0}
        for cat in categories
    }
    heatmap = {
        (org.id, cat): 0 for org in instance.housing_orgs() for cat in categories
    }

    youth_bed_org: dict[int, int] = {}
    for (y, s, i, t), _ in x.items():
        if i == BED_SERVICE_ID:
            youth_bed_org[y] = s

    loads: dict[tuple[int, int, int], int] = {}
    for (y, s, i, t), v in x.items():
        loads[(s, i, t)] = loads.get((s, i, t), 0) + v

    for (s, i, t), load in sorted(loads.items()):
        org = org_by_id[s]
        cat = instance.services.get(i).category
        if org.kind == HOUSING:
            cap = org.capacity(i, t)
            extra_avail = e.get((s, i, t), 0)
            existing = min(load, cap)
            extra = min(max(load - cap, 0), extra_avail)
            over = load - existing - extra
            breakdown[cat]["in_house"] += existing
            breakdown[cat]["extra"] += extra
            breakdown[cat]["overflow"] += over
            heatmap[(s, cat)] += extra
        elif org.kind == REFERRAL:
            breakdown[cat]["referral"] += load
        else:
            breakdown[cat]["incompatibility"] += load

    for (y, s, i, t), v in x.items():
        org = org_by_id[s]
        if org.kind != REFERRAL:
            continue
        bed_org = youth_bed_org.get(y)
        if bed_org is None or org_by_id[bed_org].kind != HOUSING:
            continue
        cat = instance.services.get(i).category
        heatmap[(bed_org, cat)] += v

    return {"by_category": breakdown, "heatmap": heatmap}


def referral_cost(instance: ProblemInstance, solution: Solution, parsed=None) -> float:
    """Total assignment cost incurred at referral providers."""
    x, _, _ = parsed or _solution_tables(solution)
    org_by_id = {org.id: org for org in instance.organizations}
    total = 0.0
    for (y, s, i, t), v in x.items():
        org = org_by_id[s]
        if org.kind == REFERRAL:
            total += org.cost_assign_r.get(i, 0.0) * v
    return total


def medical_referral_share(breakdown: Mapping) -> float | None:
    row = breakdown["by_category"].get("Medical")
    if row is None:
        return None
    total = sum(row.values())
    if total == 0:
        return None
    return row["referral"] / total


# ---------------------------------------------------------------------------
# Scenario runs
# ---------------------------------------------------------------------------


@dataclass
class ScenarioReport:
    name: str
    seeds: tuple[int, ...]
    n_youth: int
    max_overflow_mean: float
    max_overflow_sd: float
    mean_overflow_mean: float
    mean_overflow_sd: float
    overflow_cost_mean: float
    referral_cost_mean: float
    objective_mean: float
    statuses: tuple[str, ...]
    gaps: tuple[float, ...]
    bed_sources_total: dict
    expansion_system_avg: float
    expansion_per_org: dict
    breakdown_total: dict
    heatmap_total: dict
    overflow_series_mean: list[float]
    overflow_series_by_org: dict
    medical_referral_share: float | None
    overflow_cost_change_pct: float | None = None
    referral_cost_change_pct: float | None = None
    assumptions: str = (
        "support capacities from the appointments-per-day table (configurable); "
        "uniform intensity choice within requested categories"
    )

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "seeds": list(self.seeds),
            "n_youth": self.n_youth,
            "metrics": {
                "max_overflow_beds": {"mean": self.max_overflow_mean, "sd": self.max_overflow_sd},
                "mean_overflow_beds": {
                    "mean": self.mean_overflow_mean,
                    "sd": self.mean_overflow_sd,
                },
                "overflow_cost_mean": self.overflow_cost_mean,
                "referral_cost_mean": self.referral_cost_mean,
                "objective_mean": self.objective_mean,
                "overflow_cost_change_pct": self.overflow_cost_change_pct,
                "referral_cost_change_pct": self.referral_cost_change_pct,
                "medical_referral_share": self.medical_referral_share,
            },
            "statuses": list(self.statuses),
            "gaps": list(self.gaps),
            "bed_sources": self.bed_sources_total,
            "expansion_system_avg_pct": self.expansion_system_avg,
            "expansion_per_org_pct": {str(k): v for k, v in sorted(self.expansion_per_org.items())},
            "service_breakdown": self.breakdown_total,
            "heatmap": {f"{s}|{cat}": v for (s, cat), v in sorted(self.heatmap_total.items())},
            "overflow_series_mean": self.overflow_series_mean,
            "overflow_series_by_org": {
                str(k): v for k, v in sorted(self.overflow_series_by_org.items())
            },
            "assumptions": self.assumptions,
        }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean()) if arr.size else 0.0
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def run_scenario(
    spec: ScenarioSpec,
    base: GenerationConfig,
    solver_config: SolverConfig,
    tables: DataTables,
) -> ScenarioReport:
    """Generate, solve, verify and aggregate one scenario over its seeds."""
    max_ofl, mean_ofl, ofl_cost, ref_cost, objectives = [], [], [], [], []
    statuses, gaps = [], []
    bed_total: dict = {"per_org": {}, "incompatibility": 0, "served": 0}
    breakdown_total: dict = {}
    heatmap_total: dict = {}
    series_acc: np.ndarray | None = None
    series_org_acc: dict[int, np.ndarray] = {}
    expansion_avgs = []
    expansion_org_acc: dict[int, list[float]] = {}
    n_youth = 0

    for seed in spec.seeds:
        config = spec.config(base, seed)
        n_youth = config.n_youth
        instance = generate_instance(config, tables)
        lp = build(instance)
        solution = branch_and_bound(lp, solver_config)
        report = verify(instance, solution)
        if not report.ok:
            raise RuntimeError(
                f"scenario {spec.name} seed {seed}: solution failed verification: "
                f"{report.first_failure()}"
            )
        statuses.append(solution.status)
        gaps.append(solution.gap)
        objectives.append(solution.objective)

        parsed = _solution_tables(solution)
        by_org = _overflow_series(instance, solution, parsed)
        series = by_org[None]
        max_ofl.append(float(series.max()) if series.size else 0.0)
        mean_ofl.append(float(series.mean()) if series.size else 0.0)
        series_acc = series if series_acc is None else series_acc + series
        for o in instance.housing_orgs():
            acc = series_org_acc.setdefault(o.id, np.zeros(instance.horizon_T))
            acc += by_org[o.id]
        ofl_cost.append(solution.decomposition.get("overflow", 0.0))
        ref_cost.append(referral_cost(instance, solution, parsed))

        beds = bed_sources(instance, solution, parsed)
        bed_total["incompatibility"] += beds["incompatibility"]
        bed_total["served"] += beds["served"]
        for s, bucket in beds["per_org"].items():
            acc = bed_total["per_org"].setdefault(
                s, {"existing": 0, "extra": 0, "overflow": 0}
            )
            for key, v in bucket.items():
                acc[key] += v

        pct = expansion_percentages(instance, solution, parsed)
        expansion_avgs.append(pct["system_average"])
        for s, v in pct["per_org"].items():
            if v is not None:
                expansion_org_acc.setdefault(s, []).append(v)

        bd = service_source_breakdown(instance, solution, parsed)
        for cat, row in bd["by_category"].items():
            acc = breakdown_total.setdefault(cat, dict.fromkeys(row, 0))
            for key, v in row.items():
                acc[key] += v
        for key, v in bd["heatmap"].items():
            heatmap_total[key] = heatmap_total.get(key, 0) + v

    n_seeds = max(len(spec.seeds), 1)
    max_mean, max_sd = _mean_sd(max_ofl)
    mean_mean, mean_sd = _mean_sd(mean_ofl)
    return ScenarioReport(
        name=spec.name,
        seeds=spec.seeds,
        n_youth=n_youth,
        max_overflow_mean=max_mean,
        max_overflow_sd=max_sd,
        mean_overflow_mean=mean_mean,
        mean_overflow_sd=mean_sd,
        overflow_cost_mean=float(np.mean(ofl_cost)) if ofl_cost else 0.0,
        referral_cost_mean=float(np.mean(ref_cost)) if ref_cost else 0.0,
        objective_mean=float(np.mean(objectives)) if objectives else 0.0,
        statuses=tuple(statuses),
        gaps=tuple(gaps),
        bed_sources_total=bed_total,
        expansion_system_avg=float(np.mean(expansion_avgs)) if expansion_avgs else 0.0,
        expansion_per_org={
            s: float(np.mean(vals)) for s, vals in sorted(expansion_org_acc.items())
        },
        breakdown_total=breakdown_total,
        heatmap_total=heatmap_total,
        overflow_series_mean=list((series_acc / n_seeds)) if series_acc is not None else [],
        overflow_series_by_org={
            s: list(acc / n_seeds) for s, acc in sorted(series_org_acc.items())
        },
        medical_referral_share=medical_referral_share({"by_category": breakdown_total}),
    )


def apply_base_deltas(reports: Sequence[ScenarioReport]) -> None:
    """Fill percentage changes of overflow/referral cost against the base run."""
    base = next((r for r in reports if r.name == "base"), None)
    if base is None:
        return
    for rep in reports:
        if base.overflow_cost_mean > 0:
            rep.overflow_cost_change_pct = (
                100.0 * (rep.overflow_cost_mean - base.overflow_cost_mean) / base.overflow_cost_mean
            )
        else:
            rep.overflow_cost_change_pct = 0.0 if rep.overflow_cost_mean == 0 else None
        if base.referral_cost_mean > 0:
            rep.referral_cost_change_pct = (
                100.0 * (rep.referral_cost_mean - base.referral_cost_mean) / base.referral_cost_mean
            )
        else:
            rep.referral_cost_change_pct = 0.0 if rep.referral_cost_mean == 0 else None


def run_grid(
    specs: Sequence[ScenarioSpec], base: GenerationConfig, solver_config: SolverConfig
) -> list[ScenarioReport]:
    tables = load_default_tables()
    reports = [run_scenario(spec, base, solver_config, tables) for spec in specs]
    apply_base_deltas(reports)
    return reports


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def comparison_rows(reports: Sequence[ScenarioReport]) -> list[list]:
    header = [
        "scenario",
        "n_youth",
        "max_overflow_beds_mean",
        "max_overflow_beds_sd",
        "mean_overflow_beds_mean",
        "mean_overflow_beds_sd",
        "overflow_cost_change_pct",
        "referral_cost_change_pct",
        "medical_referral_share",
    ]
    rows = [header]
    for rep in reports:
        rows.append(
            [
                rep.name,
                rep.n_youth,
                f"{rep.max_overflow_mean:.4f}",
                f"{rep.max_overflow_sd:.4f}",
                f"{rep.mean_overflow_mean:.4f}",
                f"{rep.mean_overflow_sd:.4f}",
                "" if rep.overflow_cost_change_pct is None else f"{rep.overflow_cost_change_pct:.2f}",
                "" if rep.referral_cost_change_pct is None else f"{rep.referral_cost_change_pct:.2f}",
                ""
                if rep.medical_referral_share is None
                else f"{rep.medical_referral_share:.4f}",
            ]
        )
    return rows


def _write_csv(path: str, rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_scenario_outputs(reports: Sequence[ScenarioReport], out_dir: str) -> list[str]:
    """One JSON per scenario plus the combined comparison CSV; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for rep in reports:
        path = os.path.join(out_dir, f"scenario_{rep.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())
            fh.write("\n")
        paths.append(path)
    cmp_path = os.path.join(out_dir, "comparison.csv")
    _write_csv(cmp_path, comparison_rows(reports))
    paths.append(cmp_path)
    return paths
