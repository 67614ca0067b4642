"""Command-line pipeline: generate -> build -> solve -> verify -> report.

Every command writes a run manifest next to its outputs (tool version,
argument hash, wall clock, output digests). Outputs themselves contain no
timestamps, so re-running a manifest reproduces the output files byte for
byte.

Exit codes: 0 success, 2 usage (click), 3 data or instance error or an
infeasible instance, 4 solver limit reached, 5 internal verification failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict

import click

from . import __version__, model, scenarios
from .datagen import (
    DataFileError,
    GenerationConfig,
    generate_instance,
    load_default_tables,
)
from .domain import (
    BED_SERVICE_ID,
    DomainError,
    HOUSING,
    INCOMPATIBILITY,
    load_instance,
    save_instance,
)
from .model import build
from .scenarios import (
    DESK_BASE,
    FULL_BASE,
    _overflow_series,
    _write_csv,
    bed_sources,
    expansion_percentages,
    experiment_grid,
    overflow_timeseries,  # noqa: F401  (bench/tracing.py wraps it by name in cli)
    run_grid,
    service_source_breakdown,
    write_scenario_outputs,
)
from .solver import (
    STATUS_GAP,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolverConfig,
    branch_and_bound,
    load_solution,
    save_solution,
    verify,
)

EXIT_DATA = 3
EXIT_LIMIT = 4
EXIT_VERIFY = 5


def _finite(ctx, param, value):
    """``value``; NaN and infinity pass ``click.FloatRange(min=0)`` but are usage errors."""
    if value is not None and not 0 <= value < float("inf"):
        raise click.BadParameter(f"{value} is not a finite number >= 0.")
    return value


# What loading or validating a malformed input file raises: DomainError,
# DataFileError and json.JSONDecodeError are ValueErrors, a wrongly typed
# field gives a TypeError, a missing one a KeyError.
BAD_INPUT = (KeyError, TypeError, ValueError)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(args: dict) -> str:
    blob = json.dumps(args, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(
    path: str,
    command: str,
    args: dict,
    outputs: list[str],
    wall: float,
    status: str,
    extra: dict | None = None,
) -> None:
    doc = {
        "tool_version": __version__,
        "command": command,
        "args": args,
        "config_hash": _config_hash(args),
        "wall_clock_s": wall,
        "status": status,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    if extra:
        doc.update(extra)
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_inputs(instance_path: str, solution_path: str | None = None):
    """The validated instance and, given its path, the solution; bad input exits 3."""
    try:
        instance = load_instance(instance_path)
        instance.validate()
        solution = load_solution(solution_path) if solution_path else None
    except BAD_INPUT as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    return instance, solution


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Shelter capacity expansion planning toolkit."""


@main.command()
@click.option("--youth", type=int, default=500, show_default=True,
              help="Number of arriving youth.")
@click.option("--days", type=int, default=180, show_default=True, help="Horizon length in days.")
@click.option("--theta", type=float, default=0.2, show_default=True, help="Abandonment fraction.")
@click.option("--los-mean", type=float, default=60.0, show_default=True)
@click.option("--los-sd", type=float, default=15.0, show_default=True)
@click.option("--duration-scale", type=float, default=1.0, show_default=True)
@click.option("--capacity-scale", type=float, default=1.0, show_default=True)
@click.option("--idle-fraction", type=float, default=0.10, show_default=True)
@click.option("--bed-scale", type=float, default=1.0, show_default=True,
              help="Scale factor on listed bed stocks (0.1 for desk-scale runs).")
@click.option("--bed-headroom-fraction", type=float, default=0.125, show_default=True,
              help="Facility headroom as a fraction of listed beds.")
@click.option("--immigrant-rate", type=float, default=0.10, show_default=True)
@click.option("--ht-rate", type=float, default=0.295, show_default=True)
@click.option("--psi-cost", type=float, default=1000.0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), default="instance.json", show_default=True)
@click.option("--data-dir", type=click.Path(exists=True), default=None,
              help="Override the bundled data tables (also $SHELTERPLAN_DATA).")
def generate(youth, days, theta, los_mean, los_sd, duration_scale, capacity_scale,
             idle_fraction, bed_scale, bed_headroom_fraction, immigrant_rate,
             ht_rate, psi_cost, seed, out, data_dir) -> None:
    """Generate a seeded problem instance as a JSON document."""
    t0 = time.monotonic()
    args = {
        "youth": youth, "days": days, "theta": theta, "los_mean": los_mean,
        "los_sd": los_sd, "duration_scale": duration_scale,
        "capacity_scale": capacity_scale, "idle_fraction": idle_fraction,
        "bed_scale": bed_scale, "bed_headroom_fraction": bed_headroom_fraction,
        "immigrant_rate": immigrant_rate,
        "ht_rate": ht_rate, "psi_cost": psi_cost, "seed": seed,
    }
    try:
        config = GenerationConfig(
            n_youth=youth, horizon_T=days, abandonment_theta=theta,
            los_mean=los_mean, los_sd=los_sd, duration_scale=duration_scale,
            capacity_scale=capacity_scale, idle_fraction=idle_fraction,
            bed_scale=bed_scale, bed_headroom_fraction=bed_headroom_fraction,
            immigrant_rate=immigrant_rate, ht_rate=ht_rate,
            psi_cost=psi_cost, seed=seed,
        )
        tables = load_default_tables(data_dir)
        instance = generate_instance(config, tables)
    except (DataFileError, DomainError, FileNotFoundError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DATA)
    save_instance(instance, out)
    _write_manifest(
        out + ".manifest.json", "generate", args, [out],
        time.monotonic() - t0, "ok", {"instance_seed": seed},
    )
    click.echo(f"wrote {out}: {len(instance.youths)} youth, "
               f"{len(instance.organizations)} organizations, horizon {instance.horizon_T}")


@main.command("build")
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--mps-out", type=click.Path(), default=None)
@click.option("--triplets-out", type=click.Path(), default=None)
def build_cmd(instance_path, mps_out, triplets_out) -> None:
    """Build the model and report its size; optionally export MPS/triplets."""
    t0 = time.monotonic()
    instance, _ = _load_inputs(instance_path)
    lp = build(instance)
    outputs = []
    if mps_out:
        # Called through the module, where bench/tracing.py wraps it.
        model.write_mps(lp, mps_out)
        outputs.append(mps_out)
    if triplets_out:
        model.write_triplets(lp, triplets_out)
        outputs.append(triplets_out)
    kinds = lp.counts_by_kind()
    fams = lp.counts_by_family()
    click.echo(f"columns: {lp.n_cols} ({kinds}), rows: {lp.n_rows} ({fams}), nnz: {lp.nnz}")
    if outputs:
        _write_manifest(
            outputs[0] + ".manifest.json", "build",
            {"instance": os.path.basename(instance_path)}, outputs,
            time.monotonic() - t0, "ok",
        )


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default="solution.json", show_default=True)
@click.option("--gap", type=click.FloatRange(min=0), callback=_finite, default=0.01,
              show_default=True, help="Relative MIP-gap stopping tolerance.")
@click.option("--time-limit", type=click.FloatRange(min=0), callback=_finite, default=None)
@click.option("--node-limit", type=click.IntRange(min=0), default=1_000_000, show_default=True,
              help="Most search nodes; a node is one service block's LP.")
@click.option("--threads", type=click.IntRange(1, 1), default=1, show_default=True,
              help="Search workers; only 1, one node at a time.")
@click.option("--mps-out", type=click.Path(), default=None)
def solve(instance_path, out, gap, time_limit, node_limit, threads, mps_out) -> None:
    """Solve an instance to the requested gap and verify the incumbent."""
    t0 = time.monotonic()
    args = {
        "instance": os.path.basename(instance_path), "gap": gap,
        "time_limit": time_limit, "node_limit": node_limit,
        "threads": threads,
    }
    instance, _ = _load_inputs(instance_path)
    lp = build(instance)
    config = SolverConfig(rel_gap=gap, time_limit=time_limit, node_limit=node_limit)
    outputs = []
    if mps_out:
        model.write_mps(lp, mps_out)
        outputs.append(mps_out)
    solution = branch_and_bound(lp, config)
    if solution.status == STATUS_INFEASIBLE:
        click.echo("instance infeasible", err=True)
        sys.exit(EXIT_DATA)
    report = verify(instance, solution)
    save_solution(solution, out)
    outputs.insert(0, out)
    verify_path = out + ".verify.json"
    _write_json(verify_path, report.to_dict())
    outputs.append(verify_path)
    _write_manifest(
        out + ".manifest.json", "solve", args, outputs,
        time.monotonic() - t0, solution.status,
        {"solver_config": asdict(config), "instance_seed": instance.rng_seed},
    )
    click.echo(
        f"status {solution.status}, objective {solution.objective:.4f}, "
        f"bound {solution.bound:.4f}, gap {solution.gap:.5f}, nodes {solution.node_count}"
    )
    # A limit that stops the search before any incumbent leaves nothing to verify.
    if not report.ok and solution.objective != float("inf"):
        click.echo(f"verification FAILED: {report.first_failure()}", err=True)
        sys.exit(EXIT_VERIFY)
    if solution.status not in (STATUS_OPTIMAL, STATUS_GAP):
        sys.exit(EXIT_LIMIT)


@main.command("verify")
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--solution", "solution_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None)
def verify_cmd(instance_path, solution_path, out) -> None:
    """Re-check a solution file against its instance, family by family."""
    instance, solution = _load_inputs(instance_path, solution_path)
    report = verify(instance, solution)
    doc = report.to_dict()
    if out:
        _write_json(out, doc)
    for fam, row in doc["families"].items():
        mark = "ok" if row["ok"] else f"VIOLATED at {row['first_violation']}"
        click.echo(f"  {fam}: {mark}")
    click.echo(f"objective recomputed: {report.objective_recomputed:.4f}")
    if not report.ok:
        click.echo("verification FAILED", err=True)
        sys.exit(EXIT_VERIFY)
    click.echo("verification passed")


def write_report_csvs(instance, solution, out_dir: str) -> list[str]:
    """The figure-level data tables for one solved instance."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    categories = list(instance.services.categories())

    # Looked up on the module, where bench/tracing.py wraps it.
    parsed = scenarios._solution_tables(solution)
    beds = bed_sources(instance, solution, parsed)
    rows = [["organization", "kind", "existing", "extra", "overflow", "incompatibility"]]
    for org in instance.organizations:
        if org.kind == HOUSING:
            bucket = beds["per_org"].get(org.id, {"existing": 0, "extra": 0, "overflow": 0})
            rows.append([org.id, org.kind, bucket["existing"], bucket["extra"],
                         bucket["overflow"], 0])
        elif org.kind == INCOMPATIBILITY:
            rows.append([org.id, org.kind, 0, 0, 0, beds["incompatibility"]])
    path = os.path.join(out_dir, "beds_by_source.csv")
    _write_csv(path, rows)
    paths.append(path)

    pct = expansion_percentages(instance, solution, parsed)
    rows = [["organization", "existing_beds", "peak_extra", "peak_overflow", "pct_increase"]]
    for org in instance.housing_orgs():
        val = pct["per_org"][org.id]
        rows.append([org.id, org.capacity(BED_SERVICE_ID, 1), pct["peak_extra"][org.id],
                     pct["peak_overflow"][org.id], "NA" if val is None else f"{val:.2f}"])
    rows.append(["system_average", "", "", "", f"{pct['system_average']:.2f}"])
    path = os.path.join(out_dir, "expansion_percentages.csv")
    _write_csv(path, rows)
    paths.append(path)

    bd = service_source_breakdown(instance, solution, parsed)
    rows = [["category", "in_house", "extra", "overflow", "referral", "incompatibility"]]
    for cat in categories:
        row = bd["by_category"][cat]
        rows.append([cat, row["in_house"], row["extra"], row["overflow"],
                     row["referral"], row["incompatibility"]])
    path = os.path.join(out_dir, "service_sources.csv")
    _write_csv(path, rows)
    paths.append(path)

    rows = [["organization"] + categories]
    for org in instance.housing_orgs():
        rows.append([org.id] + [bd["heatmap"][(org.id, cat)] for cat in categories])
    path = os.path.join(out_dir, "extra_hours_heatmap.csv")
    _write_csv(path, rows)
    paths.append(path)

    org_ids = [org.id for org in instance.housing_orgs()]
    series = _overflow_series(instance, solution, parsed)
    rows = [["day"] + [f"org_{s}" for s in org_ids] + ["system"]]
    for t in range(instance.horizon_T):
        rows.append([t + 1] + [int(series[s][t]) for s in org_ids + [None]])
    path = os.path.join(out_dir, "overflow_timeseries.csv")
    _write_csv(path, rows)
    paths.append(path)
    return paths


@main.command()
@click.option("--instance", "instance_path", type=click.Path(exists=True), required=True)
@click.option("--solution", "solution_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), default="report", show_default=True)
def report(instance_path, solution_path, out_dir) -> None:
    """Emit the figure-level CSV bundles for a solved instance."""
    t0 = time.monotonic()
    instance, solution = _load_inputs(instance_path, solution_path)
    paths = write_report_csvs(instance, solution, out_dir)
    _write_manifest(
        os.path.join(out_dir, "report.manifest.json"), "report",
        {"instance": os.path.basename(instance_path),
         "solution": os.path.basename(solution_path)},
        paths, time.monotonic() - t0, "ok",
    )
    click.echo(f"wrote {len(paths)} report files to {out_dir}")


@main.command()
@click.option("--seeds", type=click.IntRange(min=1), default=5, show_default=True,
              help="Replications per scenario.")
@click.option("--seed-base", type=click.IntRange(min=0), default=11, show_default=True)
@click.option("--full-scale", is_flag=True,
              help="Full-scale parameters (500 youth, 180 days) instead of desk scale.")
@click.option("--gap", type=click.FloatRange(min=0), callback=_finite, default=0.01,
              show_default=True)
@click.option("--out-dir", type=click.Path(), default="scenarios_out", show_default=True)
def scenario(seeds, seed_base, full_scale, gap, out_dir) -> None:
    """Run the experiment grid and emit per-scenario reports."""
    t0 = time.monotonic()
    seed_tuple = tuple(range(seed_base, seed_base + seeds))
    base = FULL_BASE if full_scale else DESK_BASE
    specs = experiment_grid(base, seed_tuple)
    os.makedirs(out_dir, exist_ok=True)
    reports = run_grid(specs, base, SolverConfig(rel_gap=gap))
    paths = write_scenario_outputs(reports, out_dir)
    _write_manifest(
        os.path.join(out_dir, "scenario.manifest.json"), "scenario",
        {"full_scale": full_scale, "seeds": list(seed_tuple), "gap": gap},
        paths, time.monotonic() - t0, "ok",
    )
    for rep in reports:
        click.echo(
            f"{rep.name}: mean overflow beds {rep.mean_overflow_mean:.2f} "
            f"(max {rep.max_overflow_mean:.2f})"
        )


if __name__ == "__main__":
    main()
