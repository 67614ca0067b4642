"""Shared fixtures: hand-built instances, the random micro-instance pool, the
whole-model LP relaxation, name and row helpers for hand-built models,
line-at-a-time reference writers, and the generator's per-youth draws."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shelterplan import datagen, solver
from shelterplan.domain import (
    HOUSING,
    INCOMPATIBILITY,
    DemographicProfile,
    OrganizationProfile,
    ProblemInstance,
    ServiceCatalog,
    ServiceIntensity,
    ServiceNeed,
    YouthProfile,
)
from shelterplan.model import column_name

N_ATTR = 4  # compact attribute set for hand-built instances


def solve_lp(lp, bounds=None, time_limit=None):
    """The LP relaxation of the whole model as one HiGHS solve; deterministic.

    ``time_limit`` caps the seconds HiGHS may spend; a solve it cuts short
    returns LP_LIMIT. A violated row without columns makes it infeasible.
    """
    parts, rows_hold = solver._split(lp, np.zeros(lp.n_cols, dtype=np.int64), *lp.nonzeros())
    if not rows_hold:
        return solver.LpResult(solver.LP_INFEASIBLE, math.inf, None)
    if not parts:
        return solver.LpResult(solver.LP_OPTIMAL, 0.0, np.zeros(0))
    lb, ub = bounds if bounds is not None else lp.bounds_arrays()
    _, c, matrix = parts[0]
    return solver.linprog(c, **matrix, lb=lb, ub=ub, time_limit=time_limit)


def add_row(lp, name, family, sense, rhs, cols, vals):
    """Append one row to ``lp``: a one-row ``add_rows`` call."""
    lp.add_rows([name], family, sense, [rhs], [len(cols)], cols, vals)


def column_names(lp):
    """The name of every column of ``lp``, in column order."""
    return list(map(column_name, lp.col_kind, lp.col_y, lp.col_s, lp.col_i, lp.col_t))


def parse_variable_name(name):
    """Inverse of ``model.column_name``: kind plus index dict; ValueError for a
    part without a number."""
    kind, _, rest = name.partition("_")
    indices = {}
    for part in rest.split("_"):
        indices[part[:1]] = int(part[1:])
    return kind, indices


def population_stats(config, tables, catalog, offered_levels):
    """Per youth of ``datagen.sample_population``: arrival day, fine demographic
    categories, raw (unclamped) LOS draw and the set of need categories.

    The fine categories and raw LOS are replayed from the same substreams:
    each youth's stream draws arrival, demographics, then the LOS normal.
    """
    youths = datagen.sample_population(config, tables, catalog, offered_levels)
    fine, raw_los = [], []
    for j in range(config.n_youth):
        rng = datagen._youth_stream(config.seed, j)
        datagen.sample_arrival(rng, config.horizon_T)
        fine.append(datagen.sample_demographics(rng, tables, config)[0])
        raw_los.append(datagen.sample_los_raw(rng, config))
    return {
        "arrivals": [y.arrival_l for y in youths],
        "fine": fine,
        "raw_los": raw_los,
        "need_categories": [{catalog.get(n.service).category for n in y.needs} for y in youths],
    }


def _fmt(v):
    return f"{v:.12g}"


def _field(text, width):
    return text.ljust(width) if len(text) < width else text + " "


def write_mps_by_line(lp, path):
    """The MPS file of ``lp``, formatted one line at a time.

    The reference that ``model.write_mps`` matches byte for byte: the same
    sections, fields and entry order, from the model's lists.
    """
    names = column_names(lp)
    entries = [[("COST", cost)] if cost != 0.0 else [] for cost in lp.obj]
    for r, c, v in zip(*(part.tolist() for part in lp.nonzeros())):
        entries[c].append((lp.row_names[r], v))
    tag = {"<=": "L", ">=": "G", "=": "E"}
    marker = "    MARKER    " + _field("'MARKER'", 25 - 14)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("NAME" + " " * 10 + "SHELTERPLAN\n")
        fh.write("ROWS\n N  COST\n")
        for name, sense in zip(lp.row_names, lp.row_sense):
            fh.write(f" {tag[sense]}  {name}\n")
        fh.write("COLUMNS\n" + marker + "'INTORG'\n")
        for name, col in zip(names, entries):
            for j in range(0, len(col), 2):
                line = "    " + _field(name, 10) + _field(col[j][0], 10)
                if j + 1 < len(col):
                    line += _field(_fmt(col[j][1]), 15) + _field(col[j + 1][0], 10)
                    line += _fmt(col[j + 1][1])
                else:
                    line += _fmt(col[j][1])
                fh.write(line + "\n")
        fh.write(marker + "'INTEND'\n")
        fh.write("RHS\n")
        for name, rhs in zip(lp.row_names, lp.rhs):
            if rhs != 0.0:
                fh.write("    " + _field("RHS", 10) + _field(name, 10) + _fmt(rhs) + "\n")
        fh.write("BOUNDS\n")
        for name, lo, hi in zip(names, lp.lb, lp.ub):
            if lo != 0.0:
                fh.write(" LO " + _field("BND", 10) + _field(name, 10) + _fmt(lo) + "\n")
            fh.write(" UI " + _field("BND", 10) + _field(name, 10) + _fmt(hi) + "\n")
        fh.write("ENDATA\n")


def write_triplets_by_line(lp, path):
    """The sparse-triplet file of ``lp``, one line at a time: the reference
    that ``model.write_triplets`` matches byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"SHELTERPLAN-SPARSE 1\nMINIMIZE\nNVARS {lp.n_cols}\nNROWS {lp.n_rows}\n")
        for name, lo, hi, integer, cost in zip(column_names(lp), lp.lb, lp.ub, lp.is_integer,
                                               lp.obj):
            fh.write(f"VAR {name} {_fmt(lo)} {_fmt(hi)} {1 if integer else 0} {_fmt(cost)}\n")
        for row in zip(lp.row_names, lp.row_family, lp.row_sense, lp.rhs):
            fh.write(f"ROW {row[0]} {row[1]} {row[2]} {_fmt(row[3])}\n")
        for r, c, v in zip(*(part.tolist() for part in lp.nonzeros())):
            fh.write(f"NZ {r} {c} {_fmt(v)}\n")
        fh.write("END\n")


def org(
    org_id,
    kind=HOUSING,
    bits=None,
    offers=(1,),
    cap=1,
    head=0,
    r=0.0,
    gamma=5.0,
    lam=20.0,
    n_attr=N_ATTR,
):
    """Small-instance organization with uniform per-service parameters."""
    if bits is None:
        bits = (1,) * n_attr
    offers = frozenset(offers)
    caps = {i: cap for i in offers} if isinstance(cap, int) else dict(cap)
    heads = (
        {i: caps[i] + head for i in offers} if isinstance(head, int) else dict(head)
    )
    return OrganizationProfile(
        id=org_id,
        kind=kind,
        accepts=DemographicProfile(tuple(bits)),
        offers=offers,
        capacity_c=caps,
        headroom_mu=heads,
        cost_assign_r={i: r for i in offers},
        cost_expand_gamma={i: gamma for i in offers},
        cost_overflow_lambda={i: lam for i in offers},
    )


def psi_org(org_id, service_ids, cap=50, r=1000.0, n_attr=N_ATTR):
    ids = frozenset(service_ids)
    return OrganizationProfile(
        id=org_id,
        kind=INCOMPATIBILITY,
        accepts=DemographicProfile.all_ones(n_attr),
        offers=ids,
        capacity_c={i: cap for i in ids},
        headroom_mu={i: cap for i in ids},
        cost_assign_r={i: r for i in ids},
        cost_expand_gamma={i: r for i in ids},
        cost_overflow_lambda={i: 2 * r for i in ids},
    )


def bed_catalog(extra=()):
    services = [ServiceIntensity(1, "Bed", "Single", True, 0)]
    services.extend(extra)
    return ServiceCatalog(services)


def youth(youth_id, arrival, needs, bits=None, n_attr=N_ATTR):
    if bits is None:
        bits = (1,) * n_attr
    return YouthProfile(
        id=youth_id,
        arrival_l=arrival,
        demographics=DemographicProfile(tuple(bits)),
        needs=tuple(needs),
    )


def bed_need(duration, a, b):
    return ServiceNeed(1, duration, duration, a, b)


def make_instance(horizon, catalog, youths, orgs, seed=0):
    return ProblemInstance(
        horizon_T=horizon,
        services=catalog,
        youths=tuple(youths),
        organizations=tuple(orgs),
        rng_seed=seed,
    )


def micro_instance(rng: np.random.Generator) -> ProblemInstance:
    """Random micro-instance: <= 4 youth, 2 real organizations, <= 3 services,
    horizon <= 10 days, costs ordered lambda > gamma."""
    horizon = int(rng.integers(6, 11))
    services = [ServiceIntensity(1, "Bed", "Single", True, 0)]
    n_extra = int(rng.integers(0, 3))
    if n_extra >= 1:
        services.append(
            ServiceIntensity(2, "Counseling", "Low", True, int(rng.integers(0, 2)))
        )
    if n_extra >= 2:
        services.append(ServiceIntensity(3, "Checkup", "Low", False, 0))
    catalog = ServiceCatalog(services)

    orgs = []
    for s in (1, 2):
        bits = tuple(int(rng.random() < 0.8) for _ in range(N_ATTR))
        offers = frozenset(
            svc.id for svc in services if svc.id == 1 or rng.random() < 0.85
        )
        caps = {i: int(rng.integers(0, 3)) for i in offers}
        heads = {i: caps[i] + int(rng.integers(0, 3)) for i in offers}
        gamma = {i: float(rng.integers(1, 6)) for i in offers}
        lam = {i: gamma[i] + float(rng.integers(1, 11)) for i in offers}
        orgs.append(
            OrganizationProfile(
                id=s,
                kind=HOUSING,
                accepts=DemographicProfile(bits),
                offers=offers,
                capacity_c=caps,
                headroom_mu=heads,
                cost_assign_r={i: 0.0 for i in offers},
                cost_expand_gamma=gamma,
                cost_overflow_lambda=lam,
            )
        )
    orgs.append(psi_org(3, catalog.ids(), cap=6, r=50.0))

    youths = []
    for y in range(1, int(rng.integers(1, 5)) + 1):
        arrival = int(rng.integers(1, max(2, horizon - 4)))
        d_bed = int(rng.integers(2, min(5, horizon - arrival + 1) + 1))
        b = min(arrival + int(rng.integers(0, 3)), horizon)
        needs = [bed_need(d_bed, arrival, b)]
        for svc in services[1:]:
            if rng.random() < 0.6:
                dmax = horizon - arrival + 1
                d = min(int(rng.integers(2, max(3, dmax + 1))), dmax)
                f = int(rng.integers(1, min(3, d) + 1))
                bb = min(arrival + int(rng.integers(0, 3)), horizon)
                needs.append(ServiceNeed(svc.id, d, f, arrival, bb))
        bits = tuple(int(rng.random() < 0.6) for _ in range(N_ATTR))
        youths.append(
            YouthProfile(
                id=y,
                arrival_l=arrival,
                demographics=DemographicProfile(bits),
                needs=tuple(needs),
            )
        )
    return make_instance(horizon, catalog, youths, orgs, seed=int(rng.integers(0, 10**6)))


@pytest.fixture(scope="session")
def micro_pool():
    rng = np.random.default_rng(4242)
    return [micro_instance(rng) for _ in range(50)]
