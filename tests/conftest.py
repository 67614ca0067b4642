"""Shared fixtures: hand-built instances, the random micro-instance pool, and
the whole-model LP relaxation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shelterplan import solver
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
