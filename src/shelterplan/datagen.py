"""Stochastic generation of youth populations and organization data.

Populations are sampled from the bundled rate tables (demographics, needs,
time windows, frequencies). Generation is reproducible: every youth draws
from its own counter-keyed substream, so instances that share a seed share
their youth prefix across scenario arms (common random numbers).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .domain import (
    ATTRIBUTES,
    BED_SERVICE_ID,
    HOUSING,
    INCOMPATIBILITY,
    REFERRAL,
    DemographicProfile,
    DomainError,
    OrganizationProfile,
    ProblemInstance,
    ServiceCatalog,
    ServiceIntensity,
    ServiceNeed,
    UnknownServiceError,
    YouthProfile,
)

DATA_ENV_VAR = "SHELTERPLAN_DATA"

_ATTR_INDEX = {name: i for i, name in enumerate(ATTRIBUTES)}


class DataFileError(ValueError):
    """Malformed bundled or user-supplied data file."""


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero toward +inf."""
    return int(math.floor(x + 0.5))


def scale_capacity(c: int, factor: float) -> int:
    """Scale an integer capacity, banker's rounding, floored at zero.

    Banker's rounding makes a halved single unit vanish (round(0.5) == 0),
    so scaling strictly reduces every odd unit capacity.
    """
    return max(0, round(c * factor))


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the stochastic generator; defaults are the base setup."""

    n_youth: int = 500
    horizon_T: int = 180
    abandonment_theta: float = 0.2
    los_mean: float = 60.0
    los_sd: float = 15.0
    duration_scale: float = 1.0
    capacity_scale: float = 1.0
    idle_fraction: float = 0.10
    bed_scale: float = 1.0
    bed_headroom_fraction: float = 0.125
    immigrant_rate: float = 0.10
    ht_rate: float = 0.295
    psi_cost: float = 1000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.abandonment_theta <= 1.0:
            raise DomainError("abandonment_theta must lie in [0, 1]")
        if self.duration_scale <= 0:
            raise DomainError("duration_scale must be positive")
        if not 0.0 < self.capacity_scale <= 1.0:
            raise DomainError("capacity_scale must lie in (0, 1]")
        if not 0.0 < self.idle_fraction <= 1.0:
            raise DomainError("idle_fraction must lie in (0, 1]")
        if self.n_youth < 0 or self.horizon_T < 1:
            raise DomainError("n_youth must be >= 0 and horizon >= 1")


# ---------------------------------------------------------------------------
# Data tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrequencyRule:
    rule: str
    periodic: bool
    flexibility_k: int


@dataclass(frozen=True)
class DataTables:
    """Parsed bundled tables: org profiles, rates, windows, frequencies, costs."""

    org_accepts: dict[int, tuple[int, ...]]
    org_offers: dict[int, set[tuple[str, str]]]
    org_beds: dict[int, int]
    service_rows: tuple[tuple[str, str], ...]
    youth_rates: dict[str, dict[str, float]]
    needs_rates: dict[str, float]
    time_windows: dict[str, tuple[float, float, float]]
    frequency_rules: dict[tuple[str, str], FrequencyRule]
    costs: dict[str, dict[str, float | None]]
    appointments: dict[str, dict[str, int]]

    def frequency_rule(self, category: str, intensity: str) -> FrequencyRule:
        for key in ((category, intensity), (category, "*"), ("*", "*")):
            if key in self.frequency_rules:
                return self.frequency_rules[key]
        raise DataFileError(f"no frequency rule for {category}/{intensity}")

    def window_params(self, category: str) -> tuple[float, float, float]:
        try:
            return self.time_windows[category]
        except KeyError:
            raise UnknownServiceError(f"no time-window parameters for {category!r}") from None


def _read_csv(path_or_name: str, data_dir: str | None):
    if data_dir is not None:
        path = os.path.join(data_dir, path_or_name)
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    ref = resources.files("shelterplan.data") / path_or_name
    with ref.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _parse_int(value: str, file: str, row: int, col: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise DataFileError(f"{file}: row {row}, column {col}: expected integer, got {value!r}")


def load_default_tables(data_dir: str | None = None) -> DataTables:
    """Load the bundled rate tables, or those in data_dir / $SHELTERPLAN_DATA."""
    if data_dir is None:
        data_dir = os.environ.get(DATA_ENV_VAR) or None

    rows = _read_csv("org_demographics.csv", data_dir)
    org_accepts: dict[int, list[int]] = {s: [0] * len(ATTRIBUTES) for s in range(1, 9)}
    if len(rows) - 1 != len(ATTRIBUTES):
        raise DataFileError(
            f"org_demographics.csv: expected {len(ATTRIBUTES)} attribute rows, got {len(rows) - 1}"
        )
    for r, row in enumerate(rows[1:], start=2):
        attr = row[1]
        if attr not in _ATTR_INDEX:
            raise DataFileError(f"org_demographics.csv: row {r}: unknown attribute {attr!r}")
        for s in range(1, 9):
            org_accepts[s][_ATTR_INDEX[attr]] = _parse_int(row[1 + s], "org_demographics.csv", r, 2 + s)

    rows = _read_csv("org_services.csv", data_dir)
    org_offers: dict[int, set[tuple[str, str]]] = {s: set() for s in range(1, 9)}
    org_beds: dict[int, int] = {}
    service_rows: list[tuple[str, str]] = []
    for r, row in enumerate(rows[1:], start=2):
        category, intensity = row[0], row[1]
        if category == "Number of beds":
            for s in range(1, 9):
                org_beds[s] = _parse_int(row[1 + s], "org_services.csv", r, 2 + s)
            continue
        service_rows.append((category, intensity))
        for s in range(1, 9):
            flag = _parse_int(row[1 + s], "org_services.csv", r, 2 + s)
            if flag == 1:
                org_offers[s].add((category, intensity))
    if len(org_beds) != 8:
        raise DataFileError("org_services.csv: missing 'Number of beds' row")

    rows = _read_csv("youth_demographics.csv", data_dir)
    youth_rates: dict[str, dict[str, float]] = {}
    for row in rows[1:]:
        youth_rates.setdefault(row[0], {})[row[1]] = float(row[2])

    rows = _read_csv("needs_rates.csv", data_dir)
    needs_rates = {row[0]: float(row[1]) for row in rows[1:]}

    rows = _read_csv("time_windows.csv", data_dir)
    time_windows = {row[0]: (float(row[1]), float(row[2]), float(row[3])) for row in rows[1:]}

    rows = _read_csv("frequencies.csv", data_dir)
    frequency_rules = {
        (row[0], row[1]): FrequencyRule(
            rule=row[2], periodic=bool(int(row[3])), flexibility_k=int(row[4])
        )
        for row in rows[1:]
    }

    rows = _read_csv("costs.csv", data_dir)
    costs: dict[str, dict[str, float | None]] = {}
    for row in rows[1:]:
        costs[row[0]] = {
            "assign_referral": float(row[1]) if row[1] else None,
            "expand_gamma": float(row[2]),
            "overflow_lambda": float(row[3]),
        }

    rows = _read_csv("appointments.csv", data_dir)
    appointments = {
        row[0]: {
            "per_day": int(row[1]),
            "headroom_per_day": int(row[2]),
            "referral_per_day": int(row[3]),
        }
        for row in rows[1:]
    }

    return DataTables(
        org_accepts={s: tuple(bits) for s, bits in org_accepts.items()},
        org_offers=org_offers,
        org_beds=org_beds,
        service_rows=tuple(service_rows),
        youth_rates=youth_rates,
        needs_rates=needs_rates,
        time_windows=time_windows,
        frequency_rules=frequency_rules,
        costs=costs,
        appointments=appointments,
    )


def build_catalog(tables: DataTables) -> ServiceCatalog:
    services = []
    for idx, (category, intensity) in enumerate(tables.service_rows, start=1):
        rule = tables.frequency_rule(category, intensity)
        services.append(
            ServiceIntensity(
                id=idx,
                category=category,
                intensity=intensity,
                periodic=rule.periodic,
                flexibility_k=rule.flexibility_k,
            )
        )
    return ServiceCatalog(services)


# ---------------------------------------------------------------------------
# Sampling primitives
# ---------------------------------------------------------------------------


def sample_arrival(rng: np.random.Generator, horizon_T: int) -> int:
    """Uniform integer arrival day on [1, horizon]."""
    return int(rng.integers(1, horizon_T + 1))


def sample_los(rng: np.random.Generator, config: GenerationConfig, arrival: int) -> int:
    """Length-of-stay draw, scaled by duration_scale, clamped to [1, T - arrival + 1]."""
    return max(1, min(sample_los_raw(rng, config), config.horizon_T - arrival + 1))


def sample_los_raw(rng: np.random.Generator, config: GenerationConfig) -> int:
    s = config.duration_scale
    value = config.los_mean * s + config.los_sd * s * rng.standard_normal()
    return round_half_up(value)


def sample_window(
    rng: np.random.Generator,
    tables: DataTables,
    category: str,
    arrival: int,
    horizon_T: int,
) -> tuple[int, int]:
    """Start-time window [a, b]: a is the arrival day, b a triangular offset later."""
    lo, mode, hi = tables.window_params(category)
    offset = round_half_up(float(rng.triangular(lo, mode, hi)))
    a = arrival
    b = min(a + max(1, offset), horizon_T)
    return a, max(a, b)


def sample_frequency(rng: np.random.Generator, rule: FrequencyRule, duration_d: int) -> int:
    """Occurrence count for a need of the given duration under a table rule.

    Rules: ``daily`` (every day), ``every:N`` (one per N days),
    ``fixed:C`` (a flat count), ``per:N:lo:hi`` (lo..hi occurrences per N days,
    chosen uniformly). Results are clamped to [1, duration].
    """
    kind, _, args = rule.rule.partition(":")
    if kind == "daily":
        f = duration_d
    elif kind == "every":
        f = math.ceil(duration_d / int(args))
    elif kind == "fixed":
        f = int(args)
    elif kind == "per":
        n, lo, hi = (int(p) for p in args.split(":"))
        count = int(rng.integers(lo, hi + 1))
        f = round_half_up(count * duration_d / n)
    else:
        raise DataFileError(f"unknown frequency rule {rule.rule!r}")
    return max(1, min(f, duration_d))


_UNREPORTED = "unreported"


def _pick(rng: np.random.Generator, rates: Mapping[str, float]) -> str:
    """Draw a category by its raw percentage; leftover mass is 'unreported'."""
    u = float(rng.random()) * 100.0
    acc = 0.0
    for name, pct in rates.items():
        acc += pct
        if u < acc:
            return name
    return _UNREPORTED


def sample_demographics(
    rng: np.random.Generator, tables: DataTables, config: GenerationConfig
) -> tuple[dict[str, object], DemographicProfile]:
    """Draw one youth's fine-grained categories and project the bit vector.

    All features are drawn independently. Percentages are used raw; the
    remainder of any group that does not sum to 100 becomes an 'unreported'
    category (mapped to the most common compatible bit).
    """
    age = _pick(rng, tables.youth_rates["age"])
    gender = _pick(rng, tables.youth_rates["gender"])
    transgender = float(rng.random()) * 100.0 < tables.youth_rates["transgender"]["yes"]
    orientation = _pick(rng, tables.youth_rates["orientation"])
    children = float(rng.random()) * 100.0 < tables.youth_rates["parenting"]["children"]
    immigrant = float(rng.random()) < config.immigrant_rate
    ht_victim = float(rng.random()) < config.ht_rate

    bits = [0] * len(ATTRIBUTES)
    bits[_ATTR_INDEX["age_21_plus" if age == "21+" else "age_under_21"]] = 1

    if gender == "male":
        bits[_ATTR_INDEX["trans_male" if transgender else "cis_male"]] = 1
    elif gender == "female":
        bits[_ATTR_INDEX["trans_female" if transgender else "cis_female"]] = 1
    elif gender == "non_binary":
        bits[_ATTR_INDEX["non_binary"]] = 1
    elif gender == "gender_nonconforming":
        bits[_ATTR_INDEX["genderqueer"]] = 1
    else:
        bits[_ATTR_INDEX["cis_female"]] = 1

    if orientation != _UNREPORTED:
        bits[_ATTR_INDEX[orientation]] = 1
    if children:
        bits[_ATTR_INDEX["children"]] = 1
    bits[_ATTR_INDEX["immigrant" if immigrant else "citizen"]] = 1
    if ht_victim:
        bits[_ATTR_INDEX["ht_victim"]] = 1

    fine = {
        "age": age,
        "gender": gender,
        "transgender": transgender,
        "orientation": orientation,
        "children": children,
        "immigrant": immigrant,
        "ht_victim": ht_victim,
    }
    return fine, DemographicProfile(bits=tuple(bits))


def build_needs(
    rng: np.random.Generator,
    tables: DataTables,
    config: GenerationConfig,
    catalog: ServiceCatalog,
    arrival: int,
    offered_levels: Mapping[str, Sequence[int]],
) -> tuple[ServiceNeed, ...]:
    """Sample one youth's needs: the mandatory bed plus Bernoulli extras.

    Every need shares the youth's length-of-stay draw as its duration; the
    intensity within a requested category is chosen uniformly among the
    levels at least one organization offers.
    """
    duration = sample_los(rng, config, arrival)
    needs = []
    for category in catalog.categories():
        rate = tables.needs_rates.get(category, 0.0)
        if category == "Bed":
            include = True
        else:
            include = float(rng.random()) * 100.0 < rate
        if not include:
            continue
        levels = list(offered_levels.get(category, ()))
        if not levels:
            continue
        if len(levels) == 1:
            service_id = levels[0]
        else:
            service_id = levels[int(rng.integers(0, len(levels)))]
        svc = catalog.get(service_id)
        rule = tables.frequency_rule(svc.category, svc.intensity)
        frequency = sample_frequency(rng, rule, duration)
        a, b = sample_window(rng, tables, category, arrival, config.horizon_T)
        needs.append(
            ServiceNeed(
                service=service_id,
                duration_d=duration,
                frequency_f=frequency,
                window_start_a=a,
                window_end_b=b,
            )
        )
    return tuple(needs)


def apply_abandonment(
    rng: np.random.Generator, youths: Sequence[YouthProfile], theta: float, horizon_T: int
) -> tuple[YouthProfile, ...]:
    """Flag a theta-fraction of youth as abandoned and shorten their stays.

    Exactly round(theta * n) youth are selected (those with the smallest
    uniform draws, so the selected set is nested across theta levels). Half
    of them leave almost immediately (durations redrawn from Normal(3, 0.5)),
    the other half stay for a third of the planned duration. Frequencies are
    rescaled proportionally and kept inside [1, duration].
    """
    n = len(youths)
    if n == 0 or theta == 0.0:
        return tuple(youths)
    u = rng.random(n)
    k = round_half_up(theta * n)
    if k == 0:
        return tuple(youths)
    order = np.argsort(u, kind="stable")
    selected = list(order[:k])
    n_short = (k + 1) // 2
    short_set = set(int(i) for i in selected[:n_short])
    trunc_set = set(int(i) for i in selected[n_short:])

    out = list(youths)
    for idx in sorted(short_set | trunc_set):
        youth = youths[idx]
        new_needs = []
        for need in youth.needs:
            if idx in short_set:
                d_new = round_half_up(float(rng.normal(3.0, 0.5)))
            else:
                d_new = round_half_up(need.duration_d * 0.333)
            d_new = max(1, min(d_new, horizon_T - need.window_start_a + 1))
            f_new = round_half_up(need.frequency_f * d_new / need.duration_d)
            f_new = max(1, min(f_new, d_new))
            new_needs.append(
                ServiceNeed(
                    service=need.service,
                    duration_d=d_new,
                    frequency_f=f_new,
                    window_start_a=need.window_start_a,
                    window_end_b=need.window_end_b,
                )
            )
        out[idx] = YouthProfile(
            id=youth.id,
            arrival_l=youth.arrival_l,
            demographics=youth.demographics,
            needs=tuple(new_needs),
            abandoned=True,
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Organizations
# ---------------------------------------------------------------------------


def build_organizations(
    config: GenerationConfig, tables: DataTables, catalog: ServiceCatalog
) -> tuple[OrganizationProfile, ...]:
    """Construct housing organizations, referral providers and the catch-all.

    Bed capacity is the idle share of the (scale-adjusted) listed beds;
    support capacity the idle share of the appointments-per-day table.
    capacity_scale shrinks in-house capacities only; facility headroom stays.
    """
    id_by_pair = {(s.category, s.intensity): s.id for s in catalog}
    orgs: list[OrganizationProfile] = []

    for s in range(1, 9):
        offers: set[int] = set()
        capacity: dict[int, int] = {}
        headroom: dict[int, int] = {}
        assign: dict[int, float] = {}
        gamma: dict[int, float] = {}
        lam: dict[int, float] = {}
        beds_eff = round_half_up(tables.org_beds[s] * config.bed_scale)
        for pair in tables.org_offers[s]:
            sid = id_by_pair[pair]
            category = pair[0]
            offers.add(sid)
            if sid == BED_SERVICE_ID:
                c_base = round_half_up(beds_eff * config.idle_fraction)
                head = round_half_up(beds_eff * config.bed_headroom_fraction)
            else:
                appt = tables.appointments[category]
                c_base = round_half_up(appt["per_day"] * config.idle_fraction)
                head = appt["headroom_per_day"]
            capacity[sid] = scale_capacity(c_base, config.capacity_scale)
            headroom[sid] = c_base + head
            assign[sid] = 0.0
            gamma[sid] = tables.costs[category]["expand_gamma"]
            lam[sid] = tables.costs[category]["overflow_lambda"]
        orgs.append(
            OrganizationProfile(
                id=s,
                kind=HOUSING,
                accepts=DemographicProfile(bits=tables.org_accepts[s]),
                offers=frozenset(offers),
                capacity_c=capacity,
                headroom_mu=headroom,
                cost_assign_r=assign,
                cost_expand_gamma=gamma,
                cost_overflow_lambda=lam,
            )
        )

    next_id = 9
    for category in catalog.categories():
        cost_row = tables.costs.get(category, {})
        referral_cost = cost_row.get("assign_referral")
        if referral_cost is None:
            continue
        sids = catalog.ids_for_category(category)
        per_day = tables.appointments[category]["referral_per_day"]
        orgs.append(
            OrganizationProfile(
                id=next_id,
                kind=REFERRAL,
                accepts=DemographicProfile.all_ones(len(ATTRIBUTES)),
                offers=frozenset(sids),
                capacity_c={sid: per_day for sid in sids},
                headroom_mu={sid: per_day for sid in sids},
                cost_assign_r={sid: referral_cost for sid in sids},
                cost_expand_gamma={sid: cost_row["expand_gamma"] for sid in sids},
                cost_overflow_lambda={sid: cost_row["overflow_lambda"] for sid in sids},
            )
        )
        next_id += 1

    psi_capacity = max(config.n_youth, 1)
    all_ids = catalog.ids()
    orgs.append(
        OrganizationProfile(
            id=next_id,
            kind=INCOMPATIBILITY,
            accepts=DemographicProfile.all_ones(len(ATTRIBUTES)),
            offers=frozenset(all_ids),
            capacity_c={sid: psi_capacity for sid in all_ids},
            headroom_mu={sid: psi_capacity for sid in all_ids},
            cost_assign_r={sid: config.psi_cost for sid in all_ids},
            cost_expand_gamma={sid: config.psi_cost for sid in all_ids},
            cost_overflow_lambda={sid: 2.0 * config.psi_cost for sid in all_ids},
        )
    )
    return tuple(orgs)


def offered_levels_by_category(
    catalog: ServiceCatalog, organizations: Sequence[OrganizationProfile]
) -> dict[str, tuple[int, ...]]:
    """Per category, the intensity ids at least one non-catch-all org offers."""
    offered: set[int] = set()
    for org in organizations:
        if org.kind != INCOMPATIBILITY:
            offered |= org.offers
    return {
        category: tuple(sid for sid in catalog.ids_for_category(category) if sid in offered)
        for category in catalog.categories()
    }


# ---------------------------------------------------------------------------
# Whole-population generation
# ---------------------------------------------------------------------------


def _youth_stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, index))))


def _abandonment_stream(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0, 0))))


def sample_population(
    config: GenerationConfig,
    tables: DataTables,
    catalog: ServiceCatalog,
    offered_levels: Mapping[str, Sequence[int]],
) -> tuple[YouthProfile, ...]:
    """Generate the youth population (pre-abandonment)."""
    youths = []
    for j in range(config.n_youth):
        rng = _youth_stream(config.seed, j)
        arrival = sample_arrival(rng, config.horizon_T)
        _, profile = sample_demographics(rng, tables, config)
        needs = build_needs(rng, tables, config, catalog, arrival, offered_levels)
        youth = YouthProfile(
            id=j + 1,
            arrival_l=arrival,
            demographics=profile,
            needs=needs,
            abandoned=False,
        )
        youths.append(youth)
    return tuple(youths)


def generate_instance(
    config: GenerationConfig, tables: DataTables | None = None
) -> ProblemInstance:
    """Generate a full, validated problem instance from a seeded config."""
    if tables is None:
        tables = load_default_tables()
    catalog = build_catalog(tables)
    organizations = build_organizations(config, tables, catalog)
    offered = offered_levels_by_category(catalog, organizations)
    youths = sample_population(config, tables, catalog, offered)
    youths = apply_abandonment(
        _abandonment_stream(config.seed), youths, config.abandonment_theta, config.horizon_T
    )
    instance = ProblemInstance(
        horizon_T=config.horizon_T,
        services=catalog,
        youths=youths,
        organizations=organizations,
        rng_seed=config.seed,
        meta={
            "generator_version": __version__,
            "config": asdict(config),
            "assumptions": "support capacities from the appointments-per-day table; "
            "uniform intensity choice within requested categories",
        },
    )
    instance.validate()
    return instance
