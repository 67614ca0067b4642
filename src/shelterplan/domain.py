"""Core data types shared by every other module.

Immutable descriptions of services, demographic profiles, youth, organizations
and whole problem instances, plus the pure helper computations (periodicity,
compatibility, offer lookup) used by the instance generator, the optimization
model builder and the solution verifier.

All day indices are 1-based and run from 1 to the instance horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

SCHEMA_VERSION = 1

# Canonical demographic attribute order. The position of each name is part of
# the instance file format: youth and organization bit vectors are stored in
# exactly this order.
ATTRIBUTES = (
    "age_under_21",
    "age_21_plus",
    "cis_male",
    "cis_female",
    "trans_male",
    "trans_female",
    "non_binary",
    "genderqueer",
    "intersex",
    "heterosexual",
    "gay",
    "lesbian",
    "bisexual",
    "queer",
    "questioning",
    "asexual",
    "pansexual",
    "children",
    "citizen",
    "immigrant",
    "ht_victim",
)

INTENSITIES = ("Single", "Low", "Medium", "High")

# Organization kinds.
HOUSING = "housing"
REFERRAL = "referral"
INCOMPATIBILITY = "incompatibility"
ORG_KINDS = (HOUSING, REFERRAL, INCOMPATIBILITY)

# The bed service has a fixed id in every catalog.
BED_SERVICE_ID = 1


class DomainError(ValueError):
    """Invalid domain data (bad need, malformed profile, unknown id)."""


class UnknownServiceError(KeyError):
    """Lookup of a service id that is not in the catalog."""


def periodicity(duration_d: int, frequency_f: int) -> int:
    """Target gap in days between repeated occurrences: floor(d / f).

    Rejects frequencies that would produce a zero gap (f < 1 or f > d),
    which mark an invalid need.
    """
    if duration_d < 1:
        raise DomainError(f"duration must be >= 1, got {duration_d}")
    if frequency_f < 1 or frequency_f > duration_d:
        raise DomainError(
            f"frequency must be in [1, duration]; got f={frequency_f}, d={duration_d}"
        )
    return duration_d // frequency_f


@dataclass(frozen=True)
class ServiceIntensity:
    """One service/intensity pair from the catalog."""

    id: int
    category: str
    intensity: str
    periodic: bool
    flexibility_k: int = 0

    def __post_init__(self) -> None:
        if self.id < 1:
            raise DomainError(f"service id must be >= 1, got {self.id}")
        if self.intensity not in INTENSITIES:
            raise DomainError(f"unknown intensity {self.intensity!r}")
        if self.flexibility_k < 0:
            raise DomainError("flexibility_k must be >= 0")
        if not self.periodic and self.flexibility_k != 0:
            raise DomainError("non-periodic services carry no flexibility window")


class ServiceCatalog:
    """Indexed collection of ServiceIntensity entries.

    Service ids are unique; id 1, when present, must be the single-intensity
    daily bed service.
    """

    def __init__(self, services: Iterable[ServiceIntensity]):
        self._by_id: dict[int, ServiceIntensity] = {}
        for svc in services:
            if svc.id in self._by_id:
                raise DomainError(f"duplicate service id {svc.id}")
            self._by_id[svc.id] = svc
        bed = self._by_id.get(BED_SERVICE_ID)
        if bed is not None:
            if bed.category != "Bed" or bed.intensity != "Single":
                raise DomainError("service id 1 is reserved for the Single-intensity bed")
            if not bed.periodic or bed.flexibility_k != 0:
                raise DomainError("bed must be periodic with zero flexibility")

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(sorted(self._by_id.values(), key=lambda s: s.id))

    def __contains__(self, service_id: int) -> bool:
        return service_id in self._by_id

    def get(self, service_id: int) -> ServiceIntensity:
        try:
            return self._by_id[service_id]
        except KeyError:
            raise UnknownServiceError(f"unknown service id {service_id}") from None

    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_id))

    def categories(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for svc in self:
            seen.setdefault(svc.category, None)
        return tuple(seen)

    def ids_for_category(self, category: str) -> tuple[int, ...]:
        return tuple(s.id for s in self if s.category == category)


@dataclass(frozen=True)
class DemographicProfile:
    """Fixed-length bit vector over the demographic attribute set.

    For a youth the bits describe who they are (exactly one age band and one
    gender bit set); for an organization they are acceptance flags.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise DomainError("profile bits must be 0/1")

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def all_ones(cls, n: int = len(ATTRIBUTES)) -> "DemographicProfile":
        return cls(bits=(1,) * n)


def demographic_compatible(youth: DemographicProfile, org: DemographicProfile) -> bool:
    """True iff the organization accepts every attribute the youth carries."""
    if len(youth) != len(org):
        raise DomainError(
            f"profile length mismatch: youth {len(youth)} vs organization {len(org)}"
        )
    return all(o == 1 for y, o in zip(youth.bits, org.bits) if y == 1)


@dataclass(frozen=True)
class ServiceNeed:
    """One requested service with its schedule parameters.

    duration_d is the number of days the service spans, frequency_f how many
    occurrences are required, and [window_start_a, window_end_b] the earliest
    and latest day the first occurrence may happen.
    """

    service: int
    duration_d: int
    frequency_f: int
    window_start_a: int
    window_end_b: int

    def __post_init__(self) -> None:
        if self.duration_d < 1:
            raise DomainError("need duration must be >= 1")
        if not 1 <= self.frequency_f <= self.duration_d:
            raise DomainError("need frequency must satisfy 1 <= f <= d")
        if not 1 <= self.window_start_a <= self.window_end_b:
            raise DomainError("need window must satisfy 1 <= a <= b")

    @property
    def omega(self) -> int:
        return periodicity(self.duration_d, self.frequency_f)


@dataclass(frozen=True)
class YouthProfile:
    id: int
    arrival_l: int
    demographics: DemographicProfile
    needs: tuple[ServiceNeed, ...]
    abandoned: bool = False

    def __post_init__(self) -> None:
        if self.arrival_l < 1:
            raise DomainError("arrival day must be >= 1")
        for need in self.needs:
            if need.window_start_a < self.arrival_l:
                raise DomainError(
                    f"youth {self.id}: need window opens before arrival day"
                )
        bed_needs = [n for n in self.needs if n.service == BED_SERVICE_ID]
        if len(bed_needs) != 1:
            raise DomainError(f"youth {self.id} must have exactly one bed need")

    def need_for(self, service_id: int) -> ServiceNeed:
        for need in self.needs:
            if need.service == service_id:
                return need
        raise UnknownServiceError(f"youth {self.id} has no need for service {service_id}")


@dataclass(frozen=True)
class OrganizationProfile:
    """An organization with its acceptance mask, offers, capacities and costs.

    capacity_c maps a service id to either a constant daily capacity or a
    per-day tuple of length horizon. headroom_mu bounds total in-house
    capacity after expansion (c + E <= mu). Costs are per unit: cost_assign_r
    for one assignment-day, cost_expand_gamma for one extra in-house unit-day,
    cost_overflow_lambda for one overflow unit-day.
    """

    id: int
    kind: str
    accepts: DemographicProfile
    offers: frozenset[int]
    capacity_c: Mapping[int, int | tuple[int, ...]]
    headroom_mu: Mapping[int, int]
    cost_assign_r: Mapping[int, float]
    cost_expand_gamma: Mapping[int, float]
    cost_overflow_lambda: Mapping[int, float]

    def __post_init__(self) -> None:
        if self.kind not in ORG_KINDS:
            raise DomainError(f"unknown organization kind {self.kind!r}")
        for sid in self.offers:
            c = self.capacity_c.get(sid, 0)
            cmax = max(c) if isinstance(c, tuple) else c
            mu = self.headroom_mu.get(sid, cmax)
            if cmax > mu:
                raise DomainError(
                    f"org {self.id}: capacity exceeds headroom for service {sid}"
                )
            r = self.cost_assign_r.get(sid, 0.0)
            if self.kind == HOUSING and r != 0.0:
                raise DomainError("in-house assignment must have zero cost")
            if self.kind == REFERRAL and r <= 0.0:
                raise DomainError("referral assignment must have positive cost")

    def capacity(self, service_id: int, t: int) -> int:
        c = self.capacity_c.get(service_id, 0)
        if isinstance(c, tuple):
            return c[t - 1]
        return c

    def headroom(self, service_id: int) -> int:
        c = self.capacity_c.get(service_id, 0)
        cmax = max(c) if isinstance(c, tuple) else c
        return self.headroom_mu.get(service_id, cmax)


def service_offered(org: OrganizationProfile, service_id: int, catalog: ServiceCatalog) -> bool:
    """Whether the organization can deliver the given service.

    The incompatibility organization offers everything. Unknown ids raise.
    """
    if service_id not in catalog:
        raise UnknownServiceError(f"unknown service id {service_id}")
    if org.kind == INCOMPATIBILITY:
        return True
    return service_id in org.offers


@dataclass(frozen=True)
class ProblemInstance:
    horizon_T: int
    services: ServiceCatalog
    youths: tuple[YouthProfile, ...]
    organizations: tuple[OrganizationProfile, ...]
    rng_seed: int = 0
    meta: Mapping[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        if self.horizon_T < 1:
            raise DomainError("horizon must be >= 1")
        psi = [o for o in self.organizations if o.kind == INCOMPATIBILITY]
        if len(psi) != 1:
            raise DomainError(
                f"instance must contain exactly one incompatibility organization, found {len(psi)}"
            )
        widths = {len(o.accepts) for o in self.organizations} | {
            len(y.demographics) for y in self.youths
        }
        if len(widths) > 1:
            raise DomainError("all demographic profiles must have the same length")
        seen_org = set()
        for org in self.organizations:
            if org.id in seen_org:
                raise DomainError(f"duplicate organization id {org.id}")
            seen_org.add(org.id)
        seen_youth = set()
        for youth in self.youths:
            if youth.id in seen_youth:
                raise DomainError(f"duplicate youth id {youth.id}")
            seen_youth.add(youth.id)
            if youth.arrival_l > self.horizon_T:
                raise DomainError(f"youth {youth.id} arrives after the horizon")
            for need in youth.needs:
                if need.service not in self.services:
                    raise DomainError(
                        f"youth {youth.id} requests unknown service {need.service}"
                    )
                if need.window_end_b > self.horizon_T:
                    raise DomainError(
                        f"youth {youth.id}: need window ends beyond the horizon"
                    )

    def housing_orgs(self) -> tuple[OrganizationProfile, ...]:
        return tuple(o for o in self.organizations if o.kind == HOUSING)

    def org_by_id(self, org_id: int) -> OrganizationProfile:
        for org in self.organizations:
            if org.id == org_id:
                return org
        raise DomainError(f"unknown organization id {org_id}")

    def youth_by_id(self, youth_id: int) -> YouthProfile:
        for youth in self.youths:
            if youth.id == youth_id:
                return youth
        raise DomainError(f"unknown youth id {youth_id}")


# ---------------------------------------------------------------------------
# JSON serialization. One document per instance; field names match the type
# definitions above, and the demographic bit order follows ATTRIBUTES.
# ---------------------------------------------------------------------------


def _capacity_to_json(c: int | tuple[int, ...]) -> object:
    return list(c) if isinstance(c, tuple) else c


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "horizon_T": instance.horizon_T,
        "rng_seed": instance.rng_seed,
        "attributes": list(ATTRIBUTES)
        if instance.organizations
        and len(instance.organizations[0].accepts) == len(ATTRIBUTES)
        else [f"attr_{i}" for i in range(len(instance.organizations[0].accepts))]
        if instance.organizations
        else [],
        "services": [
            {
                "id": s.id,
                "category": s.category,
                "intensity": s.intensity,
                "periodic": s.periodic,
                "flexibility_k": s.flexibility_k,
            }
            for s in instance.services
        ],
        "youths": [
            {
                "id": y.id,
                "arrival_l": y.arrival_l,
                "demographics": list(y.demographics.bits),
                "abandoned": y.abandoned,
                "needs": [
                    {
                        "service": n.service,
                        "duration_d": n.duration_d,
                        "frequency_f": n.frequency_f,
                        "window_start_a": n.window_start_a,
                        "window_end_b": n.window_end_b,
                    }
                    for n in y.needs
                ],
            }
            for y in instance.youths
        ],
        "organizations": [
            {
                "id": o.id,
                "kind": o.kind,
                "accepts": list(o.accepts.bits),
                "offers": sorted(o.offers),
                "capacity_c": {str(k): _capacity_to_json(v) for k, v in sorted(o.capacity_c.items())},
                "headroom_mu": {str(k): v for k, v in sorted(o.headroom_mu.items())},
                "cost_assign_r": {str(k): v for k, v in sorted(o.cost_assign_r.items())},
                "cost_expand_gamma": {str(k): v for k, v in sorted(o.cost_expand_gamma.items())},
                "cost_overflow_lambda": {
                    str(k): v for k, v in sorted(o.cost_overflow_lambda.items())
                },
            }
            for o in instance.organizations
        ],
        "meta": dict(instance.meta),
    }


def instance_to_json(instance: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))


def _capacity_from_json(v: object) -> int | tuple[int, ...]:
    return tuple(v) if isinstance(v, list) else int(v)  # type: ignore[arg-type]


def instance_from_dict(doc: Mapping) -> ProblemInstance:
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DomainError(f"unsupported instance schema version {version!r}")
    services = ServiceCatalog(
        ServiceIntensity(
            id=s["id"],
            category=s["category"],
            intensity=s["intensity"],
            periodic=s["periodic"],
            flexibility_k=s["flexibility_k"],
        )
        for s in doc["services"]
    )
    youths = tuple(
        YouthProfile(
            id=y["id"],
            arrival_l=y["arrival_l"],
            demographics=DemographicProfile(bits=tuple(y["demographics"])),
            abandoned=y.get("abandoned", False),
            needs=tuple(
                ServiceNeed(
                    service=n["service"],
                    duration_d=n["duration_d"],
                    frequency_f=n["frequency_f"],
                    window_start_a=n["window_start_a"],
                    window_end_b=n["window_end_b"],
                )
                for n in y["needs"]
            ),
        )
        for y in doc["youths"]
    )
    organizations = tuple(
        OrganizationProfile(
            id=o["id"],
            kind=o["kind"],
            accepts=DemographicProfile(bits=tuple(o["accepts"])),
            offers=frozenset(o["offers"]),
            capacity_c={int(k): _capacity_from_json(v) for k, v in o["capacity_c"].items()},
            headroom_mu={int(k): int(v) for k, v in o["headroom_mu"].items()},
            cost_assign_r={int(k): float(v) for k, v in o["cost_assign_r"].items()},
            cost_expand_gamma={int(k): float(v) for k, v in o["cost_expand_gamma"].items()},
            cost_overflow_lambda={
                int(k): float(v) for k, v in o["cost_overflow_lambda"].items()
            },
        )
        for o in doc["organizations"]
    )
    return ProblemInstance(
        horizon_T=doc["horizon_T"],
        services=services,
        youths=youths,
        organizations=organizations,
        rng_seed=doc.get("rng_seed", 0),
        meta=dict(doc.get("meta", {})),
    )


def instance_from_json(text: str) -> ProblemInstance:
    return instance_from_dict(json.loads(text))


def load_instance(path: str) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(instance: ProblemInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance))
        fh.write("\n")
