import numpy as np
import pytest

from shelterplan import datagen
from shelterplan.domain import BED_SERVICE_ID, ServiceIntensity, ServiceNeed
from shelterplan.model import build
from shelterplan.scenarios import (
    DESK_BASE,
    ScenarioSpec,
    apply_base_deltas,
    bed_sources,
    expansion_percentages,
    experiment_grid,
    medical_referral_share,
    overflow_timeseries,
    run_scenario,
    service_source_breakdown,
)
from shelterplan.solver import Solution, SolverConfig, branch_and_bound, verify

from conftest import bed_catalog, bed_need, make_instance, org, psi_org, youth


def synthetic_solution(values):
    return Solution(
        values=values, objective=0.0, bound=0.0, gap=0.0,
        status="Optimal", decomposition={},
    )


@pytest.fixture(scope="module")
def forced_overflow():
    """Two overlapping stays against one bed with no headroom: one youth
    overflows on exactly days 3-5."""
    inst = make_instance(
        8,
        bed_catalog(),
        [youth(1, 1, [bed_need(5, 1, 1)]), youth(2, 3, [bed_need(3, 3, 3)])],
        [org(1, cap=1, head=0, lam=4.0), psi_org(2, [1])],
    )
    sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0))
    assert verify(inst, sol).ok
    return inst, sol


class TestOverflowSeries:
    def test_zero_solution_gives_zero_series(self):
        inst = make_instance(
            6, bed_catalog(), [youth(1, 1, [bed_need(2, 1, 2)])],
            [org(1, cap=1), psi_org(2, [1])],
        )
        sol = branch_and_bound(build(inst), SolverConfig())
        series = overflow_timeseries(inst, sol)
        assert series.tolist() == [0.0] * 6

    def test_forced_days_three_to_five(self, forced_overflow):
        inst, sol = forced_overflow
        series = overflow_timeseries(inst, sol, org_id=1)
        assert series.tolist() == [0, 0, 1, 1, 1, 0, 0, 0]

    def test_max_of_series_is_the_metric(self, forced_overflow):
        inst, sol = forced_overflow
        series = overflow_timeseries(inst, sol)
        assert series.max() == 1.0


class TestExpansionPercentages:
    def test_all_zero_expansion(self):
        inst = make_instance(
            6, bed_catalog(), [youth(1, 1, [bed_need(2, 1, 2)])],
            [org(1, cap=2), psi_org(2, [1])],
        )
        sol = branch_and_bound(build(inst), SolverConfig())
        pct = expansion_percentages(inst, sol)
        assert pct["per_org"][1] == 0.0
        assert pct["system_average"] == 0.0

    def test_arithmetic_definition(self):
        inst = make_instance(
            6, bed_catalog(), [youth(1, 1, [bed_need(2, 1, 2)])],
            [org(1, cap=10, head=5), psi_org(2, [1])],
        )
        values = {
            "X_y1_s1_i1_t1": 1.0, "X_y1_s1_i1_t2": 1.0, "U_y1_s1_i1": 1.0,
            "E_s1_i1_t1": 2.0, "O_s1_i1_t1": 3.0,
        }
        pct = expansion_percentages(inst, synthetic_solution(values))
        assert pct["per_org"][1] == pytest.approx(50.0)

    def test_zero_bed_org_reported_not_applicable(self):
        inst = make_instance(
            6, bed_catalog(), [youth(1, 1, [bed_need(2, 1, 2)])],
            [org(1, cap=0, head=1), psi_org(2, [1])],
        )
        sol = branch_and_bound(build(inst), SolverConfig())
        pct = expansion_percentages(inst, sol)
        assert pct["per_org"][1] is None


class TestBedSources:
    def test_counts_sum_to_served(self, forced_overflow):
        inst, sol = forced_overflow
        beds = bed_sources(inst, sol)
        total = beds["incompatibility"] + sum(
            sum(bucket.values()) for bucket in beds["per_org"].values()
        )
        assert total == beds["served"] == 2

    def test_overflow_youth_attributed(self, forced_overflow):
        inst, sol = forced_overflow
        beds = bed_sources(inst, sol)
        bucket = beds["per_org"][1]
        assert bucket["overflow"] == 1
        assert bucket["existing"] == 1


class TestServiceBreakdown:
    def _catalog(self):
        return bed_catalog(
            [
                ServiceIntensity(2, "Medical", "Medium", True, 1),
                ServiceIntensity(3, "Counseling", "Low", True, 1),
            ]
        )

    def test_category_offered_nowhere_in_house_is_pure_referral(self):
        config = datagen.GenerationConfig(n_youth=60, horizon_T=50, bed_scale=0.1, seed=42)
        inst = datagen.generate_instance(config)
        med_mh = [
            s.id for s in inst.services
            if s.category == "Medical" and s.intensity in ("Medium", "High")
        ]
        for o in inst.housing_orgs():
            assert not (o.offers & set(med_mh))

        sol = branch_and_bound(build(inst), SolverConfig())
        # Medium/High medical units can only come from the referral provider
        # or the catch-all, never from a housing organization.
        from shelterplan.scenarios import _solution_tables

        x, _, _ = _solution_tables(sol)
        housing = {o.id for o in inst.housing_orgs()}
        assert not any(
            s in housing and i in med_mh for (y, s, i, t) in x
        )

    def test_referral_preferred_over_expansion(self):
        # gamma > referral cost: at the optimum the second unit goes to the
        # provider, never to extra in-house capacity. Both needs are pinned
        # to day 1, so the single in-house slot cannot serve them both.
        catalog = self._catalog()
        ys = [
            youth(1, 1, [bed_need(2, 1, 2), ServiceNeed(3, 4, 1, 1, 1)]),
            youth(2, 1, [bed_need(2, 1, 2), ServiceNeed(3, 4, 1, 1, 1)]),
        ]
        housing = org(1, offers=(1, 3), cap={1: 5, 3: 1}, head={1: 5, 3: 3}, gamma=5.0)
        provider = org(
            3, kind="referral", offers=(3,), cap=10, head=0, r=1.0, gamma=5.0, lam=20.0
        )
        inst = make_instance(8, catalog, ys, [housing, provider, psi_org(4, [1, 2, 3])])
        sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0))
        bd = service_source_breakdown(inst, sol)
        row = bd["by_category"]["Counseling"]
        assert row == {
            "in_house": 1, "extra": 0, "overflow": 0, "referral": 1, "incompatibility": 0
        }

    def test_zero_demand_category_is_all_zero(self):
        catalog = self._catalog()
        inst = make_instance(
            6, catalog, [youth(1, 1, [bed_need(2, 1, 2)])],
            [org(1, offers=(1, 2, 3), cap=2), psi_org(2, [1, 2, 3])],
        )
        sol = branch_and_bound(build(inst), SolverConfig())
        bd = service_source_breakdown(inst, sol)
        assert all(v == 0 for v in bd["by_category"]["Medical"].values())

    def test_heatmap_dimensions(self):
        config = datagen.GenerationConfig(n_youth=10, horizon_T=30, bed_scale=0.1, seed=2)
        inst = datagen.generate_instance(config)
        sol = branch_and_bound(build(inst), SolverConfig())
        bd = service_source_breakdown(inst, sol)
        categories = inst.services.categories()
        assert len(categories) == 14
        assert len(bd["heatmap"]) == len(inst.housing_orgs()) * 14

    def test_medical_share_helper(self):
        bd = {"by_category": {"Medical": {
            "in_house": 3, "extra": 1, "overflow": 0, "referral": 4, "incompatibility": 0
        }}}
        assert medical_referral_share(bd) == pytest.approx(0.5)


class TestScenarioRuns:
    def test_base_delta_is_zero_against_itself(self, monkeypatch):
        from shelterplan import scenarios

        # One parse of the solution per seed feeds every metric.
        calls = []
        real = scenarios._solution_tables
        monkeypatch.setattr(
            scenarios, "_solution_tables", lambda *a: calls.append(1) or real(*a)
        )
        spec = ScenarioSpec("base", {}, seeds=(11, 12))
        base_cfg = datagen.GenerationConfig(n_youth=12, horizon_T=30, bed_scale=0.1)
        rep = run_scenario(spec, base_cfg, SolverConfig(), datagen.load_default_tables())
        apply_base_deltas([rep])
        assert rep.overflow_cost_change_pct == 0.0
        assert calls == [1, 1]

    def test_metrics_recomputable_from_serialized_solution(self, tmp_path):
        from shelterplan.solver import load_solution, save_solution

        config = datagen.GenerationConfig(n_youth=10, horizon_T=30, bed_scale=0.1, seed=6)
        inst = datagen.generate_instance(config)
        sol = branch_and_bound(build(inst), SolverConfig())
        path = tmp_path / "sol.json"
        save_solution(sol, str(path))
        again = load_solution(str(path))
        assert overflow_timeseries(inst, sol).tolist() == overflow_timeseries(
            inst, again
        ).tolist()
        assert bed_sources(inst, sol) == bed_sources(inst, again)

    def test_grid_has_expected_axes(self):
        specs = experiment_grid(DESK_BASE, seeds=(1, 2))
        names = [s.name for s in specs]
        assert names == [
            "base", "youth_low", "youth_high", "theta_low", "theta_high",
            "duration_low", "duration_high", "covid",
        ]
        # The pandemic arm is defined by its overrides alone.
        assert specs[-1].overrides == {"n_youth": 40, "capacity_scale": 0.5}
