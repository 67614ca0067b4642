"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy fixtures (the
100-instance desk pool and the 5-seed scenario grid) are session-scoped and
shared between criteria.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from shelterplan import datagen
from shelterplan.cli import main as cli_main
from shelterplan.domain import (
    BED_SERVICE_ID,
    DemographicProfile,
    OrganizationProfile,
    ProblemInstance,
    ServiceCatalog,
    ServiceIntensity,
    ServiceNeed,
    YouthProfile,
    HOUSING,
)
from shelterplan.model import build
from shelterplan.scenarios import DESK_BASE, experiment_grid, run_grid
from shelterplan.solver import (
    STATUS_GAP,
    STATUS_OPTIMAL,
    SolverConfig,
    branch_and_bound,
    brute_force,
    verify,
)

from conftest import (
    bed_catalog, bed_need, make_instance, org, parse_variable_name, population_stats, psi_org,
    youth,
)


def report_line(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def desk_pool():
    """100 solved desk-scale instances (30-70 youth, |T| = 60, gap 0.01)."""
    tables = datagen.load_default_tables()
    config = SolverConfig(rel_gap=0.01)
    pool = []
    for i in range(100):
        gen = datagen.GenerationConfig(
            n_youth=30 + (i * 7) % 41,
            horizon_T=60,
            bed_scale=0.1,
            seed=1000 + i,
        )
        instance = datagen.generate_instance(gen, tables)
        solution = branch_and_bound(build(instance), config)
        pool.append((instance, solution))
    return pool


@pytest.fixture(scope="session")
def grid_reports():
    specs = experiment_grid(DESK_BASE, seeds=(11, 12, 13, 14, 15))
    return {r.name: r for r in run_grid(specs, DESK_BASE, SolverConfig(rel_gap=0.01))}


# ---------------------------------------------------------------------------
# Criterion 1: oracle equivalence on 50 micro-instances
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(micro_pool):
    t0 = time.monotonic()
    checked = 0
    for instance in micro_pool:
        oracle = brute_force(instance)
        solved = branch_and_bound(build(instance), SolverConfig(rel_gap=0.0))
        assert solved.status == oracle.status
        if oracle.status == STATUS_OPTIMAL:
            assert solved.objective == pytest.approx(oracle.objective, abs=1e-6)
            assert solved.gap == 0.0
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 50
    assert elapsed < 60.0
    report_line(1, f"50/50 micro-instances match the enumeration oracle in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: verifier soundness under 1,000 single-fault injections
# ---------------------------------------------------------------------------


def _fuzz_bases():
    catalog = bed_catalog(
        [
            ServiceIntensity(2, "Weekly", "Low", True, 1),
            ServiceIntensity(3, "Checkup", "Low", False, 0),
        ]
    )
    loose_youths = []
    for j in range(1, 11):
        a = j
        loose_youths.append(
            youth(
                j,
                a,
                [
                    bed_need(10, a, a + 2),
                    ServiceNeed(2, 21, 3, a, a + 2),
                    ServiceNeed(3, 12, 3, a, a + 2),
                ],
            )
        )
    loose = make_instance(
        40,
        catalog,
        loose_youths,
        [
            org(1, offers=(1, 2, 3), cap=50, head=5),
            org(2, offers=(1, 2, 3), cap=50, head=5),
            org(3, offers=(1, 2, 3), cap=50, head=5, bits=(0, 1, 1, 1)),
            psi_org(4, (1, 2, 3)),
        ],
    )
    loose_sol = branch_and_bound(build(loose), SolverConfig(rel_gap=0.0))
    assert verify(loose, loose_sol).ok

    tight_youths = [youth(j, 1, [bed_need(8, 1, 3)]) for j in range(1, 6)]
    tight = make_instance(
        15, bed_catalog(), tight_youths, [org(1, cap=1, head=1), psi_org(2, [1])]
    )
    tight_sol = branch_and_bound(build(tight), SolverConfig(rel_gap=0.0))
    assert verify(tight, tight_sol).ok
    return (loose, loose_sol), (tight, tight_sol)


def _occurrences(values, y, i):
    out = []
    for k, v in values.items():
        if v < 0.5 or not k.startswith("X_"):
            continue
        _, idx = parse_variable_name(k)
        if idx["y"] == y and idx["i"] == i:
            out.append((idx["t"], idx["s"], k))
    return sorted(out)


def _free_day(values, y, i, s, lo, hi):
    taken = {t for t, _, _ in _occurrences(values, y, i)}
    for t in range(hi, lo - 1, -1):
        if t not in taken:
            return t
    raise AssertionError("no free day for injection")


def test_criterion_2_verifier_soundness():
    (loose, loose_sol), (tight, tight_sol) = _fuzz_bases()
    rng = np.random.default_rng(2025)
    families = ("2a", "2b", "2c", "2d", "2e", "3a", "3b", "4a", "4b", "4c")
    per_family = 100
    false_passes = 0

    tight_o_keys = sorted(
        k for k, v in tight_sol.values.items() if k.startswith("O_") and v >= 1.0
    )
    assert tight_o_keys, "tight base must overflow"
    loose_orgs = {o.id: o for o in loose.organizations}
    loose_needs_3 = {y.id: n for y in loose.youths for n in y.needs if n.service == 3}
    loose_triples = sorted(
        {
            (idx["s"], idx["i"], idx["t"])
            for k in loose_sol.values
            if k.startswith("X_")
            for idx in [parse_variable_name(k)[1]]
        }
    )

    for family in families:
        for _ in range(per_family):
            if family in ("2a",):
                base_inst, base_vals = tight, dict(tight_sol.values)
            else:
                base_inst, base_vals = loose, dict(loose_sol.values)
            y = int(rng.integers(1, 11))
            expected = None

            if family == "2a":
                key = tight_o_keys[int(rng.integers(0, len(tight_o_keys)))]
                _, idx = parse_variable_name(key)
                if base_vals[key] <= 1.0:
                    del base_vals[key]
                else:
                    base_vals[key] -= 1.0
                expected = f"s={idx['s']},i={idx['i']},t={idx['t']}"
            elif family == "2b":
                s, i, t = loose_triples[int(rng.integers(0, len(loose_triples)))]
                orgp = loose_orgs[s]
                over = orgp.headroom(i) - orgp.capacity(i, t) + 1
                base_vals[f"E_s{s}_i{i}_t{t}"] = float(over)
                expected = f"s={s},i={i},t={t}"
            elif family == "2c":
                i = int(rng.integers(1, 4))
                occ = _occurrences(base_vals, y, i)
                used = occ[0][1]
                other = 1 if used != 1 else 2
                base_vals[f"U_y{y}_s{other}_i{i}"] = 1.0
                expected = f"y={y},i={i}"
            elif family == "2d":
                i = int(rng.integers(1, 4))
                occ = _occurrences(base_vals, y, i)
                used = occ[0][1]
                del base_vals[f"U_y{y}_s{used}_i{i}"]
                expected = f"y={y},s={used},i={i}"
            elif family == "2e":
                i = int(rng.integers(1, 4))
                occ = _occurrences(base_vals, y, i)
                used = occ[0][1]
                for t, s, k in occ:
                    del base_vals[k]
                    base_vals[f"X_y{y}_s3_i{i}_t{t}"] = 1.0
                del base_vals[f"U_y{y}_s{used}_i{i}"]
                base_vals[f"U_y{y}_s3_i{i}"] = 1.0
                expected = f"y={y},s=3,i={i}"
            elif family == "3a":
                need = loose_needs_3[y]
                occ = _occurrences(base_vals, y, 3)
                t, s, k = occ[-1]
                del base_vals[k]
                bad_t = need.window_end_b + need.duration_d + 1
                base_vals[f"X_y{y}_s{s}_i3_t{bad_t}"] = 1.0
                expected = f"y={y},i=3,t={bad_t}"
            elif family == "3b":
                # Push every in-window occurrence past the start window so
                # the need has no valid start left.
                need = loose_needs_3[y]
                for t, s, k in _occurrences(base_vals, y, 3):
                    if t > need.window_end_b:
                        continue
                    new_t = _free_day(
                        base_vals, y, 3, s, need.window_end_b + 1,
                        need.window_end_b + need.duration_d,
                    )
                    del base_vals[k]
                    base_vals[f"X_y{y}_s{s}_i3_t{new_t}"] = 1.0
                expected = f"y={y},i=3"
            elif family == "4a":
                occ = _occurrences(base_vals, y, 3)
                del base_vals[occ[-1][2]]
                expected = f"y={y},i=3"
            elif family == "4b":
                occ = _occurrences(base_vals, y, 2)
                (t_prev, s, _), (t_last, _, k_last) = occ[-2], occ[-1]
                new_t = t_prev + 7 + 1 + 1  # omega + k + 1
                del base_vals[k_last]
                base_vals[f"X_y{y}_s{s}_i2_t{new_t}"] = 1.0
                expected = f"y={y},i=2,t={new_t}"
            elif family == "4c":
                occ = _occurrences(base_vals, y, 2)
                (t_prev, s, _), (t_last, _, k_last) = occ[-2], occ[-1]
                new_t = t_prev + 7 - 1 - 1  # omega - k - 1
                del base_vals[k_last]
                base_vals[f"X_y{y}_s{s}_i2_t{new_t}"] = 1.0
                expected = f"y={y},i=2,t={new_t}"

            report = verify(base_inst, base_vals)
            if report.ok:
                false_passes += 1
                continue
            violated = {f for f, ok in report.family_ok.items() if not ok}
            assert violated == {family}, (
                f"{family} injection flagged {violated}: {report.first_violation}"
            )
            assert report.first_violation[family] == expected

    assert false_passes == 0
    report_line(2, "1000 single-fault injections all flagged with family and index")


# ---------------------------------------------------------------------------
# Criterion 3: feasibility and gap guarantee on 100 generated instances
# ---------------------------------------------------------------------------


def test_criterion_3_feasibility_guarantee(desk_pool):
    assert len(desk_pool) == 100
    for instance, solution in desk_pool:
        assert solution.status in (STATUS_OPTIMAL, STATUS_GAP)
        assert solution.gap <= 0.01 + 1e-12
        assert verify(instance, solution).ok
    report_line(3, "100/100 desk-scale instances solved to gap <= 0.01, none infeasible")


# ---------------------------------------------------------------------------
# Criterion 4: generator fidelity at 10,000 youth
# ---------------------------------------------------------------------------


def test_criterion_4_generator_fidelity():
    tables = datagen.load_default_tables()
    config = datagen.GenerationConfig(n_youth=10000, horizon_T=180, seed=110)
    catalog = datagen.build_catalog(tables)
    organizations = datagen.build_organizations(config, tables, catalog)
    offered = datagen.offered_levels_by_category(catalog, organizations)
    st_ = population_stats(config, tables, catalog, offered)
    n = config.n_youth
    fine = st_["fine"]

    def pct(pred):
        return 100.0 * sum(1 for f in fine if pred(f)) / n

    demo_targets = [
        (pct(lambda f: f["age"] == "16-17"), 9.8),
        (pct(lambda f: f["age"] == "18-20"), 81.7),
        (pct(lambda f: f["age"] == "21+"), 4.7),
        (pct(lambda f: f["gender"] == "male"), 46.3),
        (pct(lambda f: f["gender"] == "female"), 47.7),
        (pct(lambda f: f["transgender"]), 5.0),
        (pct(lambda f: f["orientation"] == "heterosexual"), 71.0),
        (pct(lambda f: f["children"]), 4.0),
        (pct(lambda f: f["ht_victim"]), 29.5),
    ]
    for observed, target in demo_targets:
        assert abs(observed - target) <= 1.5, (observed, target)

    cats = st_["need_categories"]
    for category, target in tables.needs_rates.items():
        observed = 100.0 * sum(1 for c in cats if category in c) / n
        assert abs(observed - target) <= 1.5, (category, observed, target)
    assert all("Bed" in c for c in cats)

    los = np.asarray(st_["raw_los"], dtype=float)
    assert abs(los.mean() - 60.0) <= 1.0
    assert abs(los.std(ddof=1) - 15.0) <= 1.0

    arrivals = np.asarray(st_["arrivals"])
    observed_counts = np.bincount(arrivals, minlength=181)[1:]
    p = stats.chisquare(observed_counts).pvalue
    assert p > 0.01
    report_line(
        4,
        f"10,000-youth demographics/needs within 1.5pp, LOS {los.mean():.2f}/{los.std(ddof=1):.2f}, "
        f"arrival chi-square p={p:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: sensitivity directions across the grid
# ---------------------------------------------------------------------------


def test_criterion_5_sensitivity_directions(grid_reports):
    youth_axis = [
        grid_reports["youth_low"].mean_overflow_mean,
        grid_reports["base"].mean_overflow_mean,
        grid_reports["youth_high"].mean_overflow_mean,
    ]
    assert youth_axis[0] < youth_axis[1] < youth_axis[2]

    duration_axis = [
        grid_reports["duration_low"].mean_overflow_mean,
        grid_reports["base"].mean_overflow_mean,
        grid_reports["duration_high"].mean_overflow_mean,
    ]
    assert duration_axis[0] < duration_axis[1] < duration_axis[2]

    theta_axis = [
        grid_reports["theta_low"].mean_overflow_mean,
        grid_reports["base"].mean_overflow_mean,
        grid_reports["theta_high"].mean_overflow_mean,
    ]
    assert theta_axis[0] > theta_axis[1] > theta_axis[2]
    report_line(
        5,
        "mean overflow beds strictly monotone: "
        f"youth {youth_axis}, duration {duration_axis}, abandonment {theta_axis}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: expansion saturates before same-day overflow
# ---------------------------------------------------------------------------


def test_criterion_6_expansion_saturation(desk_pool):
    saw_overflow = False
    for instance, solution in desk_pool:
        org_by_id = {o.id: o for o in instance.organizations}
        e_vals, o_vals = {}, {}
        for name, v in solution.values.items():
            if v < 0.5:
                continue
            kind, idx = parse_variable_name(name)
            if idx.get("i") != BED_SERVICE_ID:
                continue
            if kind == "E":
                e_vals[(idx["s"], idx["t"])] = v
            elif kind == "O":
                o_vals[(idx["s"], idx["t"])] = v
        for (s, t), o in o_vals.items():
            orgp = org_by_id[s]
            if orgp.kind != HOUSING:
                continue
            saw_overflow = True
            room = orgp.headroom(BED_SERVICE_ID) - orgp.capacity(BED_SERVICE_ID, t)
            assert e_vals.get((s, t), 0.0) == room, (
                f"org {s} day {t}: overflow {o} with expansion "
                f"{e_vals.get((s, t), 0.0)}/{room}"
            )
    assert saw_overflow
    report_line(6, "every overflow day has in-house expansion at its facility cap")


# ---------------------------------------------------------------------------
# Criterion 7: periodicity schedules in every verified solution
# ---------------------------------------------------------------------------


def test_criterion_7_periodicity_schedules(desk_pool):
    checked = 0
    for instance, solution in desk_pool:
        occ: dict[tuple[int, int], list[int]] = {}
        for name, v in solution.values.items():
            if v < 0.5 or not name.startswith("X_"):
                continue
            _, idx = parse_variable_name(name)
            occ.setdefault((idx["y"], idx["i"]), []).append(idx["t"])
        for youth_profile in instance.youths:
            for need in youth_profile.needs:
                svc = instance.services.get(need.service)
                if not svc.periodic or need.frequency_f < 2:
                    continue
                days = sorted(occ.get((youth_profile.id, need.service), []))
                assert len(days) == need.frequency_f
                omega, k = need.omega, svc.flexibility_k
                lo = max(omega - k, 1)
                for prev, nxt in zip(days, days[1:]):
                    gap = nxt - prev
                    assert lo <= gap <= omega + k, (
                        youth_profile.id, need.service, days
                    )
                checked += 1
    assert checked > 0
    report_line(7, f"{checked} periodic schedules all within [omega-k, omega+k]")


# ---------------------------------------------------------------------------
# Criterion 8: pandemic arm pushes medical care toward referral
# ---------------------------------------------------------------------------


def test_criterion_8_covid_referral_direction(grid_reports):
    base_share = grid_reports["base"].medical_referral_share
    covid_share = grid_reports["covid"].medical_referral_share
    assert base_share is not None and covid_share is not None
    assert covid_share > base_share
    report_line(
        8, f"medical referral share {covid_share:.3f} (pandemic) > {base_share:.3f} (base)"
    )


# ---------------------------------------------------------------------------
# Criterion 9: bit-exact reproduction with one worker
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    runner = CliRunner()
    digests = []
    for run in (1, 2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            assert runner.invoke(
                cli_main,
                ["generate", "--youth", "20", "--days", "40", "--theta", "0.2",
                 "--bed-scale", "0.1", "--seed", "31", "--out", "inst.json"],
            ).exit_code == 0
            assert runner.invoke(
                cli_main,
                ["solve", "--instance", "inst.json", "--out", "sol.json",
                 "--threads", "1", "--mps-out", "model.mps"],
            ).exit_code == 0
            assert runner.invoke(
                cli_main,
                ["report", "--instance", "inst.json", "--solution", "sol.json",
                 "--out-dir", "rep"],
            ).exit_code == 0
            files = ["inst.json", "sol.json", "model.mps"] + sorted(
                os.path.join("rep", f)
                for f in os.listdir("rep")
                if f.endswith(".csv")
            )
            digests.append(
                {
                    f: hashlib.sha256(open(f, "rb").read()).hexdigest()
                    for f in files
                }
            )
        finally:
            os.chdir(cwd)
    assert digests[0] == digests[1]
    report_line(9, f"{len(digests[0])} output files reproduce bit-exactly")
