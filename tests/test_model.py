import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import shelterplan
from shelterplan import datagen, model, solver
from shelterplan.domain import (
    BED_SERVICE_ID,
    DemographicProfile,
    ServiceIntensity,
    ServiceNeed,
    demographic_compatible,
    service_offered,
)
from shelterplan.model import (
    LinearProgram, build, index_values, reachable_days, write_mps, write_triplets,
)
from shelterplan.solver import (
    LP_OPTIMAL,
    STATUS_OPTIMAL,
    SolverConfig,
    branch_and_bound,
    brute_force,
    enumerate_schedules,
    verify,
)

from conftest import (
    add_row, bed_catalog, bed_need, column_names, make_instance, micro_instance, org,
    parse_variable_name, psi_org, solve_lp, write_mps_by_line, write_triplets_by_line, youth,
)


def solve(inst, gap=0.0):
    lp = build(inst)
    return lp, branch_and_bound(lp, SolverConfig(rel_gap=gap))


def xdays(solution, y, i):
    days = []
    for name, v in solution.values.items():
        if v < 0.5:
            continue
        kind, idx = parse_variable_name(name)
        if kind == "X" and idx["y"] == y and idx["i"] == i:
            days.append((idx["t"], idx["s"]))
    return sorted(days)


class TestObjective:
    def test_zero_costs_zero_optimum(self):
        inst = make_instance(
            10,
            bed_catalog(),
            [youth(1, 1, [bed_need(3, 1, 2)])],
            [org(1, cap=0, head=2, gamma=0.0, lam=0.0), psi_org(2, [1], r=0.0)],
        )
        _, sol = solve(inst)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective == 0.0

    def test_in_house_capacity_has_zero_cost(self):
        inst = make_instance(
            10,
            bed_catalog(),
            [youth(1, 1, [bed_need(4, 1, 2)])],
            [org(1, cap=1), psi_org(2, [1])],
        )
        _, sol = solve(inst)
        assert sol.objective == 0.0

    def test_forced_overflow_day_costs_lambda(self):
        # One youth, single-day stay, zero capacity and headroom: the only
        # non-catch-all option is one overflow unit at lambda = 7.
        inst = make_instance(
            5,
            bed_catalog(),
            [youth(1, 1, [bed_need(1, 1, 1)])],
            [org(1, cap=0, head=0, lam=7.0), psi_org(2, [1], r=50.0)],
        )
        _, sol = solve(inst)
        assert sol.objective == pytest.approx(7.0)
        assert sol.decomposition["overflow"] == pytest.approx(7.0)


class TestCapacityRows:
    def test_pigeonhole_forces_expansion_and_overflow(self):
        ys = [youth(j, 1, [bed_need(1, 1, 1)]) for j in (1, 2, 3)]
        inst = make_instance(
            5, bed_catalog(), ys, [org(1, cap=1, head=1), psi_org(2, [1], cap=3)]
        )
        _, sol = solve(inst)
        assert sol.values.get("E_s1_i1_t1", 0.0) >= 1.0
        assert sol.values.get("O_s1_i1_t1", 0.0) >= 1.0

    def test_zero_headroom_fixes_expansion_to_zero(self):
        inst = make_instance(
            6,
            bed_catalog(),
            [youth(1, 1, [bed_need(2, 1, 2)]), youth(2, 1, [bed_need(2, 1, 2)])],
            [org(1, cap=1, head=0), psi_org(2, [1])],
        )
        lp, sol = solve(inst)
        for col, (kind, s) in enumerate(zip(lp.col_kind, lp.col_s)):
            if kind == "E" and s == 1:
                assert lp.ub[col] == 0.0
        assert not any(k.startswith("E_s1") for k in sol.values)

    def test_headroom_is_the_expansion_bound(self):
        # 2b (c + E <= mu) is each E column's upper bound, not a row.
        inst = datagen.generate_instance(
            datagen.GenerationConfig(n_youth=12, horizon_T=30, bed_scale=0.1, seed=1)
        )
        lp = build(inst)
        assert "2b" not in lp.row_family
        orgs = {o.id: o for o in inst.organizations}
        e_cols = [col for col, kind in enumerate(lp.col_kind) if kind == "E"]
        assert e_cols
        for col in e_cols:
            org_, i = orgs[lp.col_s[col]], lp.col_i[col]
            assert lp.ub[col] == org_.headroom(i) - org_.capacity(i, lp.col_t[col])

    def test_no_admissible_youth_emits_no_rows(self):
        # Organization 1 rejects this youth, so no (s=1) capacity rows exist.
        inst = make_instance(
            6,
            bed_catalog(),
            [youth(1, 1, [bed_need(2, 1, 2)], bits=(1, 1, 1, 1))],
            [org(1, bits=(1, 0, 1, 1)), psi_org(2, [1])],
        )
        lp = build(inst)
        assert not any(name.startswith("C2a_s1") for name in lp.row_names)
        assert 1 not in lp.col_s


class TestAssignmentRows:
    def test_single_serving_org_per_need(self):
        ys = [youth(1, 1, [bed_need(6, 1, 3)])]
        inst = make_instance(
            10, bed_catalog(), ys, [org(1, cap=1), org(2, cap=1), psi_org(3, [1])]
        )
        _, sol = solve(inst)
        orgs_used = {s for _, s in xdays(sol, 1, 1)}
        assert len(orgs_used) == 1
        u_set = [k for k, v in sol.values.items() if k.startswith("U_y1") and v > 0.5]
        assert len(u_set) == 1

    def test_incompatible_pair_has_no_columns(self):
        inst = make_instance(
            8,
            bed_catalog(),
            [youth(1, 1, [bed_need(3, 1, 2)], bits=(1, 1, 0, 0))],
            [org(1, bits=(1, 1, 1, 1)), org(2, bits=(1, 0, 0, 0)), psi_org(3, [1])],
        )
        lp = build(inst)
        assert not any(kind in ("U", "X") and s == 2 for kind, s in zip(lp.col_kind, lp.col_s))

    def test_2d_rows_link_each_org(self):
        # A weekly need with flexibility 1 at three organizations. The bed
        # stay links through its W rows instead (see TestPeriodicityRows).
        inst = make_instance(
            30,
            bed_catalog([ServiceIntensity(2, "Counseling", "Low", True, 1)]),
            [youth(1, 1, [bed_need(2, 1, 2), ServiceNeed(2, 21, 3, 1, 3)])],
            [org(1, offers=(1, 2)), org(2, offers=(1, 2)), psi_org(3, [1, 2])],
        )
        lp = build(inst)
        links = [n for n in lp.row_names if n.startswith("C2d_y1")]
        assert links == ["C2d_y1_s1_i2", "C2d_y1_s2_i2", "C2d_y1_s3_i2"]


class TestTimeWindows:
    def test_degenerate_window_fixes_start(self):
        inst = make_instance(
            8, bed_catalog(), [youth(1, 2, [bed_need(3, 2, 2)])],
            [org(1, cap=1), psi_org(2, [1])],
        )
        _, sol = solve(inst)
        days = [t for t, _ in xdays(sol, 1, 1)]
        assert days == [2, 3, 4]

    def test_unservable_youth_routes_to_catch_all(self):
        inst = make_instance(
            8,
            bed_catalog(),
            [youth(1, 1, [bed_need(3, 1, 2)], bits=(1, 1, 1, 1))],
            [org(1, bits=(0, 1, 1, 1)), psi_org(2, [1])],
        )
        _, sol = solve(inst)
        assert {s for _, s in xdays(sol, 1, 1)} == {2}

    def test_no_columns_before_window_start(self):
        inst = make_instance(
            12, bed_catalog(), [youth(1, 4, [bed_need(3, 4, 6)])],
            [org(1), psi_org(2, [1])],
        )
        lp = build(inst)
        for kind, t in zip(lp.col_kind, lp.col_t):
            if kind == "X":
                assert t >= 4


class TestPeriodicityRows:
    def catalog(self, k=1):
        return bed_catalog(
            [
                ServiceIntensity(2, "Counseling", "Low", True, k),
                ServiceIntensity(3, "Checkup", "Low", False, 0),
            ]
        )

    def test_non_periodic_count(self):
        need = ServiceNeed(3, 10, 3, 1, 5)
        inst = make_instance(
            15,
            self.catalog(),
            [youth(1, 1, [bed_need(2, 1, 2), need])],
            [org(1, offers=(1, 2, 3), cap=5), psi_org(2, [1, 2, 3])],
        )
        _, sol = solve(inst)
        days = [t for t, _ in xdays(sol, 1, 3)]
        assert len(days) == 3
        assert all(1 <= t <= 15 for t in days)
        assert min(days) <= 5

    def test_weekly_gaps_within_flexibility(self):
        # All feasible schedules of a weekly need with k=1 have gaps in [6, 8].
        need = ServiceNeed(2, 28, 4, 1, 3)
        assert need.omega == 7
        schedules = enumerate_schedules(need, periodic=True, k=1, horizon_T=40)
        assert schedules
        for days in schedules:
            gaps = [b - a for a, b in zip(days, days[1:])]
            assert all(6 <= g <= 8 for g in gaps)
        inst = make_instance(
            40,
            self.catalog(),
            [youth(1, 1, [bed_need(2, 1, 2), need])],
            [org(1, offers=(1, 2, 3), cap=5), psi_org(2, [1, 2, 3])],
        )
        _, sol = solve(inst)
        days = [t for t, _ in xdays(sol, 1, 2)]
        gaps = [b - a for a, b in zip(days, days[1:])]
        assert len(days) == 4
        assert all(6 <= g <= 8 for g in gaps)

    def test_zero_flexibility_exact_multiples(self):
        need = ServiceNeed(2, 12, 3, 2, 4)
        inst = make_instance(
            20,
            self.catalog(k=0),
            [youth(1, 1, [bed_need(2, 1, 2), need])],
            [org(1, offers=(1, 2, 3), cap=5), psi_org(2, [1, 2, 3])],
        )
        _, sol = solve(inst)
        days = [t for t, _ in xdays(sol, 1, 2)]
        omega = need.omega
        assert len(days) == 3
        assert all(b - a == omega for a, b in zip(days, days[1:]))
        assert 2 <= days[0] <= 4

    def test_bed_block_is_contiguous(self):
        inst = make_instance(
            12, bed_catalog(), [youth(1, 1, [bed_need(6, 1, 4)])],
            [org(1, cap=1), psi_org(2, [1])],
        )
        _, sol = solve(inst)
        days = [t for t, _ in xdays(sol, 1, 1)]
        assert days == list(range(days[0], days[0] + 6))
        assert 1 <= days[0] <= 4

    def test_stay_need_gets_w_rows_instead_of_gap_rows(self):
        # A 3-day bed stay starting on day 1 or 2 at either of two orgs.
        inst = make_instance(
            10, bed_catalog(), [youth(1, 1, [bed_need(3, 1, 2)])],
            [org(1), psi_org(2, [1])],
        )
        lp = build(inst)
        w = [name for name, kind in zip(column_names(lp), lp.col_kind) if kind == "W"]
        assert w == ["W_y1_s1_i1_t1", "W_y1_s1_i1_t2", "W_y1_s2_i1_t1", "W_y1_s2_i1_t2"]
        assert not any(name.startswith(("C4bg", "C4bm")) for name in lp.row_names)
        # W implies the stay's count, window and link rows.
        assert not any(name.startswith(("C2d_", "C3b_", "C4b_")) for name in lp.row_names)
        families = {}
        for name, fam in zip(lp.row_names, lp.row_family):
            families.setdefault(name.split("_")[0], set()).add(fam)
        # One stay row, one link row per (org, X day), one U row per org.
        assert sum(name.startswith("C4bw") for name in lp.row_names) == 1
        assert sum(name.startswith("C4bl") for name in lp.row_names) == 8
        assert sum(name.startswith("C2dw") for name in lp.row_names) == 2
        assert families["C4bw"] == families["C4bl"] == {"4b"}
        assert families["C2dw"] == {"2d"}


class TestBuild:
    def test_vacuous_instance(self):
        inst = make_instance(10, bed_catalog(), [], [org(1), psi_org(2, [1])])
        lp, sol = build(inst), None
        assert lp.n_cols == 0
        sol = branch_and_bound(lp, SolverConfig())
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective == 0.0

    def test_hand_counted_columns(self):
        # Bed need d=3, window [1, 2], two organizations (org1 + catch-all):
        # X days are [a, b+d-1] = [1, 4] per org -> 8 X; 2 U; one E and one O
        # per used (org, service, day) triple -> 8 each; the stay starts on
        # day 1 or 2 at either org -> 4 W. Total 30.
        inst = make_instance(
            10, bed_catalog(), [youth(1, 1, [bed_need(3, 1, 2)])],
            [org(1), psi_org(2, [1])],
        )
        lp = build(inst)
        kinds = lp.counts_by_kind()
        assert kinds == {"U": 2, "X": 8, "E": 8, "O": 8, "W": 4}
        assert lp.n_cols == 30

    def test_micro_matches_enumeration(self):
        rng = np.random.default_rng(7)
        from conftest import micro_instance

        for _ in range(10):
            inst = micro_instance(rng)
            bf = brute_force(inst)
            _, sol = solve(inst)
            assert sol.status == bf.status
            if bf.status == STATUS_OPTIMAL:
                assert sol.objective == pytest.approx(bf.objective, abs=1e-6)

    def test_structural_guarantees_on_generated_instance(self):
        config = datagen.GenerationConfig(n_youth=12, horizon_T=40, bed_scale=0.1, seed=4)
        inst = datagen.generate_instance(config)
        lp = build(inst)
        orgs = {o.id: o for o in inst.organizations}
        youths = {y.id: y for y in inst.youths}
        needs = {(y.id, n.service): n for y in inst.youths for n in y.needs}
        for kind, y_id, s, i, t in zip(lp.col_kind, lp.col_y, lp.col_s, lp.col_i, lp.col_t):
            if kind != "X":
                continue
            y = youths[y_id]
            need = needs[(y_id, i)]
            assert service_offered(orgs[s], i, inst.services)
            assert demographic_compatible(y.demographics, orgs[s].accepts)
            assert need.window_start_a <= t <= min(
                need.window_end_b + need.duration_d, inst.horizon_T
            )

    def test_column_monotonicity(self):
        base_youths = [youth(1, 1, [bed_need(3, 1, 3)])]
        orgs = [org(1), psi_org(2, [1])]
        small = build(make_instance(10, bed_catalog(), base_youths, orgs))
        bigger = build(
            make_instance(
                10, bed_catalog(), base_youths + [youth(2, 2, [bed_need(3, 2, 4)])], orgs
            )
        )
        assert set(column_names(small)) <= set(column_names(bigger))

        tightened = build(
            make_instance(10, bed_catalog(), [youth(1, 1, [bed_need(3, 1, 2)])], orgs)
        )
        assert set(column_names(tightened)) <= set(column_names(small))


class TestSecondOpinion:
    def test_milp_on_built_model_matches_brute_force(self):
        # scipy's HiGHS MIP solves the built model as it stands, W included.
        from scipy.optimize import Bounds, LinearConstraint, milp

        for seed in range(20):
            inst = micro_instance(np.random.default_rng(seed))
            lp = build(inst)
            c, A_ub, b_ub, A_eq, b_eq = lp.to_scipy()
            res = milp(
                c, integrality=np.asarray(lp.is_integer, dtype=int),
                bounds=Bounds(*lp.bounds_arrays()),
                constraints=[
                    LinearConstraint(A_ub, -np.inf, b_ub), LinearConstraint(A_eq, b_eq, b_eq)
                ],
            )
            bf = brute_force(inst)
            if bf.status == STATUS_OPTIMAL:
                assert res.status == 0, seed
                assert res.fun == pytest.approx(bf.objective, abs=1e-6), seed
            else:
                assert res.status == 2, seed

    @pytest.mark.parametrize("seed, root", [(3081, 11961.0), (3118, 11024.0), (3120, 9603.0)])
    def test_root_bound_pinned(self, seed, root):
        # 3081's and 3118's are the root LP values the solver reached on its
        # private strengthened copy of the model before the W columns moved
        # into the built model; 3120's is that of the model that still had
        # the rows E's bounds and the W rows imply.
        inst = datagen.generate_instance(
            datagen.GenerationConfig(n_youth=30, horizon_T=60, bed_scale=0.1, seed=seed)
        )
        res = solve_lp(build(inst))
        assert res.status == LP_OPTIMAL
        assert res.objective == pytest.approx(root, rel=1e-9)


class TestReachableDays:
    def test_single_occurrence_restricted_to_window(self):
        need = ServiceNeed(2, 10, 1, 3, 6)
        assert reachable_days(need, 30, periodic=True, k=1) == [3, 4, 5, 6]

    def test_periodic_days_form_interval_union(self):
        need = ServiceNeed(2, 28, 3, 5, 7)
        days = reachable_days(need, 60, periodic=True, k=1)
        omega = need.omega
        for t in days:
            assert any(
                5 + j * (omega - 1) <= t <= 7 + j * (omega + 1) for j in range(3)
            )

    def test_days_clipped_to_horizon(self):
        need = ServiceNeed(1, 10, 10, 8, 9)
        days = reachable_days(need, 12, periodic=True, k=0)
        assert max(days) <= 12


class TestExports:
    @pytest.fixture()
    def small_lp(self):
        inst = make_instance(
            8, bed_catalog(), [youth(1, 1, [bed_need(2, 1, 2)])],
            [org(1, cap=1, head=1), psi_org(2, [1])],
        )
        return build(inst)

    def test_mps_structure(self, small_lp, tmp_path):
        path = tmp_path / "model.mps"
        write_mps(small_lp, str(path))
        text = path.read_text()
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert "'INTORG'" in text and "'INTEND'" in text
        assert " N  COST" in text
        for name in small_lp.row_names:
            assert name in text

    @pytest.fixture(scope="class")
    def generated_lp(self):
        return build(datagen.generate_instance(
            datagen.GenerationConfig(n_youth=12, horizon_T=30, bed_scale=0.1, seed=1)
        ))

    def test_pinned_model_has_every_family(self, generated_lp):
        # The digests below cover every row family the builder emits.
        assert {name.split("_")[0] for name in generated_lp.row_names} == {
            "C2a", "C2c", "C2d", "C3b", "C4a", "C4b", "C4bg", "C4c", "C4bw", "C4bl", "C2dw",
        }

    def test_mps_digest_pinned(self, generated_lp, tmp_path):
        # The digest of the file for the model without the rows that E's
        # bounds and the W rows imply.
        path = tmp_path / "model.mps"
        write_mps(generated_lp, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "52ab22496d51eb61850baa8dea8156a3e842b1cb48a36489d9e53280f232d72e"
        )

    def test_triplets_digest_pinned(self, generated_lp, tmp_path):
        # The file of the same model as the MPS digest above.
        path = tmp_path / "model.tri"
        write_triplets(generated_lp, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5fdce9cc241589710cc9df7acdb1faa20564bf129a2179619c528cd48ea3dd07"
        )

    def test_mps_reads_back(self, generated_lp, tmp_path):
        lp = generated_lp
        path = tmp_path / "model.mps"
        write_mps(lp, str(path))
        entries, rhs, lower, upper = read_mps(path)
        names = column_names(lp)
        by_col = {}
        for r, c, v in zip(*lp.nonzeros()):
            by_col.setdefault(c, []).append((lp.row_names[r], v))
        expected = []
        for c, name in enumerate(names):
            if lp.obj[c] != 0.0:
                expected.append((name, "COST", lp.obj[c]))
            expected += [(name, row, v) for row, v in by_col.get(c, [])]
        assert entries == expected
        assert rhs == {row: v for row, v in zip(lp.row_names, lp.rhs) if v != 0.0}
        assert lower == {name: v for name, v in zip(names, lp.lb) if v != 0.0}
        assert upper == dict(zip(names, lp.ub))
        # A costed column with an odd number of entries ends on a one-pair line.
        per_col = {}
        for name, _, _ in entries:
            per_col[name] = per_col.get(name, 0) + 1
        assert any(lp.obj[c] != 0.0 and per_col[name] % 2 for c, name in enumerate(names))

    def test_mps_deterministic(self, small_lp, tmp_path):
        p1, p2 = tmp_path / "a.mps", tmp_path / "b.mps"
        write_mps(small_lp, str(p1))
        write_mps(small_lp, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_triplets_round_trip_counts(self, small_lp, tmp_path):
        path = tmp_path / "model.tri"
        write_triplets(small_lp, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "SHELTERPLAN-SPARSE 1"
        nvars = int(next(l.split()[1] for l in lines if l.startswith("NVARS")))
        nrows = int(next(l.split()[1] for l in lines if l.startswith("NROWS")))
        assert nvars == small_lp.n_cols
        assert nrows == small_lp.n_rows
        assert sum(1 for l in lines if l.startswith("VAR ")) == nvars
        assert sum(1 for l in lines if l.startswith("ROW ")) == nrows
        assert sum(1 for l in lines if l.startswith("NZ ")) == small_lp.nnz

    @staticmethod
    def assert_like_reference(lp, tmp_path):
        for write, reference in ((write_mps, write_mps_by_line),
                                 (write_triplets, write_triplets_by_line)):
            ours, theirs = tmp_path / "ours", tmp_path / "theirs"
            write(lp, str(ours))
            reference(lp, str(theirs))
            assert ours.read_bytes() == theirs.read_bytes(), write.__name__

    @pytest.mark.parametrize("size", [1, 3, model._SLICE])
    def test_hand_built_lp_like_reference(self, monkeypatch, tmp_path, size):
        monkeypatch.setattr(model, "_SLICE", size)
        lp = export_lp()
        self.assert_like_reference(lp, tmp_path)
        write_mps(lp, str(tmp_path / "model.mps"))
        text = (tmp_path / "model.mps").read_text()
        for part in (" LO ", "_s1_i1_t1 ", "U_y1_s1_i1 ", "0.333333333333 ", "-0.333333333333 ",
                     "1.23456789012e+14 ", "1e-300", " -0 ", "A_ROW_LONGER_THAN_TEN "):
            assert part in text

    @pytest.mark.parametrize("size", [1, 3, model._SLICE])
    def test_lp_without_rows_like_reference(self, monkeypatch, tmp_path, size):
        monkeypatch.setattr(model, "_SLICE", size)
        lp = LinearProgram()
        lp.add_cols("X", 4, y=1, s=1, i=1, t=[1, 2, 3, 4], obj=[0.0, 2.0, -0.0, 0.5], lb=0.0,
                    ub=1.0, integer=True)
        self.assert_like_reference(lp, tmp_path)
        self.assert_like_reference(LinearProgram(), tmp_path)

    @pytest.mark.parametrize("size", [1, 3, model._SLICE])
    def test_pinned_model_like_reference(self, monkeypatch, generated_lp, tmp_path, size):
        monkeypatch.setattr(model, "_SLICE", size)
        self.assert_like_reference(generated_lp, tmp_path)

    def test_desk_pool_model_like_reference(self, tmp_path):
        # 3023 is one of the benchmark's desk instances (30 youth, 60 days).
        self.assert_like_reference(build(datagen.generate_instance(
            datagen.GenerationConfig(n_youth=30, horizon_T=60, bed_scale=0.1, seed=3023)
        )), tmp_path)


def export_lp():
    """A hand-built LP with the writers' edge cases.

    Columns: a costed one with four entries (an even count) and a negative
    lower bound; one with no entry and no cost; one costed -0.0, which has
    no cost entry; one costed with three entries (an odd count) and a tiny
    lower bound; and one with its cost as its only entry. Names are shorter
    than, as long as and longer than their 10-wide field, and number texts
    shorter than, as long as and longer than their 15-wide one.
    """
    lp = LinearProgram()
    lp.add_cols("", 1, y=None, s=1, i=1, t=1, obj=1 / 3, lb=-2.0, ub=5.0, integer=True)
    lp.add_cols("U", 1, y=1, s=1, i=1, t=None, obj=0.0, lb=0.0, ub=1.0, integer=True)
    lp.add_cols("X", 3, y=1, s=12, i=3, t=[4, 5, 6], obj=[-0.0, 123456789012345.0, -1 / 3],
                lb=[0.0, 1e-300, 0.0], ub=[1.0, 2.0, 123456789012345.0], integer=True)
    add_row(lp, "A", "2a", "<=", 0.0, [0, 2], [1.0, -0.0])
    add_row(lp, "ROW_TEN_10", "4b", "=", 123456789012345.0, [0, 3], [-1 / 3, 1 / 3])
    add_row(lp, "A_ROW_LONGER_THAN_TEN", "3b", ">=", -1 / 3, [3, 0], [-1.0, 123456789012345.0])
    add_row(lp, "B", "4c", "<=", 1.0, [2], [2.0])
    return lp


def layout_instance():
    """Stay needs, two needs that are no stay, and a need that no organization offers.

    There is no catch-all organization, which would offer every service.
    """
    catalog = bed_catalog([
        ServiceIntensity(2, "Counseling", "Low", True, 1),
        ServiceIntensity(3, "Checkup", "Low", False, 0),
        ServiceIntensity(4, "Legal", "Low", False, 0),
    ])
    return make_instance(
        30, catalog,
        [youth(1, 1, [bed_need(3, 1, 2), ServiceNeed(2, 21, 3, 1, 3),
                      ServiceNeed(3, 10, 2, 1, 5)]),
         youth(2, 2, [bed_need(4, 2, 3), ServiceNeed(4, 10, 1, 2, 4)])],
        [org(1, offers=(1, 2, 3)), org(2, offers=(1, 2))],
    )


class TestColumnLayout:
    """``lp.needs`` and ``lp.triples`` reach the columns whose fields they claim."""

    def assert_layout(self, lp):
        fields = list(zip(lp.col_kind, lp.col_y, lp.col_s, lp.col_i, lp.col_t))
        reached = []
        for (y, i), rec in lp.needs.items():
            assert np.all(np.diff(rec.starts) == 1)
            for j, s in enumerate(rec.orgs):
                reached.append(rec.u + j)
                assert fields[rec.u + j] == ("U", y, s, i, None)
                for p, t in enumerate(rec.days):
                    reached.append(rec.x + j * len(rec.days) + p)
                    assert fields[reached[-1]] == ("X", y, s, i, t)
                for q, t in enumerate(rec.starts):
                    reached.append(rec.w + j * len(rec.starts) + q)
                    assert fields[reached[-1]] == ("W", y, s, i, t)
        assert sorted(reached) == [col for col, f in enumerate(fields) if f[0] in ("U", "X", "W")]

        triples = lp.triples
        keys = [tuple(key) for key in triples.keys.tolist()]
        assert keys == sorted(set(keys))
        assert triples.start[0] == 0 and triples.start[-1] == triples.x.size
        assert np.all(np.diff(triples.start) > 0)
        for k, key in enumerate(keys):
            for col in triples.x[triples.start[k]:triples.start[k + 1]].tolist():
                assert fields[col][0] == "X" and fields[col][2:] == key
            assert fields[triples.e[k]] == ("E", None, *key)
            assert fields[triples.o[k]] == ("O", None, *key)
        for kind, cols in (("X", triples.x), ("E", triples.e), ("O", triples.o)):
            assert sorted(cols.tolist()) == [col for col, f in enumerate(fields) if f[0] == kind]

    def test_micro_pool(self, micro_pool):
        for inst in micro_pool:
            self.assert_layout(build(inst))

    def test_value_names_index_back_to_their_fields(self, micro_pool):
        # index_values reads every U, X, E and O name that column_name
        # writes back into that column's index values.
        for inst in micro_pool[:10] + [layout_instance()]:
            lp = build(inst)
            cols = [col for col, kind in enumerate(lp.col_kind) if kind != "W"]
            tables = index_values({lp.column_name(col): float(col) for col in cols})
            assert sum(map(len, tables.values())) == len(cols)
            for col in cols:
                kind = lp.col_kind[col]
                fields = dict(zip("ysit", (lp.col_y[col], lp.col_s[col], lp.col_i[col],
                                           lp.col_t[col])))
                key = tuple(fields[f] for f in model.KEY_FIELDS[kind])
                assert tables[kind][key] == float(col)

    def test_tree_pool_3081(self):
        self.assert_layout(build(datagen.generate_instance(
            datagen.GenerationConfig(n_youth=30, horizon_T=60, bed_scale=0.1, seed=3081)
        )))

    def test_stays_other_needs_and_a_need_without_orgs(self):
        lp = build(layout_instance())
        recs = lp.needs
        assert len(recs) == 5
        assert recs[(1, 1)].starts and recs[(2, 1)].starts
        assert recs[(1, 2)].orgs and not recs[(1, 2)].starts
        assert recs[(1, 3)].orgs and not recs[(1, 3)].starts
        assert recs[(2, 4)].orgs == []
        self.assert_layout(lp)


def fresh_peak_mib(code):
    """Peak RSS in MiB of a fresh interpreter that runs ``code``."""
    code = "import resource\n" + code + (
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(shelterplan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux


FULL_SCALE = (
    "from shelterplan import datagen, solver\n"
    "from shelterplan.model import build\n"
    "inst = datagen.generate_instance(datagen.GenerationConfig(seed=7, bed_scale=1.0))\n"
)


@pytest.mark.full_scale
def test_full_scale_build_fits_the_memory_budget():
    # The paper's full scale (500 youth, 180 days): build the model and cut
    # the service blocks in a fresh interpreter, within 1 GiB of peak RSS.
    peak_mib = fresh_peak_mib(FULL_SCALE + "solver._ServiceBlocks(build(inst))\n")
    assert peak_mib < 1024, f"peak RSS {peak_mib:.0f} MiB"


@pytest.mark.full_scale
def test_full_scale_mps_export_fits_the_memory_budget():
    # Build the full-scale model and write its MPS file, within 1 GiB.
    peak_mib = fresh_peak_mib(FULL_SCALE + "import os\nfrom shelterplan.model import write_mps\n"
                             "write_mps(build(inst), os.devnull)\n")
    assert peak_mib < 1024, f"peak RSS {peak_mib:.0f} MiB"


def row_by_row(lp):
    """A copy of ``lp`` whose rows are added one ``add_row`` call each."""
    copy = LinearProgram(lp.source_instance)
    for kind, y, s, i, t, obj, lo, hi, integer in zip(
        lp.col_kind, lp.col_y, lp.col_s, lp.col_i, lp.col_t, lp.obj, lp.lb, lp.ub, lp.is_integer
    ):
        copy.add_cols(kind, 1, y=y, s=s, i=i, t=t, obj=obj, lb=lo, ub=hi, integer=integer)
    rows, cols, vals = lp.nonzeros()
    bounds = np.searchsorted(rows, np.arange(lp.n_rows + 1)).tolist()
    for r in range(lp.n_rows):
        lo, hi = bounds[r], bounds[r + 1]
        add_row(copy, lp.row_names[r], lp.row_family[r], lp.row_sense[r], lp.rhs[r],
                cols[lo:hi].tolist(), vals[lo:hi].tolist())
    return copy


class TestStorage:
    def mixed_lp(self):
        """Two services' columns; single rows and bulk rows, with a read in between."""
        lp = LinearProgram()
        lp.add_cols("X", 6, y=1, s=1, i=[1, 1, 1, 2, 2, 2], t=[1, 2, 3] * 2,
                    obj=[-3.0, -2.0, -1.0, 0.0, 1.0, 2.0], lb=0.0, ub=1.0, integer=True)
        add_row(lp, "A", "2a", "<=", 2.0, [0, 2, 1], [1.0, 1.0, 1.0])
        lp.add_rows(["B", "C", "D"], "4b", "=", [1.0, 0.0, 1.0], [2, 0, 3],
                    np.array([3, 4, 5, 4, 3]), np.array([1.0, -1.0, 1.0, 2.0, 0.5]))
        lp.nonzeros()
        add_row(lp, "E", "3b", ">=", 1.0, [1, 0], [1.0, 1.0])
        lp.add_rows(["F", "G"], "4c", "<=", [1.0, 1.0], [2, 1], [0, 1, 2], [1.0, 1.0, -1.0])
        return lp

    def assert_same(self, lp, other):
        assert other.nnz == lp.nnz
        for attr in ("row_names", "row_family", "row_sense", "rhs"):
            assert getattr(other, attr) == getattr(lp, attr)
        for ours, theirs in zip(lp.nonzeros(), other.nonzeros()):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        blocks, other_blocks = solver._ServiceBlocks(lp), solver._ServiceBlocks(other)
        assert np.array_equal(blocks.of_col, other_blocks.of_col)
        assert blocks.rows_hold == other_blocks.rows_hold
        assert len(blocks.parts) == len(other_blocks.parts)
        for (cols, c, matrix), (cols2, c2, matrix2) in zip(blocks.parts, other_blocks.parts):
            assert np.array_equal(cols, cols2) and np.array_equal(c, c2)
            for key, value in matrix.items():
                assert value.dtype == matrix2[key].dtype
                assert np.array_equal(value, matrix2[key])

    def test_triplets_are_typed_arrays(self):
        rows, cols, vals = self.mixed_lp().nonzeros()
        assert (rows.dtype, cols.dtype, vals.dtype) == (np.int32, np.int32, np.float64)
        assert rows.tolist() == [0, 0, 0, 1, 1, 3, 3, 3, 4, 4, 5, 5, 6]
        assert cols.tolist() == [0, 2, 1, 3, 4, 5, 4, 3, 1, 0, 0, 1, 2]
        empty = LinearProgram().nonzeros()
        assert [part.dtype for part in empty] == [np.int32, np.int32, np.float64]
        assert all(part.size == 0 for part in empty)

    def test_bulk_rows_equal_single_rows(self):
        lp = self.mixed_lp()
        assert lp.n_rows == 7 and lp.nnz == 13
        assert lp.row_names == list("ABCDEFG")
        assert [len(part[0]) for part in solver._ServiceBlocks(lp).parts] == [3, 3]
        self.assert_same(lp, row_by_row(lp))

    def test_generated_model_equals_single_rows(self):
        lp = build(datagen.generate_instance(
            datagen.GenerationConfig(n_youth=12, horizon_T=30, bed_scale=0.1, seed=1)
        ))
        self.assert_same(lp, row_by_row(lp))

    def test_row_lengths_must_match_entries(self):
        lp = LinearProgram()
        lp.add_cols("X", 1, y=1, s=1, i=1, t=1, obj=0.0, lb=0.0, ub=1.0, integer=True)
        with pytest.raises(ValueError):
            lp.add_rows(["A"], "2a", "<=", [1.0], [2], [0], [1.0])


def read_mps(path):
    """The COLUMNS entries (column, row, value) in file order, and the RHS,
    lower-bound and upper-bound values by name, of a file from write_mps."""
    entries, rhs, lower, upper = [], {}, {}, {}
    section = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if not line.startswith(" "):
                section = tokens[0]
            elif section == "COLUMNS" and tokens[0] != "MARKER":
                for j in range(1, len(tokens), 2):
                    entries.append((tokens[0], tokens[j], float(tokens[j + 1])))
            elif section == "RHS":
                rhs[tokens[1]] = float(tokens[2])
            elif section == "BOUNDS":
                (lower if tokens[0] == "LO" else upper)[tokens[2]] = float(tokens[3])
    return entries, rhs, lower, upper
