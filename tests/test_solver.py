import hashlib
import json
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from shelterplan import solver
from shelterplan.datagen import GenerationConfig, generate_instance
from shelterplan.domain import ServiceIntensity, ServiceNeed
from shelterplan.model import LinearProgram, build
from shelterplan.solver import (
    LP_INFEASIBLE,
    LP_LIMIT,
    LP_OPTIMAL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME,
    BruteForceTooLarge,
    Solution,
    SolverConfig,
    branch_and_bound,
    brute_force,
    cheapest_split,
    enumerate_schedules,
    schedule_heuristic,
    verify,
)

from conftest import (
    add_row, bed_catalog, bed_need, make_instance, micro_instance, org, psi_org, solve_lp, youth,
)


def hand_lp():
    """min -x1 - x2 - x3 subject to x1 + x2 + x3 <= 1, x in [0, 1]^3.

    Optimum -1: enumerating the vertices of the feasible box-with-cut gives
    objective values {0, -1}, so any vertex on the cut is optimal.
    """
    lp = LinearProgram()
    lp.add_cols("X", 3, y=1, s=1, i=1, t=[1, 2, 3], obj=-1.0, lb=0.0, ub=1.0, integer=False)
    add_row(lp, "CAP", "2a", "<=", 1.0, [0, 1, 2], [1.0, 1.0, 1.0])
    return lp


def stop_clock_after_heuristic(monkeypatch, readings):
    """Patch the solver's clock: 0.0 until the first heuristic returns, then ``readings``."""
    later = iter(readings)
    state = {"heuristic_done": False}
    real = solver.schedule_heuristic

    def heuristic(*args, **kwargs):
        x = real(*args, **kwargs)
        state["heuristic_done"] = True
        return x

    monkeypatch.setattr(solver, "schedule_heuristic", heuristic)
    monkeypatch.setattr(
        solver, "time",
        SimpleNamespace(monotonic=lambda: next(later) if state["heuristic_done"] else 0.0),
    )


def desk_lp():
    inst = generate_instance(GenerationConfig(n_youth=12, horizon_T=30, bed_scale=0.1, seed=7))
    return inst, build(inst)


def scipy_linprog(lp, cols, time_limit=None):
    """``scipy.optimize.linprog`` on the columns ``cols`` of ``lp`` and the rows they meet."""
    from scipy.optimize import linprog

    c, *matrices = lp.to_scipy()
    lb, ub = lp.bounds_arrays()
    cut = []
    for A, b in zip(matrices[::2], matrices[1::2]):
        rows = np.flatnonzero(A[:, cols].getnnz(axis=1)) if A is not None else []
        cut += [A[rows][:, cols], b[rows]] if len(rows) else [None, None]
    options = {"primal_feasibility_tolerance": solver.LP_TOLERANCE,
               "dual_feasibility_tolerance": solver.LP_TOLERANCE, "time_limit": time_limit}
    return linprog(c[cols], *cut, bounds=np.column_stack([lb[cols], ub[cols]]),
                   method="highs", options={k: v for k, v in options.items() if v is not None})


def unbounded_lp():
    """min -x0 subject to x1 - x0 <= 1, x0 >= 0 without upper bound, x1 in [0, 1]."""
    lp = LinearProgram()
    lp.add_cols("X", 2, y=1, s=1, i=1, t=[1, 2], obj=[-1.0, 0.0], lb=0.0, ub=[math.inf, 1.0],
                integer=False)
    add_row(lp, "R", "2a", "<=", 1.0, [0, 1], [-1.0, 1.0])
    return lp


def infeasible_lp():
    lp = hand_lp()
    add_row(lp, "MIN", "3b", ">=", 2.0, [0, 1, 2], [1.0, 1.0, 1.0])
    return lp


class TestHighsCall:
    """``solver.linprog`` hands HiGHS what ``scipy.optimize.linprog`` does."""

    def test_block_lps_match_scipy_exactly(self):
        _, lp = desk_lp()
        hand = hand_lp()
        cases = [(lp, part) for part in solver._ServiceBlocks(lp).parts]
        cases += [(hand, part) for part in solver._ServiceBlocks(hand).parts]
        iterations = 0
        for model, (cols, c, matrix) in cases:
            lb, ub = model.bounds_arrays()
            ours = solver.linprog(c, **matrix, lb=lb[cols], ub=ub[cols])
            ref = scipy_linprog(model, cols)
            assert (ours.status, ref.status) == (LP_OPTIMAL, 0)
            assert (ours.objective, ours.nit) == (ref.fun, ref.nit)
            assert np.array_equal(ours.x, ref.x)
            iterations += ours.nit
        assert iterations > 0

    @pytest.mark.parametrize("make, time_limit, status, code", [
        (infeasible_lp, None, LP_INFEASIBLE, 2),
        (lambda: desk_lp()[1], 0.0, LP_LIMIT, 1),
        (unbounded_lp, None, solver.LP_UNBOUNDED, 3),
    ])
    def test_status_mapping(self, make, time_limit, status, code):
        lp = make()
        assert solve_lp(lp, time_limit=time_limit).status == status
        parts, _ = solver._split(lp, np.zeros(lp.n_cols, dtype=np.int64), *lp.nonzeros())
        (cols, c, matrix), = parts
        lb, ub = lp.bounds_arrays()
        # Each row pairs our status with scipy's code for the same outcome.
        ours = solver.linprog(c, **matrix, lb=lb, ub=ub, time_limit=time_limit)
        assert ours.status == status
        assert scipy_linprog(lp, cols, time_limit).status == code
        assert ours.x is None

    def test_missing_extension_names_the_scipy_requirement(self, monkeypatch):
        monkeypatch.setattr(solver, "_highs_core_module", None)
        monkeypatch.delitem(sys.modules, solver._HIGHS_CORE_NAME, raising=False)
        monkeypatch.setattr(solver.importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(solver.SolverError, match=r"scipy >= 1\.15"):
            solver._highs_core()


class TestSolveLp:
    def test_hand_lp_value(self):
        res = solve_lp(hand_lp())
        assert res.status == LP_OPTIMAL
        assert res.objective == pytest.approx(-1.0)
        assert res.x.sum() == pytest.approx(1.0)

    def test_lower_bound_row_added(self):
        lp = hand_lp()
        add_row(lp, "DEMAND", "3b", ">=", 0.5, [0], [1.0])
        res = solve_lp(lp)
        assert res.status == LP_OPTIMAL
        assert res.objective == pytest.approx(-1.0)
        assert res.x[0] >= 0.5 - 1e-9

    def test_empty_model_is_optimal_zero(self):
        res = solve_lp(LinearProgram())
        assert res.status == LP_OPTIMAL
        assert res.objective == 0.0
        sol = branch_and_bound(LinearProgram(), SolverConfig(rel_gap=0.0))
        assert (sol.status, sol.objective, sol.bound, sol.node_count) == (STATUS_OPTIMAL, 0.0, 0.0, 0)

    def test_infeasible_detected(self):
        lp = hand_lp()
        add_row(lp, "IMPOSSIBLE", "3b", ">=", 4.0, [0, 1, 2], [1.0, 1.0, 1.0])
        assert solve_lp(lp).status == LP_INFEASIBLE

    def test_zero_cost_feasible_instance(self):
        inst = make_instance(
            8, bed_catalog(), [youth(1, 1, [bed_need(3, 1, 2)])],
            [org(1, cap=2), psi_org(2, [1])],
        )
        assert solve_lp(build(inst)).objective == pytest.approx(0.0)

    def test_deterministic(self):
        lp = hand_lp()
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)

    def test_time_limit_returns_limit_status(self):
        _, lp = desk_lp()
        res = solve_lp(lp, time_limit=0.0)
        assert res.status == LP_LIMIT
        assert res.x is None


class TestBranchAndBound:
    @pytest.mark.parametrize("field", ["rel_gap", "time_limit"])
    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_config_refuses_negative_or_nan(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number >= 0"):
            SolverConfig(**{field: value})

    def test_oracle_agreement_sample(self, micro_pool):
        for inst in micro_pool[:12]:
            bf = brute_force(inst)
            sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0))
            assert sol.status == bf.status
            if bf.status == STATUS_OPTIMAL:
                assert sol.objective == pytest.approx(bf.objective, abs=1e-6)

    def test_tighter_gap_never_worse(self):
        rng = np.random.default_rng(99)
        inst = micro_instance(rng)
        lp = build(inst)
        tight = branch_and_bound(lp, SolverConfig(rel_gap=0.01))
        loose = branch_and_bound(lp, SolverConfig(rel_gap=0.5))
        assert tight.objective <= loose.objective * (1 + 1e-9)

    def test_uncontested_single_start_solves_at_root(self):
        inst = make_instance(
            8, bed_catalog(), [youth(1, 2, [bed_need(3, 2, 2)])],
            [org(1, cap=1), psi_org(2, [1])],
        )
        sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0))
        # The heuristic's schedule costs 0, the least the only block can
        # cost, so the block closes without an LP.
        assert sol.status == STATUS_OPTIMAL
        assert sol.node_count == 0

    def test_incumbents_always_verify(self, micro_pool):
        for inst in micro_pool[:8]:
            sol = branch_and_bound(build(inst), SolverConfig())
            if sol.status == STATUS_INFEASIBLE:
                continue
            assert verify(inst, sol).ok
            assert sum(sol.decomposition.values()) == pytest.approx(
                sol.objective, abs=1e-7
            )
            assert sol.gap == pytest.approx(
                (sol.objective - sol.bound) / max(abs(sol.objective), 1e-9), abs=1e-9
            )

    def test_determinism_across_runs(self):
        rng = np.random.default_rng(123)
        inst = micro_instance(rng)
        lp = build(inst)
        a = branch_and_bound(lp, SolverConfig())
        b = branch_and_bound(lp, SolverConfig())
        assert a.objective == b.objective
        assert a.gap == b.gap
        assert a.node_count == b.node_count
        assert a.values == b.values

    def test_bound_and_incumbent_bracket_the_optimum(self, micro_pool):
        # Stopped after the root, the search still reports a valid bound.
        for inst in micro_pool[:12]:
            optimum = brute_force(inst).objective
            sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0, node_limit=1))
            assert sol.bound <= optimum + 1e-6
            assert optimum <= sol.objective + 1e-6

    def test_time_limit_returns_best_incumbent(self, monkeypatch):
        # The limit passes while the first heuristic runs.
        stop_clock_after_heuristic(monkeypatch, readings=[2.0] * 5)
        rng = np.random.default_rng(17)
        inst = micro_instance(rng)
        lp = build(inst)
        sol = branch_and_bound(lp, SolverConfig(time_limit=1.0))
        assert sol.status == STATUS_TIME
        assert sol.node_count == 0
        assert math.isfinite(sol.objective)  # heuristic incumbent exists

    def test_time_limit_zero_skips_heuristic(self, monkeypatch):
        # The heuristic does not run.
        calls = []
        real = solver.schedule_heuristic
        monkeypatch.setattr(
            solver, "schedule_heuristic",
            lambda *a, **kw: calls.append("schedule_heuristic") or real(*a, **kw),
        )
        _, lp = desk_lp()
        sol = branch_and_bound(lp, SolverConfig(rel_gap=0.0, time_limit=0.0))
        assert calls == []
        assert sol.status == STATUS_TIME
        assert sol.node_count == 0
        assert sol.objective == math.inf
        # No block LP ran, so the bound is the least the columns can cost.
        assert (sol.bound, sol.gap) == (0.0, math.inf)

    def test_heuristic_point_satisfies_model(self):
        # Each chosen stay sets its W column, so the incumbent is a point of
        # the model it is scored on.
        _, lp = desk_lp()
        x = schedule_heuristic(lp)
        assert any(x[col] == 1.0 for col, kind in enumerate(lp.col_kind) if kind == "W")
        c, A_ub, b_ub, A_eq, b_eq = lp.to_scipy()
        lb, ub = lp.bounds_arrays()
        assert np.all(x >= lb - 1e-6) and np.all(x <= ub + 1e-6)
        assert np.all(A_ub @ x <= b_ub + 1e-6)
        assert np.allclose(A_eq @ x, b_eq, rtol=0.0, atol=1e-6)

    def test_heuristic_deadline_ends_after_first_pass(self, monkeypatch):
        _, lp = desk_lp()
        cut = schedule_heuristic(lp, _deadline=-math.inf)
        assert not np.array_equal(schedule_heuristic(lp), cut)
        monkeypatch.setattr(solver, "HEURISTIC_PASSES", 1)
        assert np.array_equal(schedule_heuristic(lp), cut)

    def test_time_limit_inside_root_lp_keeps_incumbent(self, monkeypatch):
        # After the heuristic, each clock reading advances half the limit:
        # the check before the root node passes, and the root LP is left
        # 0 s, so HiGHS stops it.
        stop_clock_after_heuristic(monkeypatch, readings=np.arange(0.5, 100.0, 0.5))
        inst, lp = desk_lp()
        sol = branch_and_bound(lp, SolverConfig(rel_gap=0.0, time_limit=1.0))
        assert sol.status == STATUS_TIME
        assert sol.node_count == 1
        assert math.isfinite(sol.objective)
        assert verify(inst, sol).ok
        # The cut-short root stays open: nothing proves the incumbent optimal.
        assert sol.bound < sol.objective

    def test_heuristic_point_failing_verification_raises(self, monkeypatch):
        # Only "no feasible schedule" lets the search go on without the
        # heuristic; a point that fails the verifier is a fault.
        real = solver.schedule_heuristic

        def heuristic(lp, *args, **kwargs):
            x = real(lp, *args, **kwargs)
            x_cols = [col for col, kind in enumerate(lp.col_kind) if kind == "X"]
            x[next(col for col in x_cols if x[col] == 1.0)] = 0.0
            return x

        monkeypatch.setattr(solver, "schedule_heuristic", heuristic)
        inst = generate_instance(GenerationConfig(n_youth=12, horizon_T=30, bed_scale=0.1, seed=1))
        with pytest.raises(solver.SolverError, match="failed verification"):
            branch_and_bound(build(inst), SolverConfig(rel_gap=0.0))

    def test_infeasible_without_catch_all(self):
        # The single organization rejects the youth and no catch-all exists.
        inst = make_instance(
            8,
            bed_catalog(),
            [youth(1, 1, [bed_need(3, 1, 2)], bits=(1, 1, 1, 1))],
            [org(1, bits=(0, 1, 1, 1))],
        )
        sol = branch_and_bound(build(inst), SolverConfig())
        bf = brute_force(inst)
        assert sol.status == STATUS_INFEASIBLE
        assert bf.status == STATUS_INFEASIBLE


class TestServiceBlocks:
    def test_zero_cost_blocks_get_no_lp(self, monkeypatch):
        _, lp = desk_lp()
        blocks = solver._ServiceBlocks(lp)
        x = schedule_heuristic(lp)
        costly = [float(c @ x[cols]) > 0 for cols, c, *_ in blocks.parts]
        assert 0 < sum(costly) < len(costly)
        # Each LP is told apart by its cost vector, which no two blocks share.
        block_of_costs = {c.tobytes(): b for b, (_, c, *_) in enumerate(blocks.parts)}
        assert len(block_of_costs) == len(blocks.parts)
        solved = []
        real = solver.linprog
        monkeypatch.setattr(
            solver, "linprog",
            lambda c, **kw: solved.append(block_of_costs[c.tobytes()]) or real(c, **kw),
        )
        sol = branch_and_bound(lp, SolverConfig(rel_gap=0.0, node_limit=30))
        assert len(solved) == sol.node_count > 0
        assert all(costly[b] for b in solved)

    def test_violated_row_without_columns_is_infeasible(self):
        lp = hand_lp()
        add_row(lp, "HOLDS", "3b", "<=", 0.0, [], [])
        assert branch_and_bound(lp, SolverConfig(rel_gap=0.0)).objective == -1.0
        lp = hand_lp()
        add_row(lp, "FAILS", "3b", ">=", 1.0, [], [])
        sol = branch_and_bound(lp, SolverConfig(rel_gap=0.0))
        assert (sol.status, sol.node_count) == (STATUS_INFEASIBLE, 0)
        assert solve_lp(lp).status == LP_INFEASIBLE

    def test_rows_added_after_a_solve_count(self):
        lp = hand_lp()
        assert lp.to_scipy()[1].shape[0] == 1
        add_row(lp, "DEMAND", "3b", ">=", 0.5, [0], [1.0])
        assert lp.to_scipy()[1].shape[0] == 2
        lp = hand_lp()
        assert branch_and_bound(lp, SolverConfig(rel_gap=0.0)).objective == -1.0
        add_row(lp, "FAILS", "3b", ">=", 1.0, [], [])
        assert branch_and_bound(lp, SolverConfig(rel_gap=0.0)).status == STATUS_INFEASIBLE

    def test_block_lps_sum_to_monolithic_lp(self):
        _, lp = desk_lp()
        root = solve_lp(lp)
        blocks = solver._ServiceBlocks(lp)
        n_blocks = len(blocks.parts)
        assert n_blocks == len(set(lp.col_i))
        c, A_ub, b_ub, A_eq, b_eq = lp.to_scipy()
        lb0, ub0 = lp.bounds_arrays()

        dearest_x = {}
        for col, (kind, y, s, i) in enumerate(zip(lp.col_kind, lp.col_y, lp.col_s, lp.col_i)):
            if kind == "X":
                dearest_x[(y, s, i)] = max(dearest_x.get((y, s, i), -math.inf), lp.obj[col])

        def dearest(col):
            return dearest_x[(lp.col_y[col], lp.col_s[col], lp.col_i[col])]

        def by_block(lb, ub):
            """The LP solved block by block: summed value and joined x."""
            value, x = 0.0, np.zeros(lp.n_cols)
            for cols, c_part, matrix in blocks.parts:
                res = solver.linprog(c_part, **matrix, lb=lb[cols], ub=ub[cols])
                assert res.status == LP_OPTIMAL
                value += res.objective
                x[cols] = res.x
            return value, x

        moved = 0
        for b in range(0, n_blocks, 4):
            u_cols = [j for j in np.flatnonzero(blocks.of_col == b)
                      if lp.col_kind[j] == "U"]
            # Forbid the most-used organization; force the dearest one.
            used = max(u_cols, key=lambda j: (root.x[j], -j))
            dear = max(u_cols, key=lambda j: (dearest(j), -j))
            for col, fixed in ((used, 0.0), (dear, 1.0)):
                lb, ub = lb0.copy(), ub0.copy()
                lb[col] = ub[col] = fixed
                full = solve_lp(lp, bounds=(lb, ub))
                value, x = by_block(lb, ub)
                assert full.status == LP_OPTIMAL
                assert value == pytest.approx(full.objective, rel=1e-9)
                moved += value > root.objective + 1e-6
                assert np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9)
                assert np.all(A_ub @ x <= b_ub + 1e-6)
                assert np.allclose(A_eq @ x, b_eq, atol=1e-6)
        assert moved >= 3

    def test_linking_row_merges_services(self):
        lp = LinearProgram()

        def col(i, t, obj):
            return lp.add_cols("X", 1, y=1, s=1, i=i, t=t, obj=obj, lb=0.0, ub=1.0,
                               integer=True)[0]

        a, b = col(1, 1, -5.0), col(1, 2, -4.0)
        c, d = col(2, 1, -3.0), col(2, 2, -3.0)
        e, f = col(3, 1, -2.0), col(3, 2, -3.0)
        add_row(lp, "K1", "2a", "<=", 4.0, [a, b], [3.0, 2.0])
        add_row(lp, "K2", "2a", "<=", 3.0, [c, d], [2.0, 2.0])
        add_row(lp, "K3", "2a", "<=", 4.0, [e, f], [2.0, 3.0])
        # Without this row the optimum is -11 (a, d, f).
        add_row(lp, "LINK", "2a", "<=", 1.0, [a, c, d], [1.0, 1.0, 1.0])
        # A row that spans two services makes the whole LP one block.
        assert solver._ServiceBlocks(lp).of_col.tolist() == [0] * 6
        sol = branch_and_bound(lp, SolverConfig(rel_gap=0.0))
        # Status, objective, bound and node count of the search that
        # re-solved the whole LP at every node.
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective == -10.0
        assert sol.bound == -10.0
        assert sol.node_count == 11

    def test_cut_short_search_brackets_block_optima(self):
        # scipy's HiGHS MIP solves each costly service's columns, with the
        # rows they meet, of TREE_POOL instance 3120 to optimality; a service
        # whose heuristic schedule costs 0 has optimum 0.
        from scipy.optimize import Bounds, LinearConstraint, milp

        inst = generate_instance(GenerationConfig(n_youth=30, horizon_T=60, bed_scale=0.1, seed=3120))
        lp = build(inst)
        c, A_ub, b_ub, A_eq, b_eq = lp.to_scipy()
        lb, ub = lp.bounds_arrays()
        integer = np.asarray(lp.is_integer, dtype=int)
        x = schedule_heuristic(lp)
        service = np.array(lp.col_i)
        optima = []
        for i in np.unique(service):
            cols = np.flatnonzero(service == i)
            if c[cols] @ x[cols] <= 0:
                continue
            ub_rows = np.flatnonzero(A_ub[:, cols].getnnz(axis=1))
            eq_rows = np.flatnonzero(A_eq[:, cols].getnnz(axis=1))
            res = milp(c[cols], integrality=integer[cols], bounds=Bounds(lb[cols], ub[cols]),
                       constraints=[
                           LinearConstraint(A_ub[ub_rows][:, cols], -np.inf, b_ub[ub_rows]),
                           LinearConstraint(A_eq[eq_rows][:, cols], b_eq[eq_rows], b_eq[eq_rows]),
                       ])
            assert res.status == 0
            optima.append(res.fun)
        assert len(optima) == 4
        optimum = sum(optima)
        assert optimum == pytest.approx(9616.0, abs=1e-6)
        # Stopped at 60 nodes, the search's bound and incumbent must still
        # bracket the optimum (9616 <= 9616 <= 9627 when this was written).
        sol = branch_and_bound(lp, SolverConfig(rel_gap=0.0, node_limit=60))
        assert sol.bound <= optimum + 1e-6
        assert optimum <= sol.objective + 1e-6

    def test_gap_zero_search_matches_full_resolves(self):
        inst = generate_instance(GenerationConfig(n_youth=20, horizon_T=30, bed_scale=0.1, seed=14))
        sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0, node_limit=25))
        # 2329 is the bound of the search that re-solved the whole LP at
        # every node. Since each need's schedule is the cheapest one given
        # the other needs' loads, the heuristic finds a point of that cost,
        # and the search proves it optimal after 3 nodes.
        assert sol.status == STATUS_OPTIMAL
        assert sol.node_count == 3
        assert sol.objective == 2329.0
        assert sol.bound == pytest.approx(2329.0, abs=1e-6)
        assert verify(inst, sol).ok


def tree_pool_instance(seed):
    """A 30-youth, 60-day desk instance of the benchmark's TREE_POOL."""
    return generate_instance(GenerationConfig(n_youth=30, horizon_T=60, bed_scale=0.1, seed=seed))


class TestTreePool:
    # Per instance: the sum of the per-block optima of scipy's HiGHS MIP,
    # found as in test_cut_short_search_brackets_block_optima and pinned
    # here; the incumbent of the search when only the stays were seeded from
    # an LP point (the bed block's root, at node 1), which the search may
    # not exceed; and whether the search proves optimality.
    CASES = [
        (3026, 10142.0, 10173.0, False), (3045, 12611.0, 12616.0, False),
        (3081, 11961.0, 11975.0, True), (3088, 10696.0, 10727.0, False),
        (3108, 11241.0, 11248.0, True), (3112, 12460.0, 12480.0, True),
        (3114, 9619.0, 9619.0, True), (3120, 9616.0, 9627.0, False),
    ]

    @pytest.mark.parametrize("seed, optimum, before, proven", CASES,
                             ids=[f"{seed}-{optimum}" for seed, optimum, *_ in CASES])
    def test_four_node_search_brackets_optimum(self, seed, optimum, before, proven):
        inst = tree_pool_instance(seed)
        sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0, node_limit=4))
        assert sol.bound <= optimum + 1e-6
        assert optimum <= sol.objective + 1e-6
        assert sol.objective <= before
        assert (sol.status == STATUS_OPTIMAL) == proven
        assert verify(inst, sol).ok

    def test_each_incumbent_is_repaired_once(self, monkeypatch):
        # Both incumbents of 3081 come from the heuristic, which repairs
        # its own point: the first call, and the call seeded from every
        # block's root LP point, which proves the sum of the block optima.
        calls = []
        real = solver.repair_expansion
        monkeypatch.setattr(
            solver, "repair_expansion", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        sol = branch_and_bound(build(tree_pool_instance(3081)),
                               SolverConfig(rel_gap=0.0, node_limit=4))
        assert (sol.status, sol.objective) == (STATUS_OPTIMAL, 11961.0)
        assert len(calls) == 2


class TestCheapestSplit:
    # Capacity c = 2 and headroom mu = 4 for every case.
    @pytest.mark.parametrize(
        "gamma, lam, load, expected",
        [
            (5.0, 20.0, 1, (0, 0)),
            (5.0, 20.0, 3, (1, 0)),
            (5.0, 20.0, 6, (2, 2)),
            (20.0, 20.0, 6, (2, 2)),
            (30.0, 20.0, 1, (0, 0)),
            (30.0, 20.0, 3, (0, 1)),
            (30.0, 20.0, 6, (0, 4)),
        ],
    )
    def test_split(self, gamma, lam, load, expected):
        o = org(1, cap=2, head=2, gamma=gamma, lam=lam)
        assert cheapest_split(o, 1, 1, load) == expected

    def test_heuristic_marginals_sum_to_objective_when_expansion_dearer(self):
        # Three fixed 3-day stays against one bed: two youth per day exceed
        # capacity, and overflow (lambda 20) is cheaper than expansion (30).
        inst = make_instance(
            6, bed_catalog(), [youth(y, 1, [bed_need(3, 1, 1)]) for y in (1, 2, 3)],
            [org(1, cap=1, head=1, gamma=30.0, lam=20.0), psi_org(2, [1])],
        )
        lp = build(inst)
        x = schedule_heuristic(lp)
        tracker = solver._LoadTracker(lp)
        total = 0.0
        for (y, i), rec in lp.needs.items():
            for j, s in enumerate(rec.orgs):
                first = rec.x + j * len(rec.days)
                days = [t for p, t in enumerate(rec.days) if x[first + p] > 0.5]
                total += sum(tracker.row(s, i)[t] for t in days)
                tracker.commit(s, i, days)
        assert float(np.dot(lp.obj, x)) == pytest.approx(120.0)
        assert total == pytest.approx(120.0)


def reference_marginal(org_, i, t, load):
    """The heuristic's marginal cost as two ``cheapest_split`` calls, priced per changed unit."""
    e0, o0 = cheapest_split(org_, i, t, load)
    e1, o1 = cheapest_split(org_, i, t, load + 1)
    return org_.cost_assign_r.get(i, 0.0) + (
        org_.cost_expand_gamma.get(i, 0.0) * (e1 - e0)
        + org_.cost_overflow_lambda.get(i, 0.0) * (o1 - o0)
    )


def reference_repair(lp, x):
    """``repair_expansion`` as one ``cheapest_split`` call per (org, service, day) triple.

    The loads and the E and O columns are found from each column's kind and
    index fields alone.
    """
    org_by_id = {o.id: o for o in lp.source_instance.organizations}
    out = x.copy()
    loads, split_cols = {}, {}
    for col, (kind, s, i, t) in enumerate(zip(lp.col_kind, lp.col_s, lp.col_i, lp.col_t)):
        if kind == "X":
            loads.setdefault((s, i, t), []).append(float(out[col]))
        elif kind in ("E", "O"):
            split_cols.setdefault((s, i, t), {})[kind] = col
    assert set(loads) == set(split_cols)
    for (s, i, t), cols in split_cols.items():
        e, o = cheapest_split(org_by_id[s], i, t, int(round(sum(loads[(s, i, t)]))))
        out[cols["E"]] = float(e)
        out[cols["O"]] = float(o)
    return out


def mixed_split_instance():
    """Bed stays against one org whose expansion is dearer than overflow
    (gamma 30 > lambda 20, with headroom) and one whose capacity varies by day."""
    days_cap = (0, 1, 2, 1, 0, 2, 1, 0)
    return make_instance(
        8, bed_catalog(),
        [youth(y, a, [bed_need(d, a, a + 1)]) for y, (a, d) in
         enumerate([(1, 4), (1, 5), (2, 3), (2, 6), (3, 4), (4, 3), (5, 2)], start=1)],
        [org(1, cap=1, head=2, gamma=30.0, lam=20.0),
         org(2, cap={1: days_cap}, head={1: 3}, gamma=5.0, lam=20.0),
         psi_org(3, [1])],
    )


def count_schedules(need, periodic, k, horizon_T):
    """``len(enumerate_schedules(...))``, counted without listing the schedules."""
    a, b, d, f = need.window_start_a, need.window_end_b, need.duration_d, need.frequency_f
    upper = min(b + d, horizon_T)
    starts = range(a, min(b, horizon_T) + 1)
    if f == 1:
        return len(starts)
    if not periodic:
        return sum(math.comb(upper - first, f - 1) for first in starts)
    lo, hi = max(need.omega - k, 1), need.omega + k
    ways = [1 if t in starts else 0 for t in range(upper + 1)]
    for _ in range(f - 1):
        ways = [sum(ways[max(t - hi, 0):max(t - lo + 1, 0)]) for t in range(upper + 1)]
    return sum(ways)


class TestHeuristicPricing:
    def test_schedule_is_cheapest_of_the_oracles(self, micro_pool):
        # Every need with at most 5000 schedules, at each of its
        # organizations, against a random cost row: the heuristic's schedule
        # is one of the oracle's schedules in the X domain, at their least
        # cost, and among those of least cost the earliest, compared from the
        # last day back. It has none exactly when the oracle has none there.
        rng = np.random.default_rng(12)
        checked = {"micro": 0, "3081": 0}
        for name, inst in [*(("micro", inst) for inst in micro_pool),
                           ("3081", tree_pool_instance(3081))]:
            lp = build(inst)
            T = inst.horizon_T
            for y in inst.youths:
                for need in y.needs:
                    svc = inst.services.get(need.service)
                    k = svc.flexibility_k
                    if count_schedules(need, svc.periodic, k, T) > 5000:
                        continue
                    gaps = (max(need.omega - k, 1), need.omega + k) if svc.periodic else (1, T)
                    schedules = np.array(enumerate_schedules(need, svc.periodic, k, T), dtype=int)
                    domain = lp.needs[(y.id, need.service)].days
                    for s in lp.needs[(y.id, need.service)].orgs:
                        inside = schedules[np.isin(schedules, domain).all(axis=1)]
                        row = rng.integers(0, 10, size=T + 1).astype(float).tolist()
                        res = solver._greedy_schedule(row, need, gaps, dict.fromkeys(domain))
                        checked[name] += 1
                        if not len(inside):
                            assert res is None
                            continue
                        cost, days = res
                        costs = np.asarray(row)[inside].sum(axis=1)
                        least = inside[costs == costs.min()].tolist()
                        assert cost == costs.min() == sum(row[t] for t in days)
                        assert list(days) == min(least, key=lambda d: d[::-1])
        assert checked == {"micro": 426, "3081": 971}

    def test_cost_rows_equal_reference_marginal(self, micro_pool):
        # Random commits of +1 and -1 unit-days on the triple days of the
        # model's (org, service) pairs; after each, every triple day of the
        # committed pair is priced at its load, and every other day is inf.
        rng = np.random.default_rng(5)
        for inst in micro_pool + [mixed_split_instance()]:
            lp = build(inst)
            tracker = solver._LoadTracker(lp)
            org_by_id = {o.id: o for o in inst.organizations}
            days_of = {}
            for s, i, t in lp.triples.keys.tolist():
                days_of.setdefault((s, i), []).append(t)
            pairs = sorted(days_of)
            loads = {}
            for _ in range(40):
                s, i = pairs[rng.integers(len(pairs))]
                triple_days = days_of[(s, i)]
                days = sorted(rng.choice(triple_days, size=rng.integers(1, len(triple_days) + 1),
                                         replace=False).tolist())
                can_remove = all(loads.get((s, i, t), 0) > 0 for t in days)
                sign = -1 if can_remove and rng.random() < 0.3 else 1
                tracker.commit(s, i, days, sign)
                for t in days:
                    loads[(s, i, t)] = loads.get((s, i, t), 0) + sign
                row = tracker.row(s, i)
                for t in triple_days:
                    load = loads.get((s, i, t), 0)
                    assert row[t] == reference_marginal(org_by_id[s], i, t, load)
                assert all(row[t] == math.inf for t in range(len(row)) if t not in triple_days)
            assert max(loads.values()) >= 3

    def test_repair_equals_per_triple_split(self, micro_pool):
        rng = np.random.default_rng(11)
        for inst in micro_pool + [mixed_split_instance()]:
            lp = build(inst)
            x = schedule_heuristic(lp)
            assert np.array_equal(solver.repair_expansion(lp, x), reference_repair(lp, x))
            for _ in range(3):
                # Random 0/1 X columns and arbitrary values everywhere else.
                x = rng.normal(size=lp.n_cols)
                x_cols = np.flatnonzero(np.array(lp.col_kind) == "X")
                x[x_cols] = rng.integers(0, 2, size=x_cols.size)
                assert np.array_equal(solver.repair_expansion(lp, x), reference_repair(lp, x))

    def test_mixed_instance_exercises_both_cost_orders(self):
        lp = build(mixed_split_instance())
        x = solver.repair_expansion(lp, schedule_heuristic(lp))
        keys = lp.triples.keys.tolist()
        used = {(s, t) for (s, _, t), col in zip(keys, lp.triples.o) if x[col] > 0}
        extra = {(s, t) for (s, _, t), col in zip(keys, lp.triples.e) if x[col] > 0}
        assert any(s == 1 for s, _ in used)  # org 1 overflows rather than expands
        assert not any(s == 1 for s, _ in extra)

    def test_heuristic_output_pinned(self):
        # Digests of the heuristic's x on TREE_POOL instance 3081: the first
        # greedy call, and two calls seeded from LP points written into the
        # first incumbent. The bed block's root alone improves it
        # (11995 -> 11975); every costly block's root, as the search seeds
        # it, reaches the sum of the block optima (11961). The first two
        # were recorded when each need other than a stay or a single
        # occurrence got its exact cheapest schedule, which moved days at
        # equal cost.
        lp = build(tree_pool_instance(3081))
        first = schedule_heuristic(lp)
        assert hashlib.sha256(first.tobytes()).hexdigest() == (
            "d0cf6a82a9fc6944fcf1f92795af938b52b7af77368ffaf0b535c72ab5a0359e"
        )
        parts = solver._ServiceBlocks(lp).parts
        costly = [part for part in parts if part[1] @ first[part[0]] > 0]
        assert len(costly) == 4 and costly[0] is parts[0]
        assert {lp.col_i[j] for j in parts[0][0]} == {1}
        lb, ub = lp.bounds_arrays()

        def seeded(blocks):
            x_root = first.copy()
            for cols, c, matrix in blocks:
                x_root[cols] = solver.linprog(c, **matrix, lb=lb[cols], ub=ub[cols]).x
            return schedule_heuristic(lp, x_root)

        bed_root, every_root = seeded(costly[:1]), seeded(costly)
        assert hashlib.sha256(bed_root.tobytes()).hexdigest() == (
            "2fd9e85e486b66fff3273443cfb614c781bc57c5a96dba38746c5534c1987857"
        )
        assert hashlib.sha256(every_root.tobytes()).hexdigest() == (
            "f1b419ac18a18f7e3c7783c5dfe26b02bd5c1829a374a18d4b1307a847446c62"
        )
        assert float(lp.obj @ first) == 11995.0
        assert float(lp.obj @ bed_root) == 11975.0
        assert float(lp.obj @ every_root) == 11961.0

    @pytest.mark.parametrize("seed", [3008, 3118, 3081, 3120])
    def test_heuristic_output_is_its_own_seed(self, seed):
        # DESK_POOL (3008, 3118) and TREE_POOL (3081, 3120) instances, which
        # share one generation config. Seeded with its own integral point,
        # every need starts where the heuristic left it, and no pass moves it.
        lp = build(tree_pool_instance(seed))
        x = schedule_heuristic(lp)
        assert np.array_equal(schedule_heuristic(lp, x), x)


class TestVerifier:
    @pytest.fixture()
    def solved(self):
        inst = make_instance(
            10,
            bed_catalog([ServiceIntensity(3, "Checkup", "Low", False, 0)]),
            [
                youth(1, 1, [bed_need(4, 1, 3), ServiceNeed(3, 8, 2, 1, 4)]),
                youth(2, 2, [bed_need(3, 2, 4)]),
            ],
            [org(1, offers=(1, 3), cap=1, head=1), psi_org(2, [1, 3])],
        )
        sol = branch_and_bound(build(inst), SolverConfig(rel_gap=0.0))
        return inst, sol

    def test_valid_solution_passes_all_families(self, solved):
        inst, sol = solved
        report = verify(inst, sol)
        assert report.ok
        assert all(report.family_ok.values())
        assert report.objective_recomputed == pytest.approx(sol.objective)

    def test_moved_occurrence_flags_window_family(self, solved):
        inst, sol = solved
        values = dict(sol.values)
        # Move the later checkup occurrence past b + d = 12; the earlier one
        # stays inside the start window, so only 3a trips.
        keys = [
            k for k, v in values.items()
            if k.startswith("X_y1") and "_i3_" in k and v > 0.5
        ]
        key = max(keys, key=lambda k: int(k.rsplit("_t", 1)[1]))
        prefix = key.rsplit("_t", 1)[0]
        del values[key]
        values[prefix + "_t13"] = 1.0
        report = verify(inst, values)
        assert not report.ok
        assert report.family_ok["3a"] is False

    def test_capacity_violation_flags_2a(self, solved):
        inst, sol = solved
        values = dict(sol.values)
        removed = False
        for k in list(values):
            if k.startswith("O_s1_i1") or k.startswith("E_s1_i1"):
                del values[k]
                removed = True
        assert removed, "expected a binding bed day at organization 1"
        report = verify(inst, values)
        assert not report.ok
        assert report.family_ok["2a"] is False
        assert report.first_violation["2a"].startswith("s=1,i=1")

    @pytest.mark.parametrize("name", ["X_y1_s1", "Q", "X_y1_s1_i1_t1_z3", "U_y1_s1_i1_t4"])
    def test_malformed_name_raises(self, solved, name):
        # The rule Solution.from_dict applies to a file: a missing index,
        # no index at all, an extra index, and an index the kind lacks.
        inst, sol = solved
        values = {**sol.values, name: 1.0}
        with pytest.raises(ValueError, match="malformed variable name"):
            verify(inst, values)
        with pytest.raises(ValueError, match="malformed variable name"):
            solver.Solution.from_dict({**sol.to_dict(), "values": values})


class TestBruteForce:
    def test_tiny_hand_case(self):
        inst = make_instance(
            6, bed_catalog(), [youth(1, 1, [bed_need(2, 1, 2)])],
            [org(1, cap=1), psi_org(2, [1])],
        )
        need = inst.youths[0].needs[0]
        assert len(enumerate_schedules(need, True, 0, 6)) == 2
        sol = brute_force(inst)
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective == 0.0

    def test_refuses_oversized_search_space(self):
        ys = [
            youth(j, 1, [bed_need(6, 1, 6)]) for j in range(1, 5)
        ]
        inst = make_instance(40, bed_catalog(), ys, [org(1, cap=1), org(2, cap=1),
                                                     org(3, cap=1), psi_org(4, [1])])
        with pytest.raises(BruteForceTooLarge) as err:
            brute_force(inst, limit=100.0)
        assert err.value.estimate > 100.0

    def test_scaling_invariance_of_optima(self):
        rng = np.random.default_rng(2024)
        inst = micro_instance(rng)
        base = brute_force(inst, collect_optima=True)
        if base.status != STATUS_OPTIMAL:
            pytest.skip("infeasible draw")

        scaled_orgs = []
        for o in inst.organizations:
            scaled_orgs.append(
                type(o)(
                    id=o.id, kind=o.kind, accepts=o.accepts, offers=o.offers,
                    capacity_c=o.capacity_c, headroom_mu=o.headroom_mu,
                    cost_assign_r={k: 3.0 * v for k, v in o.cost_assign_r.items()},
                    cost_expand_gamma={k: 3.0 * v for k, v in o.cost_expand_gamma.items()},
                    cost_overflow_lambda={
                        k: 3.0 * v for k, v in o.cost_overflow_lambda.items()
                    },
                )
            )
        scaled = make_instance(
            inst.horizon_T, inst.services, inst.youths, scaled_orgs, seed=inst.rng_seed
        )
        other = brute_force(scaled, collect_optima=True)
        assert other.objective == pytest.approx(3.0 * base.objective, abs=1e-6)
        assert other.optimal_patterns == base.optimal_patterns

    def test_solution_values_verify(self, micro_pool):
        for inst in micro_pool[:6]:
            sol = brute_force(inst)
            if sol.status == STATUS_OPTIMAL:
                assert verify(inst, sol).ok


class TestSolutionSerialization:
    def test_round_trip(self, micro_pool, tmp_path):
        from shelterplan.solver import load_solution, save_solution

        sol = branch_and_bound(build(micro_pool[1]), SolverConfig())
        path = tmp_path / "sol.json"
        save_solution(sol, str(path))
        again = load_solution(str(path))
        assert again.objective == sol.objective
        assert again.values == sol.values
        assert again.status == sol.status

    def test_infinite_bound_written_as_string(self, tmp_path):
        from shelterplan.solver import load_solution, save_solution

        sol = solver._without_incumbent(STATUS_TIME, -math.inf, 0)
        path = tmp_path / "sol.json"
        save_solution(sol, str(path))

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert (doc["objective"], doc["bound"], doc["gap"]) == ("Infinity", "-Infinity", "Infinity")
        again = load_solution(str(path))
        assert (again.objective, again.bound, again.gap) == (math.inf, -math.inf, math.inf)
