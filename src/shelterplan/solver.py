"""Exact MILP solution: LP-relaxation branch-and-bound, verifier, oracle.

The LP relaxations are solved by HiGHS through the compiled module that
scipy ships (``scipy.optimize._highspy._core``). It is loaded from its file,
so a solve imports neither scipy.optimize nor scipy.sparse, and ``linprog``
hands it the matrices and options that ``scipy.optimize.linprog`` would.
The search, branching, incumbent handling and stopping rule live here. A
greedy heuristic provides the first incumbent. Given the other needs'
loads, it gives each need the cheapest schedule the model admits (f days
with X columns, the first in [a, b], consecutive ones omega - k (at least
1) to omega + k days apart if periodic), the earliest among ties: by its
start when that fixes the days (f == 1 or k == 0, as for stays), else by
a dynamic program over (occurrence, day).

Every row of the model involves one service, so the model is separable by
service block and the search keeps one tree per block: a node is one
block's LP, the model's bound is the sum of the block bounds, and an
integral point of one block replaces that block's part of the incumbent.

One rule prices a day's load at an organization, ``cheapest_split``: the
load above existing capacity goes to extra in-house units (cost gamma, at
most mu - c of them) when those are no dearer than overflow (cost lambda),
and the rest to the overflow shelter. The brute-force oracle calls it on
the instance. Inside the search the model is the only source of its data:
``_split_prices`` reads each (org, service, day) triple's capacity, top
and unit prices from the C2a rhs and the X, E and O columns, and both
incumbent repair and the heuristic's per-day cost rows apply the rule to
what it reads.

The verifier re-checks every constraint family directly against the problem
instance (never against the matrix), so model-construction bugs cannot
certify themselves. The brute-force oracle enumerates all admissible
(organization, schedule) combinations; distinct services share nothing
(capacity, continuity, windows and periodicity are all per-service), so the
search space factors by service.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import itertools
import json
import math
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .domain import (
    OrganizationProfile,
    ProblemInstance,
    demographic_compatible,
    service_offered,
)
from .model import SENSE_EQ, SENSE_GE, SENSE_LE, LinearProgram, column_name, index_values

STATUS_OPTIMAL = "Optimal"
STATUS_GAP = "GapReached"
STATUS_TIME = "TimeLimit"
STATUS_NODES = "NodeLimit"
STATUS_INFEASIBLE = "Infeasible"

LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"
LP_UNBOUNDED = "unbounded"
LP_LIMIT = "limit"

# HiGHS primal and dual feasibility tolerance, also applied to the rows of
# an LP without columns.
LP_TOLERANCE = 1e-7
# Distance from the nearest integer above which a column counts as fractional.
INTEGRALITY_EPS = 1e-6


class SolverError(RuntimeError):
    """Numerical failure or internal inconsistency while solving."""


class BruteForceTooLarge(RuntimeError):
    """Enumeration refused; carries the estimated search-space size."""

    def __init__(self, estimate: float):
        super().__init__(f"search space too large for enumeration: ~{estimate:.3g} combinations")
        self.estimate = estimate


@dataclass(frozen=True)
class SolverConfig:
    rel_gap: float = 0.01
    time_limit: float | None = None
    node_limit: int = 1_000_000

    def __post_init__(self) -> None:
        if self.rel_gap < 0:
            raise ValueError("rel_gap must be >= 0")


@dataclass
class LpResult:
    status: str
    objective: float
    x: np.ndarray | None
    nit: int = 0


@dataclass
class Solution:
    values: dict[str, float]
    objective: float
    bound: float
    gap: float
    status: str
    decomposition: dict[str, float]
    node_count: int = 0

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "objective": _json_number(self.objective),
            "bound": _json_number(self.bound),
            "gap": _json_number(self.gap),
            "status": self.status,
            "decomposition": dict(self.decomposition),
            "node_count": self.node_count,
            "values": {k: self.values[k] for k in sorted(self.values)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Solution":
        """The solution of a parsed file; ValueError for a name no U, X, E or O column has."""
        values = {name: float(v) for name, v in dict(doc["values"]).items()}
        index_values(values)
        return cls(
            values=values,
            objective=float(doc["objective"]),
            bound=float(doc["bound"]),
            gap=float(doc["gap"]),
            status=doc["status"],
            decomposition=dict(doc.get("decomposition", {})),
            node_count=int(doc.get("node_count", 0)),
        )


def _json_number(v: float) -> float | str:
    """``v``, or the string "Infinity"/"-Infinity" that strict JSON allows instead."""
    return v if math.isfinite(v) else ("Infinity" if v > 0 else "-Infinity")


def load_solution(path: str) -> Solution:
    with open(path, "r", encoding="utf-8") as fh:
        return Solution.from_dict(json.load(fh))


def save_solution(solution: Solution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(solution.to_json())
        fh.write("\n")


# ---------------------------------------------------------------------------
# LP relaxation
# ---------------------------------------------------------------------------


_HIGHS_CORE_NAME = "scipy.optimize._highspy._core"
_highs_core_module = None


def _highs_core():
    """scipy's compiled HiGHS module, loaded from its file on the first call.

    Loading the extension alone skips the import of scipy.optimize and
    scipy.sparse. It is registered under its own name, so a later
    ``import scipy.optimize`` reuses it.
    """
    global _highs_core_module
    if _highs_core_module is None:
        module = sys.modules.get(_HIGHS_CORE_NAME)
        if module is None:
            scipy_spec = importlib.util.find_spec("scipy")
            paths = [os.path.join(os.path.dirname(scipy_spec.origin), "optimize", "_highspy",
                                  "_core" + suffix)
                     for suffix in importlib.machinery.EXTENSION_SUFFIXES] if scipy_spec else []
            path = next(filter(os.path.isfile, paths), None)
            if path is None:
                raise SolverError("the LP solver needs scipy >= 1.15, which ships "
                                  "the HiGHS extension scipy/optimize/_highspy/_core")
            spec = importlib.util.spec_from_file_location(_HIGHS_CORE_NAME, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_CORE_NAME] = module
            spec.loader.exec_module(module)
        _highs_core_module = module
    return _highs_core_module


def linprog(c, *, start, index, value, row_lower, row_upper, lb, ub, time_limit=None) -> LpResult:
    """min c x s.t. row_lower <= A x <= row_upper, lb <= x <= ub, by HiGHS.

    A is given in CSC form (start, index, value), and the options are those
    that ``scipy.optimize.linprog(method="highs")`` sets. HiGHS's model
    status maps to LP_OPTIMAL, LP_INFEASIBLE (also for a model it rejects),
    LP_UNBOUNDED, or LP_LIMIT for a time or iteration limit when
    ``time_limit`` was given; any other outcome raises SolverError. ``x``
    is None unless optimal; ``nit`` counts simplex iterations.

    The name stays that of the scipy function it replaces: every LP of a
    solve is one call to this module global, which the benchmark tracer
    wraps by name to time LPs and count them against the nodes.
    """
    core = _highs_core()
    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = c.size
    model.num_row_ = model.a_matrix_.num_row_ = row_upper.size
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value
    model.col_cost_ = c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.primal_feasibility_tolerance = LP_TOLERANCE
    options.dual_feasibility_tolerance = LP_TOLERANCE
    options.output_flag = options.log_to_console = False
    if time_limit is not None:
        options.time_limit = time_limit
    highs = core._Highs()
    highs.passOptions(options)
    model_status = core.HighsModelStatus
    if highs.passModel(model) == core.HighsStatus.kError:
        status = model_status.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    info = highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status == model_status.kOptimal:
        x = np.array(highs.getSolution().col_value)
        return LpResult(LP_OPTIMAL, info.objective_function_value, x, nit)
    if status in (model_status.kInfeasible, model_status.kModelError):
        return LpResult(LP_INFEASIBLE, math.inf, None, nit)
    if status == model_status.kUnbounded:
        return LpResult(LP_UNBOUNDED, -math.inf, None, nit)
    if status in (model_status.kTimeLimit, model_status.kIterationLimit) and time_limit is not None:
        return LpResult(LP_LIMIT, -math.inf, None, nit)
    raise SolverError(f"LP solve failed: {highs.modelStatusToString(status)}")


# Sense codes in HiGHS row order: <= rows, then >= rows, then = rows.
_SENSE_CODE = {SENSE_LE: 0, SENSE_GE: 1, SENSE_EQ: 2}


def _split(lp: LinearProgram, of_col: np.ndarray, rows: np.ndarray, cols: np.ndarray,
           vals: np.ndarray) -> tuple[list[tuple], bool]:
    """The (cols, c, matrix) part of each block, and whether every row without columns holds.

    ``of_col`` gives each column's block, and a row belongs to the block of
    its columns; ``rows``, ``cols`` and ``vals`` are the nonzeros, as
    ``LinearProgram.nonzeros`` gives them. ``matrix`` holds the keywords of
    ``linprog`` other than the bounds, laid out as ``scipy.optimize.linprog``
    hands them to HiGHS: the ``<=`` rows, the negated ``>=`` rows, then the
    ``=`` rows, each in model order; within a column, entries by row,
    duplicates summed. The nonzeros are read in their own dtypes; only the sort key,
    column rank times rows plus row rank, is int64.
    """
    m, n = lp.n_rows, lp.n_cols
    sense = np.fromiter(map(_SENSE_CODE.__getitem__, lp.row_sense), dtype=np.int8, count=m)
    rhs = np.asarray(lp.rhs, dtype=float)
    ge, eq = sense == _SENSE_CODE[SENSE_GE], sense == _SENSE_CODE[SENSE_EQ]
    upper = np.where(ge, -rhs, rhs)
    lower = np.where(eq, rhs, -np.inf)
    row_block = np.full(m, -1, dtype=of_col.dtype)
    row_block[rows] = of_col[cols]
    free = row_block < 0
    rows_hold = bool(np.all((lower[free] <= LP_TOLERANCE) & (upper[free] >= -LP_TOLERANCE)))

    # Rows and columns in HiGHS order: by block, rows then by sense.
    row_order = np.lexsort((sense, row_block))
    col_order = np.argsort(of_col, kind="stable")
    row_rank = np.empty(m, dtype=np.int32)
    row_rank[row_order] = np.arange(m)
    col_rank = np.empty(n, dtype=np.int64)
    col_rank[col_order] = np.arange(n)
    key = col_rank[cols]
    key *= m
    key += row_rank[rows]
    nz = np.argsort(key, kind="stable")
    key = key[nz]
    vals = vals[nz]
    del nz
    if key.size > 1 and np.any(key[1:] == key[:-1]):
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, vals = key[first], np.add.reduceat(vals, first)
    # Column c's entries have keys in [c * m, (c + 1) * m); the rest is the row.
    start = np.searchsorted(key, np.arange(n + 1) * m)
    row_nz = np.remainder(key, m, out=key)
    np.negative(vals, out=vals, where=ge[row_order][row_nz])

    obj = np.asarray(lp.obj, dtype=float)
    n_blocks = int(of_col.max(initial=-1)) + 1
    col_cut = np.searchsorted(of_col[col_order], np.arange(n_blocks + 1))
    row_cut = np.searchsorted(row_block[row_order], np.arange(n_blocks + 1))
    parts = []
    for b in range(n_blocks):
        (c0, c1), (r0, r1) = col_cut[b:b + 2], row_cut[b:b + 2]
        block_cols, block_rows = col_order[c0:c1], row_order[r0:r1]
        index = row_nz[start[c0]:start[c1]].astype(np.int32)
        index -= r0
        matrix = {
            "start": (start[c0:c1 + 1] - start[c0]).astype(np.int32),
            "index": index,
            "value": vals[start[c0]:start[c1]],
            "row_lower": lower[block_rows],
            "row_upper": upper[block_rows],
        }
        parts.append((block_cols, obj[block_cols], matrix))
    return parts, rows_hold


class _ServiceBlocks:
    """The columns and rows of an LP grouped into blocks that share no row.

    A block is one service (``LinearProgram.col_i``), numbered in service
    order, and each row belongs to the block of its columns. A generated
    model has no row that spans two services; an LP with such a row (only
    hand-built ones have it) is one block, which keeps the split exact.
    Every block's part of the LP is cut here (``_split``). A row without
    columns belongs to no block; ``rows_hold`` says whether all such rows
    hold.
    """

    def __init__(self, lp: LinearProgram):
        services = np.asarray(lp.col_i, dtype=np.int64)
        service = np.unique(services, return_inverse=True)[1].astype(np.int32)
        rows, cols, vals = lp.nonzeros()
        # A row's nonzeros are adjacent, so a row spans two services where
        # two neighbours of one row do.
        nz_service = service[cols]
        if np.any((nz_service[1:] != nz_service[:-1]) & (rows[1:] == rows[:-1])):
            service[:] = 0
        self.of_col = service
        self.parts, self.rows_hold = _split(lp, self.of_col, rows, cols, vals)


# ---------------------------------------------------------------------------
# Shared solution utilities
# ---------------------------------------------------------------------------


def cheapest_split(org: OrganizationProfile, i: int, t: int, load: int) -> tuple[int, int]:
    """Extra in-house units and overflow referrals that cover ``load`` at least cost.

    The load above existing capacity c goes to extra units, up to the
    headroom mu - c, when they cost no more than overflow (gamma <= lambda);
    the rest overflows.
    """
    cap = org.capacity(i, t)
    over = max(0, load - cap)
    if org.cost_expand_gamma.get(i, 0.0) <= org.cost_overflow_lambda.get(i, 0.0):
        e = min(over, org.headroom(i) - cap)
        return e, over - e
    return 0, over


def _split_prices(lp: LinearProgram) -> tuple[np.ndarray, ...]:
    """``cheapest_split``'s data for each triple k of ``lp.triples``, read from the model.

    Returns five arrays over the triples: the capacity, the top, and the
    price of one more unit below capacity, below the top and above both.
    The capacity is the rhs of C2a row k. Extra units cover the load above
    it while the load stays below the top: capacity plus E's upper bound
    when E costs no more than O, else -inf, so that no extra unit is
    bought. The prices are r, r + gamma and r + lambda, with r the cost of
    the triple's X columns and gamma and lambda those of its E and O.
    """
    triples = lp.triples
    n = len(triples.keys)
    # C2a row k and the E and O columns e[0] + k and o[0] + k are triple k's
    # (see the model module's docstring).
    e, o = (int(triples.e[0]), int(triples.o[0])) if n else (0, 0)
    cap = np.array(lp.rhs[:n], dtype=float)
    gamma = np.array(lp.obj[e:e + n], dtype=float)
    lam = np.array(lp.obj[o:o + n], dtype=float)
    top = np.where(gamma <= lam, cap + np.array(lp.ub[e:e + n], dtype=float), -np.inf)
    r = np.array([lp.obj[col] for col in triples.x[triples.start[:-1]].tolist()], dtype=float)
    return cap, top, r, r + gamma, r + lam


def repair_expansion(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    """Copy of ``x`` whose E/O values are the cheapest split of each assigned load.

    ``cheapest_split``'s rule over all (org, service, day) triples at once
    (``lp.triples``), on the model's data (``_split_prices``): the extra
    units are the load above capacity, up to the top. Each triple's load
    is the sum of its X columns, which is exact because X is 0/1 wherever
    an incumbent is repaired.
    """
    out = x.copy()
    triples = lp.triples
    if not len(triples.keys):
        return out
    cap, top = _split_prices(lp)[:2]
    load = np.rint(np.add.reduceat(out[triples.x], triples.start[:-1]))
    over = np.maximum(load - cap, 0.0)
    extra = np.clip(top - cap, 0.0, over)
    out[triples.e] = extra
    out[triples.o] = over - extra
    return out


def values_from_vector(lp: LinearProgram, x: np.ndarray) -> dict[str, float]:
    """Nonzero U/X/E/O values by name, in column order; W follows from X and is left out."""
    values: dict[str, float] = {}
    cols = np.flatnonzero(x)
    for col, v in zip(cols.tolist(), x[cols].tolist()):
        if abs(v) < 1e-9 or lp.col_kind[col] == "W":
            continue
        values[lp.column_name(col)] = float(round(v)) if abs(v - round(v)) < 1e-6 else v
    return values


def decompose_objective(lp: LinearProgram, x: np.ndarray) -> dict[str, float]:
    """Cost of the X, E and O columns of ``x``, summed in column order."""
    parts = {"assignment": 0.0, "expansion": 0.0, "overflow": 0.0}
    part_of = {"X": "assignment", "E": "expansion", "O": "overflow"}
    cols = np.flatnonzero(x)
    for col, v in zip(cols.tolist(), x[cols].tolist()):
        coef = lp.obj[col]
        part = part_of.get(lp.col_kind[col])
        if coef != 0.0 and part is not None:
            parts[part] += coef * v
    return parts


# ---------------------------------------------------------------------------
# Greedy schedule heuristic
# ---------------------------------------------------------------------------


def _shared_list(values: np.ndarray) -> list:
    """``values.tolist()`` with one object for each distinct value.

    ``tolist`` makes a Python float per element; the triples' data repeats
    few values, so sharing them keeps the tracker's lists to pointers.
    """
    distinct, index = np.unique(values, return_inverse=True)
    return np.array(distinct.tolist(), dtype=object)[index].tolist()


class _LoadTracker:
    """Marginal service cost per (org, service, day) given committed loads.

    Each (org, service) pair of ``lp.triples`` keeps a cost row: a list
    indexed by day that holds the cost of one more unit at the day's
    current load, re-priced on the days that ``commit`` changes. Only the
    pair's triple days have a price; every other day, where the pair has no
    X column, holds inf.

    The price follows ``cheapest_split`` on the model's data
    (``_split_prices``): the next unit costs r while the load is below the
    triple's capacity, then r + gamma while it is below the top, else
    r + lambda.
    """

    def __init__(self, lp: LinearProgram):
        keys = lp.triples.keys
        n = len(keys)
        self._cap, self._top, self._p_in, self._p_extra, self._p_over = map(
            _shared_list, _split_prices(lp))
        self._loads = [0] * n
        # Triples are sorted by (s, i, t), so each pair's triples are a run.
        new = np.ones(n, dtype=bool)
        new[1:] = np.any(keys[1:, :2] != keys[:-1, :2], axis=1)
        cuts = np.append(np.flatnonzero(new), n).tolist()
        days = keys[:, 2].tolist()
        width = max(days, default=0) + 1
        self._rows: dict[tuple[int, int], list[float]] = {}
        # Each day's triple; n, past every triple, on a day without one.
        self._triple: dict[tuple[int, int], list[int]] = {}
        for (s, i), lo, hi in zip(keys[new, :2].tolist(), cuts, cuts[1:]):
            row, triple = [math.inf] * width, [n] * width
            for k in range(lo, hi):
                row[days[k]] = self._price(k, 0)
                triple[days[k]] = k
            self._rows[(s, i)], self._triple[(s, i)] = row, triple

    def _price(self, k: int, load: int) -> float:
        """The cost of one more unit on triple k at ``load``."""
        if load < self._cap[k]:
            return self._p_in[k]
        return self._p_extra[k] if load < self._top[k] else self._p_over[k]

    def row(self, s: int, i: int) -> list[float]:
        """The cost row of (s, i), indexed by day."""
        return self._rows[(s, i)]

    def commit(self, s: int, i: int, days: Iterable[int], sign: int = 1) -> None:
        row, triple, loads = self._rows[(s, i)], self._triple[(s, i)], self._loads
        for t in days:
            k = triple[t]
            loads[k] += sign
            row[t] = self._price(k, loads[k])


def _greedy_schedule(
    row: list[float],
    need,
    gaps: tuple[int, int],
    domain: Mapping[int, object],
) -> tuple[float, tuple[int, ...]] | None:
    """Cheapest schedule of ``need`` on the cost row ``row``, or None if it has none.

    A schedule is f days of ``domain`` (keyed by day, in increasing order),
    the first in [a, b] and each next one lo to hi days later, where
    ``gaps`` = (lo, hi). Its cost is the sum of its days' entries in
    ``row`` (indexed by day), added in day order. When a start fixes
    the schedule (f == 1 or lo == hi), each start is priced, and ties go to
    the earliest. Otherwise a dynamic program finds it: occurrence j on day
    t costs row[t] plus the least cost of occurrence j - 1 on a day in
    [t - hi, t - lo], a sliding-window minimum over the days occurrence
    j - 1 can fall on. Ties go to the earliest last day, then to the
    earliest day before each chosen one.
    """
    a, b, f = need.window_start_a, need.window_end_b, need.frequency_f
    lo, hi = gaps
    if f == 1 or lo == hi:
        best = None
        for t0 in range(a, b + 1):
            days = range(t0, t0 + lo * (f - 1) + 1, lo)
            cost = 0.0
            for t in days:
                if t not in domain:
                    break
                cost += row[t]
            else:
                if best is None or cost < best[0]:
                    best = (cost, tuple(days))
        return best

    layer = {t: row[t] for t in range(a, b + 1) if t in domain}
    back = []
    for _ in range(f - 1):
        prev, layer, ptr = layer, {}, {}
        days = iter(prev)
        nxt = next(days, None)
        # Days of prev in [t - hi, t - lo] by increasing cost, earliest first.
        window: deque[int] = deque()
        for t in domain:
            while nxt is not None and nxt <= t - lo:
                while window and prev[window[-1]] > prev[nxt]:
                    window.pop()
                window.append(nxt)
                nxt = next(days, None)
            while window and window[0] < t - hi:
                window.popleft()
            if window:
                ptr[t] = window[0]
                layer[t] = prev[window[0]] + row[t]
            elif nxt is None:
                break
        back.append(ptr)
    if not layer:
        return None
    least = min(layer.values())
    chosen = [next(t for t, cost in layer.items() if cost == least)]
    for ptr in reversed(back):
        chosen.append(ptr[chosen[-1]])
    return least, tuple(reversed(chosen))


def schedule_heuristic(
    lp: LinearProgram,
    passes: int = 3,
    initial: Mapping[tuple[int, int], tuple[int, tuple[int, ...]]] | None = None,
    *,
    _deadline: float | None = None,
) -> np.ndarray:
    """Greedy per-need assignment with remove-and-reinsert improvement.

    An optional initial assignment (e.g. rounded from an LP relaxation)
    seeds the search; improvement passes re-place each need against the
    marginal cost of the current loads until a pass changes nothing, or
    until a pass ends after ``time.monotonic()`` passed ``_deadline``. The
    first pass always completes.
    """
    inst = lp.source_instance
    catalog = inst.services
    tracker = _LoadTracker(lp)
    chosen: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    if initial:
        for key, (s, days) in initial.items():
            chosen[key] = (s, days)
            tracker.commit(s, key[1], days, sign=1)

    # Once per call: each need's gaps, columns, and position of each X day.
    needs = []
    for youth in inst.youths:
        for need in youth.needs:
            svc, omega = catalog.get(need.service), need.omega
            k = svc.flexibility_k
            gaps = (max(omega - k, 1), omega + k) if svc.periodic else (1, inst.horizon_T)
            rec = lp.needs[(youth.id, need.service)]
            needs.append((youth, need, gaps, rec, {t: p for p, t in enumerate(rec.days)}))

    for pass_no in range(passes):
        changed = False
        for youth, need, gaps, rec, position in needs:
            key = (youth.id, need.service)
            if key in chosen:
                s_old, days_old = chosen[key]
                tracker.commit(s_old, need.service, days_old, sign=-1)
            best = None
            for s in rec.orgs:
                res = _greedy_schedule(tracker.row(s, need.service), need, gaps, position)
                if res is None:
                    continue
                cost, days = res
                if best is None or cost < best[0]:
                    best = (cost, s, days)
            if best is None:
                raise SolverError(
                    f"no feasible schedule for youth {youth.id}, service {need.service}"
                )
            _, s_new, days_new = best
            if key in chosen and chosen[key] != (s_new, days_new):
                changed = True
            chosen[key] = (s_new, days_new)
            tracker.commit(s_new, need.service, days_new, sign=1)
        if pass_no > 0 and not changed:
            break
        if _deadline is not None and time.monotonic() > _deadline:
            break

    x = np.zeros(lp.n_cols)
    for youth, need, gaps, rec, position in needs:
        s, days = chosen[(youth.id, need.service)]
        j = rec.orgs.index(s)
        x[rec.u + j] = 1.0
        x[[rec.x + j * len(rec.days) + position[t] for t in days]] = 1.0
        if rec.starts:
            # Starts are consecutive days.
            x[rec.w + j * len(rec.starts) + days[0] - rec.starts[0]] = 1.0
    return repair_expansion(lp, x)


def _stays_from_lp(
    lp: LinearProgram, x: np.ndarray
) -> dict[tuple[int, int], tuple[int, tuple[int, ...]]]:
    """Round the W mass of each stay need to its heaviest stay."""
    initial: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for youth in lp.source_instance.youths:
        for need in youth.needs:
            i = need.service
            rec = lp.needs[(youth.id, i)]
            n = len(rec.starts)
            if n:
                s, t0, _ = max(
                    ((s, t0, rec.w + j * n + q)
                     for j, s in enumerate(rec.orgs) for q, t0 in enumerate(rec.starts)),
                    key=lambda e: (x[e[2]], -e[0], -e[1]),
                )
                initial[(youth.id, i)] = (s, tuple(range(t0, t0 + need.frequency_f)))
    return initial


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


def _select_branch_var(lp: LinearProgram, cols: np.ndarray, x: np.ndarray,
                       integer: np.ndarray) -> int | None:
    """Pick the most fractional of ``cols`` at their values ``x``: U first, then X, then E/O.

    ``integer`` marks the integer ones of ``cols``; only they are picked.
    Returns a position in ``cols``. W is integral wherever U and X are, so
    it is never picked.
    """
    frac = np.abs(x - np.round(x))
    is_frac = (integer & (frac > INTEGRALITY_EPS)).nonzero()[0]
    best_j, best_rank = None, None
    for j in is_frac:
        kind = lp.col_kind[cols[j]]
        tier = 0 if kind == "U" else (1 if kind == "X" else 2)
        rank = (tier, abs(frac[j] - 0.5), j)
        if best_rank is None or rank < best_rank:
            best_rank, best_j = rank, int(j)
    return best_j


def _without_incumbent(status: str, bound: float, node_count: int) -> Solution:
    """The result of a search that found no incumbent."""
    return Solution(
        values={},
        objective=math.inf,
        bound=bound,
        gap=math.inf,
        status=status,
        decomposition={"assignment": 0.0, "expansion": 0.0, "overflow": 0.0},
        node_count=node_count,
    )


def branch_and_bound(lp: LinearProgram, config: SolverConfig | None = None) -> Solution:
    """Best-bound branch and bound with one search tree per service block.

    The LP is separable by block (``_ServiceBlocks``), so each node is one
    block's LP, and the model's bound is the sum of the blocks' bounds.
    Stops when the relative gap between the incumbent and that sum reaches
    config.rel_gap (the MIP-gap stopping contract), or on node/time limits.
    Every incumbent passes the independent verifier before being accepted.
    """
    config = config or SolverConfig()
    inst = lp.source_instance
    t_start = time.monotonic()
    deadline = t_start + config.time_limit if config.time_limit is not None else None
    root_lb, root_ub = lp.bounds_arrays()
    int_mask = np.asarray(lp.is_integer, dtype=bool)
    cost = np.asarray(lp.obj, dtype=float)
    blocks = _ServiceBlocks(lp)
    if not blocks.rows_hold:
        return _without_incumbent(STATUS_INFEASIBLE, math.inf, 0)

    best_x: np.ndarray | None = None
    best_obj = math.inf

    def try_incumbent(x: np.ndarray) -> None:
        """Keep ``x``, rounded, if it beats the incumbent; its E/O must be repaired."""
        nonlocal best_x, best_obj
        xr = np.array(x, dtype=float)
        xr[int_mask] = np.round(xr[int_mask])
        obj = float(np.dot(cost, xr))
        if obj < best_obj - 1e-9:
            if inst is not None:
                report = verify(inst, values_from_vector(lp, xr), claimed_objective=obj)
                if not report.ok:
                    raise SolverError(f"incumbent failed verification: {report.first_failure()}")
            best_x, best_obj = xr, obj

    def heuristic_incumbent(x_lp: np.ndarray | None = None) -> None:
        """Offer the heuristic's point, seeded by ``x_lp``'s stays; a rejected point raises."""
        if inst is None or not inst.youths:
            return
        initial = None if x_lp is None else _stays_from_lp(lp, x_lp)
        try:
            x = schedule_heuristic(lp, initial=initial, _deadline=deadline)
        except SolverError:
            # No greedy schedule exists (hand-crafted instance); let the
            # search discover infeasibility or a solution on its own.
            return
        try_incumbent(x)

    if lp.n_cols > 0 and not (deadline is not None and time.monotonic() > deadline):
        heuristic_incumbent()

    # Integral points of single blocks, kept until every block has one
    # while there is no incumbent.
    found: dict[int, np.ndarray] = {}

    def part(b: int) -> float:
        """Cost of block b's part of the incumbent; inf while it has none."""
        cols, c = blocks.parts[b][:2]
        if best_x is not None:
            return float(c @ best_x[cols])
        return float(c @ found[b]) if b in found else math.inf

    def closed(value: float, b: int) -> bool:
        """Whether an LP value of block b cannot improve its incumbent part."""
        return value >= part(b) * (1.0 - 1e-12) - 1e-9

    def with_block(cols: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """The incumbent (zeros without one) with ``cols`` set to ``xb``."""
        x = best_x.copy() if best_x is not None else np.zeros(lp.n_cols)
        x[cols] = xb
        return x

    seq = itertools.count()
    # One heap per block of (bound, -seq, patch dict block position ->
    # (lb, ub)). A root enters at the least its block's columns can cost,
    # and no root enters for a block whose incumbent part costs that least.
    heaps: list[list[tuple]] = []
    for b, (cols, c, *_) in enumerate(blocks.parts):
        nz = c != 0
        least = float(np.minimum(c[nz] * root_lb[cols][nz], c[nz] * root_ub[cols][nz]).sum())
        heaps.append([] if closed(least, b) else [(least, -next(seq), {})])
    node_count = 0

    while True:
        if best_x is None and len(found) == len(heaps):
            x = np.zeros(lp.n_cols)
            for b, xb in found.items():
                x[blocks.parts[b][0]] = xb
            try_incumbent(repair_expansion(lp, x))
        for b, heap in enumerate(heaps):
            if heap and closed(heap[0][0], b):
                heap.clear()
        # A block's bound is its least open node, or its incumbent part once
        # no node is open; inf marks a block with neither, which is infeasible.
        bounds = [heap[0][0] if heap else part(b) for b, heap in enumerate(heaps)]
        if math.inf in bounds:
            return _without_incumbent(STATUS_INFEASIBLE, math.inf, node_count)
        bound = sum(bounds)
        open_blocks = [b for b, heap in enumerate(heaps) if heap]
        if not open_blocks:
            status = STATUS_OPTIMAL
            break
        if best_obj < math.inf and (best_obj - bound) / max(abs(best_obj), 1e-9) <= config.rel_gap:
            status = STATUS_GAP
            break
        if node_count >= config.node_limit:
            status = STATUS_NODES
            break
        if config.time_limit is not None and time.monotonic() - t_start > config.time_limit:
            status = STATUS_TIME
            break

        # Unsolved roots first (a root is the only entry without a patch),
        # lowest block first; then the block whose incumbent part lies
        # furthest above its bound.
        roots = [b for b in open_blocks if not heaps[b][0][2]]
        b = roots[0] if roots else max(open_blocks, key=lambda b: (part(b) - bounds[b], -b))
        _, _, patch = entry = heapq.heappop(heaps[b])
        cols, c, matrix = blocks.parts[b]
        lb, ub = root_lb[cols], root_ub[cols]
        for j, (lo, hi) in patch.items():
            lb[j], ub[j] = lo, hi
        remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
        res = linprog(c, **matrix, lb=lb, ub=ub, time_limit=remaining)
        node_count += 1
        if res.status == LP_LIMIT:
            # The node stays open, so its bound still counts.
            heapq.heappush(heaps[b], entry)
            status = STATUS_TIME
            break
        if res.status == LP_INFEASIBLE:
            continue
        if res.status == LP_UNBOUNDED:
            raise SolverError("LP relaxation unbounded; model bounds missing")
        if closed(res.objective, b):
            continue
        x = res.x
        if node_count == 1:
            heuristic_incumbent(with_block(cols, x))
            if closed(res.objective, b):
                continue
        j = _select_branch_var(lp, cols, x, int_mask[cols])
        if j is None:
            if best_x is None:
                found[b] = x
            else:
                try_incumbent(repair_expansion(lp, with_block(cols, x)))
            continue
        v = float(x[j])
        children = [{**patch, j: (lb[j], float(math.floor(v)))},
                    {**patch, j: (float(math.ceil(v)), ub[j])}]
        # Of two equal bounds the entry pushed last pops first: the ceil
        # child when v's fraction is below 0.5, else the floor child, so the
        # search dives away from the integer nearest v.
        if v - math.floor(v) >= 0.5:
            children.reverse()
        for child in children:
            heapq.heappush(heaps[b], (res.objective, -next(seq), child))

    if best_x is None:
        return _without_incumbent(status, bound, node_count)

    final_bound = best_obj if status == STATUS_OPTIMAL else min(bound, best_obj)
    gap = max(0.0, (best_obj - final_bound) / max(abs(best_obj), 1e-9))
    if gap <= 1e-12 and status == STATUS_GAP:
        status = STATUS_OPTIMAL
    return Solution(
        values=values_from_vector(lp, best_x),
        objective=best_obj,
        bound=final_bound,
        gap=gap,
        status=status,
        decomposition=decompose_objective(lp, best_x),
        node_count=node_count,
    )


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


FAMILIES = ("2a", "2b", "2c", "2d", "2e", "3a", "3b", "4a", "4b", "4c")


@dataclass
class VerifyReport:
    family_ok: dict[str, bool]
    first_violation: dict[str, str | None]
    violation_counts: dict[str, int]
    objective_ok: bool
    objective_recomputed: float
    objective_claimed: float | None
    ok: bool = field(init=False)

    def __post_init__(self) -> None:
        self.ok = all(self.family_ok.values()) and self.objective_ok

    def first_failure(self) -> str | None:
        for fam in FAMILIES:
            if not self.family_ok[fam]:
                return f"{fam}: {self.first_violation[fam]}"
        if not self.objective_ok:
            return (
                f"objective: claimed {self.objective_claimed} != "
                f"recomputed {self.objective_recomputed}"
            )
        return None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "families": {
                fam: {
                    "ok": self.family_ok[fam],
                    "first_violation": self.first_violation[fam],
                    "violations": self.violation_counts[fam],
                }
                for fam in FAMILIES
            },
            "objective_ok": self.objective_ok,
            "objective_recomputed": self.objective_recomputed,
            "objective_claimed": (
                None if self.objective_claimed is None else _json_number(self.objective_claimed)
            ),
        }


def verify(
    instance: ProblemInstance,
    values: Mapping[str, float] | Solution,
    claimed_objective: float | None = None,
    tolerance: float = 1e-6,
) -> VerifyReport:
    """Re-check all constraint families against the instance alone.

    Family semantics: 4b covers the periodic occurrence count and the
    maximum consecutive gap (omega + k); 4c covers the minimum gap
    (omega - k, i.e. at most one occurrence per flexibility window).
    """
    if isinstance(values, Solution):
        if claimed_objective is None:
            claimed_objective = values.objective
        values = values.values
    tables = index_values({name: v for name, v in values.items() if not abs(v) < 1e-9})
    u_vals, x_vals, e_vals, o_vals = tables["U"], tables["X"], tables["E"], tables["O"]

    family_ok = {fam: True for fam in FAMILIES}
    first: dict[str, str | None] = {fam: None for fam in FAMILIES}
    counts = {fam: 0 for fam in FAMILIES}

    def flag(fam: str, where: str) -> None:
        counts[fam] += 1
        if family_ok[fam]:
            family_ok[fam] = False
            first[fam] = where

    org_by_id = {o.id: o for o in instance.organizations}
    catalog = instance.services
    T = instance.horizon_T

    # One pass over the values: assignment loads per (s, i, t) for the
    # capacity checks, and the occurrences (t, s) and serving organizations
    # of each (youth, service).
    loads: dict[tuple[int, int, int], int] = {}
    occ_by_need: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (y, s, i, t), v in x_vals.items():
        loads[(s, i, t)] = loads.get((s, i, t), 0) + int(round(v))
        if v > 0.5:
            occ_by_need.setdefault((y, i), []).append((t, s))
    u_by_need: dict[tuple[int, int], set[int]] = {}
    for (y, s, i), v in u_vals.items():
        if v > 0.5:
            u_by_need.setdefault((y, i), set()).add(s)

    for youth in instance.youths:
        for need in youth.needs:
            i = need.service
            svc = catalog.get(i)
            a, b, d, f = (
                need.window_start_a,
                need.window_end_b,
                need.duration_d,
                need.frequency_f,
            )
            occ = sorted(occ_by_need.get((youth.id, i), ()))
            orgs_used = sorted({s for _, s in occ})
            u_orgs = sorted(u_by_need.get((youth.id, i), ()))

            if len(u_orgs) > 1:
                flag("2c", f"y={youth.id},i={i}")
            for s in orgs_used:
                if u_vals.get((youth.id, s, i), 0.0) < 0.5:
                    flag("2d", f"y={youth.id},s={s},i={i}")
            for s in sorted(set(orgs_used) | set(u_orgs)):
                org = org_by_id.get(s)
                if org is None:
                    flag("2e", f"y={youth.id},s={s},i={i}")
                    continue
                if not service_offered(org, i, catalog) or not demographic_compatible(
                    youth.demographics, org.accepts
                ):
                    flag("2e", f"y={youth.id},s={s},i={i}")

            upper = min(b + d, T)
            for t, s in occ:
                if t < a or t > upper:
                    flag("3a", f"y={youth.id},i={i},t={t}")
            if not any(a <= t <= b for t, _ in occ):
                flag("3b", f"y={youth.id},i={i}")

            if not svc.periodic:
                if len(occ) != f:
                    flag("4a", f"y={youth.id},i={i}")
                continue
            if len(occ) != f:
                flag("4b", f"y={youth.id},i={i}")
            omega, k = need.omega, svc.flexibility_k
            lo_gap = max(omega - k, 1)
            days = [t for t, _ in occ]
            for prev, nxt in zip(days, days[1:]):
                gap = nxt - prev
                if gap > omega + k:
                    flag("4b", f"y={youth.id},i={i},t={nxt}")
                if gap < lo_gap:
                    flag("4c", f"y={youth.id},i={i},t={nxt}")

    triples = set(loads) | set(e_vals) | set(o_vals)
    for (s, i, t) in sorted(triples):
        org = org_by_id.get(s)
        if org is None:
            flag("2a", f"s={s},i={i},t={t}")
            continue
        load = loads.get((s, i, t), 0)
        e = e_vals.get((s, i, t), 0.0)
        o = o_vals.get((s, i, t), 0.0)
        cap = org.capacity(i, t)
        mu = org.headroom(i)
        if o < -tolerance:
            flag("2a", f"s={s},i={i},t={t}")
        if load > cap + e + o + tolerance:
            flag("2a", f"s={s},i={i},t={t}")
        if e < -tolerance or cap + e > mu + tolerance:
            flag("2b", f"s={s},i={i},t={t}")

    # Objective recomputed from the instance cost data.
    obj = 0.0
    for (y, s, i, t), v in x_vals.items():
        org = org_by_id.get(s)
        if org is not None:
            obj += org.cost_assign_r.get(i, 0.0) * v
    for (s, i, t), v in e_vals.items():
        org = org_by_id.get(s)
        if org is not None:
            obj += org.cost_expand_gamma.get(i, 0.0) * v
    for (s, i, t), v in o_vals.items():
        org = org_by_id.get(s)
        if org is not None:
            obj += org.cost_overflow_lambda.get(i, 0.0) * v

    if claimed_objective is None:
        objective_ok = True
    else:
        objective_ok = abs(obj - claimed_objective) <= max(
            tolerance, 1e-6 * max(1.0, abs(obj))
        )

    return VerifyReport(
        family_ok=family_ok,
        first_violation=first,
        violation_counts=counts,
        objective_ok=objective_ok,
        objective_recomputed=obj,
        objective_claimed=claimed_objective,
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def enumerate_schedules(need, periodic: bool, k: int, horizon_T: int) -> list[tuple[int, ...]]:
    """All admissible occurrence-day tuples for one need."""
    a, b, d, f = need.window_start_a, need.window_end_b, need.duration_d, need.frequency_f
    upper = min(b + d, horizon_T)
    starts = list(range(a, min(b, horizon_T) + 1))
    if f == 1:
        return [(t,) for t in starts]
    if not periodic:
        out = []
        pool = list(range(a, upper + 1))
        for first in starts:
            rest = [t for t in pool if t > first]
            for combo in itertools.combinations(rest, f - 1):
                out.append((first,) + combo)
        return out
    omega = need.omega
    lo_gap, hi_gap = max(omega - k, 1), omega + k
    out = []

    def extend(days: tuple[int, ...]) -> None:
        if len(days) == f:
            out.append(days)
            return
        prev = days[-1]
        for gap in range(lo_gap, hi_gap + 1):
            t = prev + gap
            if t > upper:
                break
            extend(days + (t,))

    for t0 in starts:
        extend((t0,))
    return out


def brute_force(
    instance: ProblemInstance,
    limit: float = 1e7,
    collect_optima: bool = False,
) -> Solution:
    """Exact optimum by exhaustive enumeration, for micro-instances.

    Needs for different services never interact (capacity, continuity and
    scheduling are all per-service), so enumeration factors by service; the
    size guard applies to each service's combination count.
    """
    catalog = instance.services
    org_by_id = {o.id: o for o in instance.organizations}
    by_service: dict[int, list] = {}
    for youth in instance.youths:
        for need in youth.needs:
            by_service.setdefault(need.service, []).append((youth, need))

    total_cost = 0.0
    chosen: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    optima_patterns: dict[int, set] = {}

    for i, pairs in sorted(by_service.items()):
        svc = catalog.get(i)
        options_per_need: list[list[tuple[int, tuple[int, ...], float]]] = []
        space = 1.0
        for youth, need in pairs:
            schedules = enumerate_schedules(need, svc.periodic, svc.flexibility_k, instance.horizon_T)
            options = []
            for org in instance.organizations:
                if not service_offered(org, i, catalog):
                    continue
                if not demographic_compatible(youth.demographics, org.accepts):
                    continue
                r = org.cost_assign_r.get(i, 0.0)
                for days in schedules:
                    options.append((org.id, days, r * len(days)))
            if not options:
                return _without_incumbent(STATUS_INFEASIBLE, math.inf, 0)
            options_per_need.append(options)
            space *= len(options)
            if space > limit:
                raise BruteForceTooLarge(space)

        best_cost = math.inf
        best_combo = None
        argmins: set = set()
        for combo in itertools.product(*options_per_need):
            loads: dict[tuple[int, int], int] = {}
            cost = 0.0
            for s, days, assign_cost in combo:
                cost += assign_cost
                for t in days:
                    loads[(s, t)] = loads.get((s, t), 0) + 1
            for (s, t), load in loads.items():
                org = org_by_id[s]
                e, o = cheapest_split(org, i, t, load)
                cost += (
                    org.cost_expand_gamma.get(i, 0.0) * e
                    + org.cost_overflow_lambda.get(i, 0.0) * o
                )
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_combo = combo
                if collect_optima:
                    argmins = {tuple((s, days) for s, days, _ in combo)}
            elif collect_optima and cost <= best_cost + 1e-9:
                argmins.add(tuple((s, days) for s, days, _ in combo))

        total_cost += best_cost
        if collect_optima:
            optima_patterns[i] = argmins
        for (youth, need), (s, days, _) in zip(pairs, best_combo):
            chosen[(youth.id, i)] = (s, days)

    # Materialize variable values with the cheapest expansion/overflow split.
    values: dict[str, float] = {}
    loads_all: dict[tuple[int, int, int], int] = {}
    for (y, i), (s, days) in chosen.items():
        values[column_name("U", y, s, i, None)] = 1.0
        for t in days:
            values[column_name("X", y, s, i, t)] = 1.0
            loads_all[(s, i, t)] = loads_all.get((s, i, t), 0) + 1
    decomposition = {"assignment": 0.0, "expansion": 0.0, "overflow": 0.0}
    for (s, i, t), load in sorted(loads_all.items()):
        org = org_by_id[s]
        e, o = cheapest_split(org, i, t, load)
        if e:
            values[column_name("E", None, s, i, t)] = float(e)
            decomposition["expansion"] += org.cost_expand_gamma.get(i, 0.0) * e
        if o:
            values[column_name("O", None, s, i, t)] = float(o)
            decomposition["overflow"] += org.cost_overflow_lambda.get(i, 0.0) * o
        decomposition["assignment"] += org.cost_assign_r.get(i, 0.0) * load
    solution = Solution(
        values=values,
        objective=total_cost,
        bound=total_cost,
        gap=0.0,
        status=STATUS_OPTIMAL,
        decomposition=decomposition,
    )
    if collect_optima:
        solution.optimal_patterns = optima_patterns  # type: ignore[attr-defined]
    return solution
