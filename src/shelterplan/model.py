"""Sparse MILP construction from a problem instance.

Variables
    U[y,s,i]    binary: youth y receives service i from organization s
    X[y,s,i,t]  binary: youth y receives service i from s on day t
    E[s,i,t]    integer: extra in-house units added at s for service i, day t
    O[s,i,t]    integer: youth referred to the overflow shelter from s
    W[y,s,i,t]  binary: youth y's stay for service i at s starts on day t
                (stay needs only, see below)

Constraint families (row annotations)
    2a  per-day capacity: sum_y X <= c + E + O
    2b  facility headroom: c + E <= mu, which is E's upper bound mu - c
        and has no row
    2c  one serving organization per (youth, service)
    2d  continuity link: sum_t X <= T * U, and for a stay need
        sum_t W <= U per organization (C2dw)
    3b  start inside the [a, b] window (>= 1); 3a/2e hold structurally
        because no X column is created outside [a, b+d] or at an
        incompatible or non-offering organization
    4a  non-periodic occurrence count == f
    4b  periodic occurrence count == f plus maximum-gap chain rows so
        consecutive occurrences are at most omega + k days apart; for a
        stay need, one stay (C4bw: sum W == 1) and each X day equal to the
        W mass of the stays that cover it (C4bl)
    4c  minimum-gap windows: at most one occurrence per organization in
        any window of omega - k consecutive days

Together 4b and 4c force consecutive occurrence gaps into
[omega - k, omega + k] anchored at the realized start day.

A stay need is a run of f >= 2 consecutive days (periodic, omega 1, k 0,
as the bed is) on contiguous reachable days with a start in
[a, min(b, last reachable day - f + 1)]. Its W columns write every
fractional X profile as a mixture of whole stays, which is the convex hull
of its schedules and far tighter in relaxation than the gap rows. W is
integral wherever U and X are, so branching never needs it; solution
files leave it out.

A stay need's rows are C2c, C4bw, C4bl and C2dw. They imply its other
rows, in relaxation too: C4bw and C4bl give sum X == f (4b); C2dw and C4bl
give sum_t X == f * sum_t W <= f * U <= T * U at each organization (2d);
and every stay's first day lies in [a, b], so the window holds X mass of
at least sum W == 1 (3b). So a stay need has no C2d, C3b, C4b or gap rows.

X columns are created only on reachable days: for a periodic need the union
of the per-occurrence intervals [a + j*(omega-k), b + j*(omega+k)], clipped
to [a, min(b + d, T)]; for a single-occurrence need just [a, b]; otherwise
the full [a, min(b + d, T)]. W columns follow the O columns, and the W rows
follow all other rows.

The builder makes no Python object per nonzero or per column. Two records
index the column table by arithmetic. ``lp.needs[(y, i)]`` is a
``NeedColumns(orgs, days, u, x, starts, w)``: for organization j (its
position in ``orgs``), U is column u + j, X on days[p] is
x + j*len(days) + p, and W starting on starts[q] is w + j*len(starts) + q;
a stay's starts, like its days, are consecutive days. ``lp.triples`` is a
``Triples(keys, x, start, e, o)`` of arrays: the used (s, i, t) sorted,
the X columns of triple k in x[start[k]:start[k + 1]] (at least one), and
its E and O columns e[k] = e[0] + k and o[k] = o[0] + k; its C2a row is
row k. So a need's X columns are consecutive, and the builder emits each
row family as arrays through ``add_rows``: C2a first, in one call; per
need C2c, C2d, C3b, C4a or C4b, the C4bg rows (each a rotation of the
need's later days) and the C4c windows; per stay need C4bw, then C4bl and
C2dw per organization. Row order, names and the order of each row's
nonzeros are those of adding the rows one at a time.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Mapping, NamedTuple

import numpy as np

from .domain import (
    ProblemInstance,
    demographic_compatible,
    service_offered,
)

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="

# Index letters that key each kind's values: U (y, s, i), X (y, s, i, t),
# E and O (s, i, t).
KEY_FIELDS = {"U": "ysi", "X": "ysit", "E": "sit", "O": "sit"}


def column_name(kind: str, y: int | None, s: int, i: int, t: int | None) -> str:
    """The name of a column: its kind, then the index letters it has with their values."""
    if y is None:
        return f"{kind}_s{s}_i{i}_t{t}"
    if t is None:
        return f"{kind}_y{y}_s{s}_i{i}"
    return f"{kind}_y{y}_s{s}_i{i}_t{t}"


# The names column_name writes for the kinds that key values: the kind,
# then each index letter with an integer as str writes one.
_VALUE_NAMES = {
    kind: re.compile(kind + "".join(f"_{field}(0|-?[1-9][0-9]*)" for field in fields))
    for kind, fields in KEY_FIELDS.items()
}


def index_values(values: Mapping[str, float]) -> dict[str, dict[tuple[int, ...], float]]:
    """Group named values by kind, each keyed by its KEY_FIELDS index tuple.

    ValueError for a name that no U, X, E or O column has: one that
    ``column_name`` writes for no index values.
    """
    tables: dict[str, dict[tuple[int, ...], float]] = {kind: {} for kind in KEY_FIELDS}
    for name, v in values.items():
        kind = name.partition("_")[0]
        pattern = _VALUE_NAMES.get(kind)
        match = pattern.fullmatch(name) if pattern is not None else None
        if match is None:
            raise ValueError(f"malformed variable name {name!r}")
        tables[kind][tuple(map(int, match.groups()))] = v
    return tables


class NeedColumns(NamedTuple):
    """The U, X and W columns of one (youth, service) need, laid out as the
    module docstring says; ``starts`` is empty unless the need is a stay."""

    orgs: list[int]
    days: list[int]
    u: int
    x: int
    starts: list[int]
    w: int


class Triples(NamedTuple):
    """The used (s, i, t) triples as arrays, laid out as the module docstring
    says; ``keys`` is (n, 3)."""

    keys: np.ndarray
    x: np.ndarray
    start: np.ndarray
    e: np.ndarray
    o: np.ndarray


# Nonzeros after which add_rows merges its latest chunks into one.
_MERGE_NNZ = 1 << 20


class LinearProgram:
    """Annotated sparse model: objective, rows, bounds, integrality.

    The columns are a table of lists: kind, index values y, s, i and t
    (None where a kind has none), cost, bounds and integrality; so are the
    per-row name, family, sense and rhs. The nonzeros are typed arrays
    (int32 rows and columns, float64 values), appended one chunk per
    ``add_rows`` call and joined on the first read after it
    (``nonzeros``); a hand-built LP and a generated one share that storage.
    Only a built model fills ``needs`` and ``triples`` (see the module
    docstring).
    """

    def __init__(self, instance: ProblemInstance | None = None):
        self.source_instance = instance
        self.col_kind: list[str] = []
        self.col_y: list[int | None] = []
        self.col_s: list[int] = []
        self.col_i: list[int] = []
        self.col_t: list[int | None] = []
        self.obj: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_integer: list[bool] = []
        self.row_names: list[str] = []
        self.row_family: list[str] = []
        self.row_sense: list[str] = []
        self.rhs: list[float] = []
        # Chunks of the nonzeros' rows, columns and values, in row order;
        # the last _fresh of them are not yet merged.
        self._chunks: tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]] = ([], [], [])
        self._fresh = 0
        self._fresh_nnz = 0
        self._nnz = 0
        self.needs: dict[tuple[int, int], NeedColumns] = {}
        none = np.empty(0, dtype=np.int64)
        self.triples = Triples(none.reshape(0, 3), none, np.zeros(1, dtype=np.int64), none, none)

    # -- construction ------------------------------------------------------

    def add_cols(self, kind: str, count: int, *, y, s, i, t, obj, lb, ub, integer: bool) -> range:
        """``count`` columns of one kind; their indices.

        Each of ``y``, ``s``, ``i``, ``t``, ``obj``, ``lb`` and ``ub`` is a
        list with one value per column, or one value for all of them.
        """
        first = len(self.col_kind)
        self.col_kind.extend([kind] * count)
        for values, given in ((self.col_y, y), (self.col_s, s), (self.col_i, i), (self.col_t, t),
                              (self.obj, obj), (self.lb, lb), (self.ub, ub)):
            values.extend(given if isinstance(given, list) else [given] * count)
        self.is_integer.extend([integer] * count)
        return range(first, first + count)

    def add_rows(
        self,
        names: list[str],
        family: str,
        sense: str,
        rhs: list[float],
        counts: list[int] | np.ndarray,
        cols: list[int] | np.ndarray,
        vals: list[float] | np.ndarray,
    ) -> None:
        """Append rows of one family and sense; row j holds the next counts[j] entries."""
        first = len(self.row_names)
        self.row_names.extend(names)
        self.row_family.extend([family] * len(names))
        self.row_sense.extend([sense] * len(names))
        self.rhs.extend(rhs)
        rows = np.repeat(np.arange(first, len(self.row_names), dtype=np.int32), counts)
        cols = np.asarray(cols, dtype=np.int32)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.size == cols.size == vals.size):
            raise ValueError("row counts, columns and values disagree in length")
        for chunks, part in zip(self._chunks, (rows, cols, vals)):
            chunks.append(part)
        self._nnz += rows.size
        self._fresh += 1
        self._fresh_nnz += rows.size
        if self._fresh_nnz >= _MERGE_NNZ:
            # Few large arrays instead of many small ones: freeing them
            # after the final join returns their memory.
            for chunks in self._chunks:
                chunks[-self._fresh:] = [np.concatenate(chunks[-self._fresh:])]
            self._fresh = self._fresh_nnz = 0

    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row (int32), column (int32) and value (float64) of every nonzero, in row order."""
        for chunks, dtype in zip(self._chunks, (np.int32, np.int32, np.float64)):
            if len(chunks) != 1:
                # One array at a time, so the join holds one extra copy at most.
                chunks[:] = [np.concatenate(chunks) if chunks else np.empty(0, dtype)]
        self._fresh = self._fresh_nnz = 0
        rows, cols, vals = (chunks[0] for chunks in self._chunks)
        return rows, cols, vals

    # -- properties --------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return len(self.col_kind)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def nnz(self) -> int:
        return self._nnz

    def counts_by_family(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fam in self.row_family:
            counts[fam] = counts.get(fam, 0) + 1
        return counts

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for kind in self.col_kind:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def column_name(self, col: int) -> str:
        return column_name(self.col_kind[col], self.col_y[col], self.col_s[col], self.col_i[col],
                           self.col_t[col])

    # -- scipy matrices -----------------------------------------------------

    def to_scipy(self):
        """Split rows by sense into (c, A_ub, b_ub, A_eq, b_eq) with >= negated.

        Built anew on every call, so rows added since count. The solver
        cuts its own matrices from the nonzeros; scipy.sparse is imported
        here so that no command loads it.
        """
        import scipy.sparse as sp

        n, m = self.n_cols, self.n_rows
        rows, cols, vals = self.nonzeros()
        A = sp.csr_matrix((vals, (rows, cols)), shape=(m, max(n, 1)))
        sense = np.asarray(self.row_sense)
        rhs = np.asarray(self.rhs, dtype=float)
        le = np.flatnonzero(sense == SENSE_LE)
        ge = np.flatnonzero(sense == SENSE_GE)
        eq = np.flatnonzero(sense == SENSE_EQ)
        blocks = []
        b_ub_parts = []
        if le.size:
            blocks.append(A[le])
            b_ub_parts.append(rhs[le])
        if ge.size:
            blocks.append(-A[ge])
            b_ub_parts.append(-rhs[ge])
        A_ub = sp.vstack(blocks, format="csr") if blocks else None
        b_ub = np.concatenate(b_ub_parts) if b_ub_parts else None
        A_eq = A[eq] if eq.size else None
        b_eq = rhs[eq] if eq.size else None
        c = np.asarray(self.obj, dtype=float)
        return c, A_ub, b_ub, A_eq, b_eq

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lb, dtype=float), np.asarray(self.ub, dtype=float)

    # -- export -------------------------------------------------------------

    def write_mps(self, path: str) -> None:
        write_mps(self, path)

    def write_triplets(self, path: str) -> None:
        write_triplets(self, path)


def reachable_days(need, horizon_T: int, periodic: bool, k: int) -> list[int]:
    """Days on which an occurrence of this need can fall.

    See the module docstring for the rule; the result is sorted and unique.
    """
    a, b = need.window_start_a, need.window_end_b
    d, f = need.duration_d, need.frequency_f
    upper = min(b + d, horizon_T)
    if f == 1:
        return list(range(a, min(b, horizon_T) + 1))
    if not periodic:
        return list(range(a, upper + 1))
    omega = need.omega
    days: set[int] = set()
    for j in range(f):
        lo = a + j * (omega - k)
        hi = b + j * (omega + k)
        if lo > upper:
            break
        for t in range(max(lo, a), min(hi, upper) + 1):
            days.add(t)
    return sorted(days)


def stay_starts(need, svc, orgs: list[int], days: list[int]) -> list[int]:
    """Start days of a stay need's W columns; empty if the need is no stay.

    A stay is f >= 2 consecutive days (periodic, omega 1, k 0) on
    contiguous reachable days, starting in [a, b] early enough to end by
    the last reachable day.
    """
    f = need.frequency_f
    if not (svc.periodic and svc.flexibility_k == 0 and need.omega == 1 and f >= 2):
        return []
    if not orgs or not days or days != list(range(days[0], days[-1] + 1)):
        return []
    return list(range(need.window_start_a, min(need.window_end_b, days[-1] - f + 1) + 1))


class ModelBuilder:
    """Builds the annotated sparse model for one instance."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.catalog = instance.services

    def admissible_orgs(self, youth, need) -> list[int]:
        orgs = []
        for org in self.instance.organizations:
            if not service_offered(org, need.service, self.catalog):
                continue
            if not demographic_compatible(youth.demographics, org.accepts):
                continue
            orgs.append(org.id)
        return orgs

    def build(self) -> LinearProgram:
        inst = self.instance
        lp = LinearProgram(inst)
        org_by_id = {o.id: o for o in inst.organizations}
        T = inst.horizon_T

        # Enumerate admissible (youth, need, org, day) tuples first so that
        # columns can be laid out in canonical (kind, y, s, i, t) order.
        need_info = []  # (youth, need, svc, orgs, days)
        for youth in inst.youths:
            for need in youth.needs:
                svc = self.catalog.get(need.service)
                orgs = self.admissible_orgs(youth, need)
                days = reachable_days(need, T, svc.periodic, svc.flexibility_k)
                need_info.append((youth, need, svc, orgs, days))

        u_first = [
            lp.add_cols("U", len(orgs), y=youth.id, s=orgs, i=need.service, t=None, obj=0.0,
                        lb=0.0, ub=1.0, integer=True).start
            for youth, need, svc, orgs, days in need_info
        ]

        # A need's X columns are consecutive, by organization and then by day.
        x_first = []
        n_u = lp.n_cols
        for youth, need, svc, orgs, days in need_info:
            i = need.service
            x_first.append(lp.n_cols)
            for s in orgs:
                lp.add_cols("X", len(days), y=youth.id, s=s, i=i, t=days,
                            obj=org_by_id[s].cost_assign_r.get(i, 0.0), lb=0.0, ub=1.0,
                            integer=True)

        # Used (s, i, t) triples in sorted order, each with its X columns.
        s_of, i_of, t_of = (np.asarray(field[n_u:], dtype=np.int64)
                            for field in (lp.col_s, lp.col_i, lp.col_t))
        order = np.lexsort((t_of, i_of, s_of))
        s_of, i_of, t_of = s_of[order], i_of[order], t_of[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (np.diff(s_of) != 0) | (np.diff(i_of) != 0) | (np.diff(t_of) != 0)
        heads = np.flatnonzero(new)
        keys = np.column_stack((s_of[heads], i_of[heads], t_of[heads]))
        triples = keys.tolist()
        x_sorted = order + n_u
        cuts = np.append(heads, order.size)

        caps = [float(org_by_id[s].capacity(i, t)) for (s, i, t) in triples]
        fields = dict(zip("sit", keys.T.tolist()))
        e = lp.add_cols(
            "E", len(triples), y=None, **fields,
            obj=[org_by_id[s].cost_expand_gamma.get(i, 0.0) for (s, i, t) in triples],
            lb=0.0, ub=[float(org_by_id[s].headroom(i) - c) for (s, i, t), c in zip(triples, caps)],
            integer=True,
        )
        o = lp.add_cols(
            "O", len(triples), y=None, **fields,
            obj=[org_by_id[s].cost_overflow_lambda.get(i, 0.0) for (s, i, t) in triples],
            lb=0.0, ub=float(max(len(inst.youths), 1)), integer=True,
        )
        lp.triples = Triples(keys, x_sorted, cuts, np.arange(e.start, e.stop),
                             np.arange(o.start, o.stop))

        # W columns of each stay need, by organization and then by start.
        records = []
        for (youth, need, svc, orgs, days), u, x in zip(need_info, u_first, x_first):
            y, i = youth.id, need.service
            starts = stay_starts(need, svc, orgs, days)
            records.append(NeedColumns(orgs, days, u, x, starts, lp.n_cols))
            if starts:
                for s in orgs:
                    lp.add_cols("W", len(starts), y=y, s=s, i=i, t=starts, obj=0.0, lb=0.0,
                                ub=1.0, integer=True)
        lp.needs = {(youth.id, need.service): rec
                    for (youth, need, *_), rec in zip(need_info, records)}

        # (2a): per-day capacity on used triples, X columns then E and O;
        # (2b) is E's upper bound.
        sizes = np.diff(cuts)
        ends = np.cumsum(sizes + 2)
        cols = np.empty(order.size + 2 * len(triples), dtype=np.int64)
        cols[np.arange(order.size) + 2 * np.repeat(np.arange(len(triples)), sizes)] = x_sorted
        cols[ends - 2] = lp.triples.e
        cols[ends - 1] = lp.triples.o
        vals = np.ones(cols.size)
        vals[ends - 2] = vals[ends - 1] = -1.0
        lp.add_rows([f"C2a_s{s}_i{i}_t{t}" for (s, i, t) in triples], "2a", SENSE_LE, caps,
                    sizes + 2, cols, vals)

        # (2c)/(2d)/(3b)/(4a)/(4b)/(4c): per-need scheduling structure.
        for (youth, need, svc, orgs, days), rec in zip(need_info, records):
            y, i = youth.id, need.service
            ucols = list(range(rec.u, rec.u + len(orgs)))
            if ucols:
                lp.add_rows([f"C2c_y{y}_i{i}"], "2c", SENSE_LE, [1.0], [len(ucols)], ucols,
                            np.ones(len(ucols)))
            # A stay need's W rows imply its 2d, 3b and 4b rows.
            if not rec.starts:
                self._need_rows(lp, y, i, need, svc, orgs, np.asarray(days, dtype=np.int64),
                                _by_org(rec.x, len(orgs), len(days)), ucols)

        # (4b)/(2d) for stay needs: X is a mixture of whole stays.
        for (youth, need, svc, orgs, days), rec in zip(need_info, records):
            if not rec.starts:
                continue
            y, i, f, starts = youth.id, need.service, need.frequency_f, rec.starts
            X, W = _by_org(rec.x, len(orgs), len(days)), _by_org(rec.w, len(orgs), len(starts))
            lp.add_rows([f"C4bw_y{y}_i{i}"], "4b", SENSE_EQ, [1.0], [W.size], W.T.ravel(),
                        np.ones(W.size))
            # Each X day equals the mass of the stays that cover it; days
            # after the last start's stay get none. Days and starts are
            # runs of consecutive days, so row t holds X(t), then W(t0) for
            # t0 from max(first start, t - f + 1) to min(last start, t).
            d = np.asarray(days, dtype=np.int64)
            lo = np.maximum(d - f + 1, starts[0])
            covering = np.maximum(np.minimum(d, starts[-1]) - lo + 1, 0)
            pos = _positions(covering + 1)
            is_x = pos == 0
            offset = np.where(is_x, np.repeat(np.arange(d.size), covering + 1),
                              np.repeat(lo - starts[0], covering + 1) + pos - 1)
            vals = np.where(is_x, 1.0, -1.0)
            for o, s in enumerate(orgs):
                lp.add_rows(
                    [f"C4bl_y{y}_s{s}_i{i}_t{t}" for t in days], "4b", SENSE_EQ, [0.0] * d.size,
                    covering + 1, offset + np.where(is_x, X[0, o], W[0, o]), vals,
                )
                lp.add_rows(
                    [f"C2dw_y{y}_s{s}_i{i}"], "2d", SENSE_LE, [0.0], [W.shape[0] + 1],
                    np.append(W[:, o], rec.u + o), np.append(np.ones(W.shape[0]), -1.0),
                )
        return lp

    @staticmethod
    def _need_rows(lp: LinearProgram, y: int, i: int, need, svc, orgs: list[int], d: np.ndarray,
                   X: np.ndarray, ucols: list[int]) -> None:
        """The 2d, 3b, 4a or 4b, and gap rows of a need that is no stay.

        ``d`` holds the need's days and ``X`` its (day, org) X columns.
        """
        T = lp.source_instance.horizon_T
        a, b, f = need.window_start_a, need.window_end_b, need.frequency_f
        n_days, n_orgs = X.shape
        if n_orgs:
            lp.add_rows(
                [f"C2d_y{y}_s{s}_i{i}" for s in orgs], "2d", SENSE_LE, [0.0] * n_orgs,
                np.full(n_orgs, n_days + 1), np.vstack([X, ucols]).T.ravel(),
                np.tile(np.append(np.ones(n_days), -float(T)), n_orgs),
            )
        window_x = X[(a <= d) & (d <= b)].T.ravel()
        lp.add_rows([f"C3b_y{y}_i{i}"], "3b", SENSE_GE, [1.0], [window_x.size], window_x,
                    np.ones(window_x.size))
        all_x = X.T.ravel()
        if not svc.periodic:
            lp.add_rows([f"C4a_y{y}_i{i}"], "4a", SENSE_EQ, [float(f)], [all_x.size], all_x,
                        np.ones(all_x.size))
            return
        lp.add_rows([f"C4b_y{y}_i{i}"], "4b", SENSE_EQ, [float(f)], [all_x.size], all_x,
                    np.ones(all_x.size))
        if f < 2:
            return
        omega, k = need.omega, svc.flexibility_k

        # Maximum gap: an occurrence with no successor within omega + k
        # days must be the last one (no occurrence after it at all). Row r
        # covers days r.. of the need: the tail days from next[r] on at +1,
        # day r at +f, and the days before next[r] at -f, in that order.
        nxt = np.searchsorted(d, d + omega + k, side="right")
        n_rows = int(np.count_nonzero(nxt < n_days))  # a row needs a tail day
        r = np.arange(n_rows)
        length = n_days - r
        pos = _positions(length)
        # The entry at pos is day first + (pos + skip) mod n: the rotation
        # of days r.. that starts at next[r], n - skip of them tail days.
        first, n = np.repeat(r, length), np.repeat(length, length)
        skip = np.repeat(nxt[:n_rows] - r, length)
        day = first + (pos + skip) % n
        tail = n - skip
        sign = np.where(pos < tail, 1.0, np.where(pos == tail, float(f), -float(f)))
        lp.add_rows(
            [f"C4bg_y{y}_i{i}_t{t}" for t in d[:n_rows].tolist()], "4b", SENSE_LE,
            [float(f)] * n_rows, length * n_orgs, X[day].ravel(), np.repeat(sign, n_orgs),
        )

        # Minimum gap: at most one occurrence per organization in any
        # window of omega - k consecutive days (anchored at each day) that
        # holds two days or more.
        L = omega - k
        if L >= 2 and n_orgs:
            width = np.searchsorted(d, d + L - 1, side="right") - np.arange(n_days)
            at = np.flatnonzero(width >= 2)
            counts = np.repeat(width[at], n_orgs)
            lp.add_rows(
                [f"C4c_y{y}_s{s}_i{i}_t{t}" for t in d[at].tolist() for s in orgs], "4c",
                SENSE_LE, [1.0] * counts.size, counts,
                np.repeat(X[at].ravel(), counts) + _positions(counts), np.ones(int(counts.sum())),
            )


def _by_org(first: int, n_orgs: int, n: int) -> np.ndarray:
    """A need's ``n_orgs * n`` columns from ``first`` on, org-major, as an (n, org) array."""
    return np.arange(first, first + n_orgs * n).reshape(n_orgs, n).T


def _positions(counts: np.ndarray) -> np.ndarray:
    """Each entry's position within its row, for rows of these lengths."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


def build(instance: ProblemInstance) -> LinearProgram:
    """Construct the full annotated model for an instance."""
    return ModelBuilder(instance).build()


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _field(text: str, width: int) -> str:
    return text.ljust(width) if len(text) < width else text + " "


class _NumberTexts:
    """Each distinct number's texts, formatted once and kept for the file.

    Numbers are keyed by their bits, so 0.0 and -0.0 keep their own text.
    Each of ``forms`` turns a number's text into one string the lines use.
    """

    def __init__(self, *forms):
        self._forms = forms
        self._known: dict[int, tuple[str, ...]] = {}

    def __call__(self, values) -> list[np.ndarray]:
        """Per form, an object array with that form of each value's text."""
        bits, index = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                                return_inverse=True)
        known, found = self._known, []
        for key, v in zip(bits.tolist(), bits.view(np.float64).tolist()):
            texts = known.get(key)
            if texts is None:
                text = _fmt(v)
                texts = known[key] = tuple(form(text) for form in self._forms)
            found.append(texts)
        return [np.array([texts[j] for texts in found], dtype=object)[index]
                for j in range(len(self._forms))]


def _name_fields(names, count: int) -> np.ndarray:
    """``count`` names as 10-wide fields in an object array."""
    return np.fromiter((_field(name, 10) for name in names), dtype=object, count=count)


def _lines(count: int, *cells) -> str:
    """The text of ``count`` lines, given cell by cell.

    A cell is one string for every line or one string per line (a list or
    an object array); the cells fill an object table by columns, and its
    rows are joined into one string.
    """
    table = np.empty((count, len(cells)), dtype=object)
    for j, cell in enumerate(cells):
        table[:, j] = cell
    return "".join(table.ravel().tolist())


def _where(mask: np.ndarray, cells: np.ndarray | str) -> np.ndarray:
    """``cells`` (an object array, or one string for all) where ``mask`` holds, else ""."""
    out = np.full(mask.size, "", dtype=object)
    out[mask] = cells if isinstance(cells, str) else cells[mask]
    return out


# Columns, or rows, whose lines the writers join into one string at a time.
_SLICE = 4096

_SENSE_TAG = {SENSE_LE: " L  ", SENSE_GE: " G  ", SENSE_EQ: " E  "}


def write_mps(lp: LinearProgram, path: str) -> None:
    """Write the model in fixed MPS layout.

    Fields start at columns 2, 5, 15, 25, 40 and 50; names longer than a
    field overflow it with a single separating space, which mainstream
    readers accept. All variables are integer, so the COLUMNS section sits
    inside one INTORG/INTEND marker pair.

    A column's entries are its nonzero cost, then its matrix entries in
    ascending row order, two to a line. Every section is written a slice
    of ``_SLICE`` columns or rows at a time, each slice's lines joined
    into one string. The only temporary the size of the nonzeros is the
    stable column order of the model's own (row-ordered) arrays; a slice
    gathers its entries through it. Each row and column field, and each
    distinct number's text, is made once.
    """
    n, m = lp.n_cols, lp.n_rows
    rows, cols, vals = lp.nonzeros()
    # Column c's matrix entries are order[starts[c]:starts[c + 1]], in row order.
    order = np.argsort(cols, kind="stable")
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=starts[1:])
    obj = np.asarray(lp.obj, dtype=np.float64)
    col_fields = _name_fields(
        map(column_name, lp.col_kind, lp.col_y, lp.col_s, lp.col_i, lp.col_t), n)
    # Row index m stands for the objective row COST.
    row_fields = _name_fields(chain(lp.row_names, ["COST"]), m + 1)
    numbers = _NumberTexts(lambda text: _field(text, 15), lambda text: text + "\n")

    with open(path, "w", encoding="utf-8") as fh:
        out = fh.write
        out("NAME" + " " * 10 + "SHELTERPLAN\nROWS\n N  COST\n")
        for lo in range(0, m, _SLICE):
            hi = min(lo + _SLICE, m)
            out(_lines(hi - lo, [_SENSE_TAG[sense] for sense in lp.row_sense[lo:hi]],
                       lp.row_names[lo:hi], "\n"))
        out("COLUMNS\n")
        out("    MARKER    " + _field("'MARKER'", 25 - 14) + "'INTORG'\n")
        for first in range(0, n, _SLICE):
            last = min(first + _SLICE, n)
            base = starts[first]
            take = order[base:starts[last]]
            # The slice's entries, each column's cost (row m) at its head.
            costed = np.flatnonzero(obj[first:last] != 0.0)
            at = starts[first + costed] - base
            entry_row = np.insert(rows[take], at, m)
            padded, ends = numbers(np.insert(vals[take], at, obj[first + costed]))
            count = np.diff(starts[first:last + 1])
            count[costed] += 1
            # A column's line j holds its entries 2j and 2j + 1; with an odd
            # count, its last line holds one entry.
            per_col = (count + 1) // 2
            j = _positions(per_col)
            a = np.repeat(np.cumsum(count) - count, per_col) + 2 * j
            pair = 2 * j + 1 < np.repeat(count, per_col)
            b = np.where(pair, a + 1, a)
            out(_lines(
                a.size, "    ", col_fields[np.repeat(np.arange(first, last), per_col)],
                row_fields[entry_row[a]], np.where(pair, padded[a], ends[a]),
                _where(pair, row_fields[entry_row[b]]), _where(pair, ends[b]),
            ))
        del order  # the nonzero-sized temporary is not needed past COLUMNS
        out("    MARKER    " + _field("'MARKER'", 25 - 14) + "'INTEND'\n")
        out("RHS\n")
        rhs = np.asarray(lp.rhs, dtype=np.float64)
        for lo in range(0, m, _SLICE):
            at = lo + np.flatnonzero(rhs[lo:lo + _SLICE] != 0.0)
            out(_lines(at.size, "    " + _field("RHS", 10), row_fields[at], numbers(rhs[at])[1]))
        out("BOUNDS\n")
        lb, ub = lp.bounds_arrays()
        for first in range(0, n, _SLICE):
            last = min(first + _SLICE, n)
            fields = col_fields[first:last]
            lower = lb[first:last] != 0.0
            out(_lines(
                last - first, _where(lower, " LO " + _field("BND", 10)),
                _where(lower, fields), _where(lower, numbers(lb[first:last])[1]),
                " UI " + _field("BND", 10), fields, numbers(ub[first:last])[1],
            ))
        out("ENDATA\n")


def write_triplets(lp: LinearProgram, path: str) -> None:
    """Write the documented sparse-triplet text format (one entry per line).

    Like ``write_mps``, it joins the lines of a slice at a time and makes
    each name, index and distinct number's text once.
    """
    n, m = lp.n_cols, lp.n_rows
    numbers = _NumberTexts(lambda text: " " + text, lambda text: " " + text + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        out = fh.write
        out(f"SHELTERPLAN-SPARSE 1\nMINIMIZE\nNVARS {n}\nNROWS {m}\n")
        for first in range(0, n, _SLICE):
            last = min(first + _SLICE, n)
            names = list(map(column_name, lp.col_kind[first:last], lp.col_y[first:last],
                             lp.col_s[first:last], lp.col_i[first:last], lp.col_t[first:last]))
            out(_lines(
                last - first, "VAR ", names, numbers(lp.lb[first:last])[0],
                numbers(lp.ub[first:last])[0],
                [" 1" if integer else " 0" for integer in lp.is_integer[first:last]],
                numbers(lp.obj[first:last])[1],
            ))
        for lo in range(0, m, _SLICE):
            hi = min(lo + _SLICE, m)
            out(_lines(hi - lo, "ROW ", lp.row_names[lo:hi], " ", lp.row_family[lo:hi], " ",
                       lp.row_sense[lo:hi], numbers(lp.rhs[lo:hi])[1]))
        row_texts = np.array([str(r) for r in range(m)], dtype=object)
        col_texts = np.array([f" {c}" for c in range(n)], dtype=object)
        rows, cols, vals = lp.nonzeros()
        step = _SLICE * 16  # NZ lines are short, so a slice holds more of them
        for lo in range(0, lp.nnz, step):
            out(_lines(min(step, lp.nnz - lo), "NZ ", row_texts[rows[lo:lo + step]],
                       col_texts[cols[lo:lo + step]], numbers(vals[lo:lo + step])[1]))
        out("END\n")
