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
its E and O columns e[k] and o[k]. So a need's X columns are consecutive,
and the builder emits each row family as arrays through ``add_rows``: C2a
in one call; per need C2c, C2d, C3b, C4a or C4b, the C4bg rows (each a
rotation of the need's later days) and the C4c windows; per stay need
C4bw, then C4bl and C2dw per organization. Row order, names and the order
of each row's nonzeros are those of adding the rows one at a time.
"""

from __future__ import annotations

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


def parse_variable_name(name: str) -> tuple[str, dict[str, int]]:
    """Inverse of column_name: kind plus index dict; ValueError for a part without a number."""
    kind, _, rest = name.partition("_")
    indices: dict[str, int] = {}
    for part in rest.split("_"):
        indices[part[:1]] = int(part[1:])
    return kind, indices


def index_values(values: Mapping[str, float]) -> dict[str, dict[tuple[int, ...], float]]:
    """Group named values by kind, each keyed by its KEY_FIELDS index tuple.

    Names of other kinds are skipped; callers filter the values first.
    """
    tables: dict[str, dict[tuple[int, ...], float]] = {kind: {} for kind in KEY_FIELDS}
    for name, v in values.items():
        kind, idx = parse_variable_name(name)
        fields = KEY_FIELDS.get(kind)
        if fields is not None:
            tables[kind][tuple(idx[f] for f in fields)] = v
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
    (``nonzeros``). ``add_row`` appends a one-row chunk, so a hand-built LP
    and a generated one share the same storage. Only a built model fills
    ``needs`` and ``triples`` (see the module docstring).
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

    def add_row(
        self,
        name: str,
        family: str,
        sense: str,
        rhs: float,
        cols: list[int] | np.ndarray,
        vals: list[float] | np.ndarray,
    ) -> int:
        self.add_rows([name], family, sense, [rhs], [len(cols)], cols, vals)
        return len(self.row_names) - 1

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

    def column_names(self) -> list[str]:
        return list(map(column_name, self.col_kind, self.col_y, self.col_s, self.col_i,
                        self.col_t))

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


def _distinct_texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Each distinct number formatted once: the texts and each value's index.

    Values are told apart by their bits, so 0.0 and -0.0 keep their own text.
    """
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return [_fmt(v) for v in bits.view(np.float64).tolist()], index


# Columns whose COLUMNS lines write_mps formats from one slice of Python lists.
_MPS_SLICE = 4096


def write_mps(lp: LinearProgram, path: str) -> None:
    """Write the model in fixed MPS layout.

    Fields start at columns 2, 5, 15, 25, 40 and 50; names longer than a
    field overflow it with a single separating space, which mainstream
    readers accept. All variables are integer, so the COLUMNS section sits
    inside one INTORG/INTEND marker pair.

    A column's entries are its nonzero cost, then its matrix entries in
    ascending row order, two to a line. The entries stay arrays; only one
    slice of columns at a time becomes Python lists.
    """
    n, m = lp.n_cols, lp.n_rows
    col_fields = [_field(name, 10) for name in lp.column_names()]
    # Row index m stands for the objective row COST.
    row_fields = [_field(name, 10) for name in lp.row_names] + [_field("COST", 10)]

    # Cost entries first, so that a stable sort by column puts each cost
    # ahead of the column's matrix entries, which keep their row order.
    tri_row, tri_col, tri_val = lp.nonzeros()
    obj = np.asarray(lp.obj, dtype=float)
    cost_cols = np.flatnonzero(obj != 0.0)
    cols = np.concatenate([cost_cols.astype(np.int32), tri_col])
    order = np.argsort(cols, kind="stable")
    starts = np.searchsorted(cols[order], np.arange(n + 1)).tolist()
    del cols
    row_of = np.concatenate([np.full(cost_cols.size, m, dtype=np.int32), tri_row])[order]
    texts, text_of = _distinct_texts(np.concatenate([obj[cost_cols], tri_val])[order])
    del order
    padded = [_field(text, 15) for text in texts]

    with open(path, "w", encoding="utf-8") as fh:
        out = fh.write
        out("NAME" + " " * 10 + "SHELTERPLAN\n")
        out("ROWS\n")
        out(" N  COST\n")
        for name, sense in zip(lp.row_names, lp.row_sense):
            tag = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}[sense]
            out(f" {tag}  {name}\n")
        out("COLUMNS\n")
        out("    MARKER    " + _field("'MARKER'", 25 - 14) + "'INTORG'\n")
        for first in range(0, n, _MPS_SLICE):
            last = min(first + _MPS_SLICE, n)
            base = starts[first]
            rows = row_of[base:starts[last]].tolist()
            text_idx = text_of[base:starts[last]].tolist()
            for col in range(first, last):
                prefix = "    " + col_fields[col]
                lo, hi = starts[col] - base, starts[col + 1] - base
                for j in range(lo, hi - 1, 2):
                    out(
                        prefix + row_fields[rows[j]] + padded[text_idx[j]]
                        + row_fields[rows[j + 1]] + texts[text_idx[j + 1]] + "\n"
                    )
                if (hi - lo) % 2:
                    out(prefix + row_fields[rows[hi - 1]] + texts[text_idx[hi - 1]] + "\n")
        out("    MARKER    " + _field("'MARKER'", 25 - 14) + "'INTEND'\n")
        out("RHS\n")
        for name, rhs in zip(row_fields, lp.rhs):
            if rhs != 0.0:
                out("    " + _field("RHS", 10) + name + _fmt(rhs) + "\n")
        out("BOUNDS\n")
        bnd = _field("BND", 10)
        ub_texts, ub_text_of = _distinct_texts(np.asarray(lp.ub, dtype=float))
        for col, text in enumerate(ub_text_of.tolist()):
            if lp.lb[col] != 0.0:
                out(" LO " + bnd + col_fields[col] + _fmt(lp.lb[col]) + "\n")
            out(" UI " + bnd + col_fields[col] + ub_texts[text] + "\n")
        out("ENDATA\n")


# Nonzeros that write_triplets formats from one slice of Python lists.
_TRIPLET_SLICE = 65536


def write_triplets(lp: LinearProgram, path: str) -> None:
    """Write the documented sparse-triplet text format (one entry per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        out = fh.write
        out(f"SHELTERPLAN-SPARSE 1\nMINIMIZE\nNVARS {lp.n_cols}\nNROWS {lp.n_rows}\n")
        for col, name in enumerate(lp.column_names()):
            out(
                f"VAR {name} {_fmt(lp.lb[col])} {_fmt(lp.ub[col])} "
                f"{1 if lp.is_integer[col] else 0} {_fmt(lp.obj[col])}\n"
            )
        for r in range(lp.n_rows):
            out(f"ROW {lp.row_names[r]} {lp.row_family[r]} {lp.row_sense[r]} {_fmt(lp.rhs[r])}\n")
        nonzeros = lp.nonzeros()
        for first in range(0, lp.nnz, _TRIPLET_SLICE):
            rows, cols, vals = (part[first:first + _TRIPLET_SLICE].tolist() for part in nonzeros)
            for r, c, v in zip(rows, cols, vals):
                out(f"NZ {r} {c} {_fmt(v)}\n")
        out("END\n")
