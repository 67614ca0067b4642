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
    2b  facility headroom: c + E <= mu
    2c  one serving organization per (youth, service)
    2d  continuity link: sum_t X <= T * U, and for a stay need
        sum_t W <= U per organization
    3b  start inside the [a, b] window (>= 1); 3a/2e hold structurally
        because no X column is created outside [a, b+d] or at an
        incompatible or non-offering organization
    4a  non-periodic occurrence count == f
    4b  periodic occurrence count == f plus maximum-gap chain rows so
        consecutive occurrences are at most omega + k days apart; for a
        stay need, one stay (sum W == 1) and each X day equal to the W
        mass of the stays that cover it, in place of the gap rows
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

X columns are created only on reachable days: for a periodic need the union
of the per-occurrence intervals [a + j*(omega-k), b + j*(omega+k)], clipped
to [a, min(b + d, T)]; for a single-occurrence need just [a, b]; otherwise
the full [a, min(b + d, T)]. W columns follow the O columns, and the W rows
follow all other rows.
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


class VariableRef(NamedTuple):
    """One column of the matrix with its semantic index tuple."""

    kind: str
    y: int | None
    s: int
    i: int
    t: int | None
    col: int

    @property
    def name(self) -> str:
        if self.kind == "U":
            return f"U_y{self.y}_s{self.s}_i{self.i}"
        if self.y is not None:
            return f"{self.kind}_y{self.y}_s{self.s}_i{self.i}_t{self.t}"
        return f"{self.kind}_s{self.s}_i{self.i}_t{self.t}"


def parse_variable_name(name: str) -> tuple[str, dict[str, int]]:
    """Inverse of VariableRef.name: kind plus index dict."""
    kind, _, rest = name.partition("_")
    indices: dict[str, int] = {}
    for part in rest.split("_"):
        indices[part[0]] = int(part[1:])
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


class LinearProgram:
    """Annotated sparse model: objective, rows, bounds, integrality."""

    def __init__(self, instance: ProblemInstance | None = None):
        self.source_instance = instance
        self.col_refs: list[VariableRef] = []
        self.obj: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.is_integer: list[bool] = []
        self.row_names: list[str] = []
        self.row_family: list[str] = []
        self.row_sense: list[str] = []
        self.rhs: list[float] = []
        self._tri_row: list[int] = []
        self._tri_col: list[int] = []
        self._tri_val: list[float] = []
        # Structured lookups used by the solver heuristic and reporting.
        self.u_cols: dict[tuple[int, int, int], int] = {}
        self.x_cols: dict[tuple[int, int, int], dict[int, int]] = {}
        self.e_cols: dict[tuple[int, int, int], int] = {}
        self.o_cols: dict[tuple[int, int, int], int] = {}
        # W columns of each stay need's (y, s, i), by start day.
        self.w_cols: dict[tuple[int, int, int], dict[int, int]] = {}
        # X columns of each (s, i, t), the load that its E/O columns cover.
        self.x_by_triple: dict[tuple[int, int, int], list[int]] = {}
        self.need_orgs: dict[tuple[int, int], list[int]] = {}

    # -- construction ------------------------------------------------------

    def add_col(
        self,
        kind: str,
        *,
        y: int | None,
        s: int,
        i: int,
        t: int | None,
        obj: float,
        lb: float,
        ub: float,
        integer: bool,
    ) -> int:
        col = len(self.col_refs)
        self.col_refs.append(VariableRef(kind, y, s, i, t, col))
        self.obj.append(obj)
        self.lb.append(lb)
        self.ub.append(ub)
        self.is_integer.append(integer)
        return col

    def add_row(
        self,
        name: str,
        family: str,
        sense: str,
        rhs: float,
        cols: list[int] | np.ndarray,
        vals: list[float] | np.ndarray,
    ) -> int:
        row = len(self.row_names)
        self.row_names.append(name)
        self.row_family.append(family)
        self.row_sense.append(sense)
        self.rhs.append(rhs)
        self._tri_row.extend([row] * len(cols))
        self._tri_col.extend(int(c) for c in cols)
        self._tri_val.extend(float(v) for v in vals)
        return row

    # -- properties --------------------------------------------------------

    @property
    def n_cols(self) -> int:
        return len(self.col_refs)

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @property
    def nnz(self) -> int:
        return len(self._tri_val)

    def counts_by_family(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for fam in self.row_family:
            counts[fam] = counts.get(fam, 0) + 1
        return counts

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ref in self.col_refs:
            counts[ref.kind] = counts.get(ref.kind, 0) + 1
        return counts

    def column_names(self) -> list[str]:
        return [ref.name for ref in self.col_refs]

    # -- scipy matrices -----------------------------------------------------

    def to_scipy(self):
        """Split rows by sense into (c, A_ub, b_ub, A_eq, b_eq) with >= negated.

        Built anew on every call, so rows added since count. The solver
        cuts its own matrices from the nonzeros; scipy.sparse is imported
        here so that no command loads it.
        """
        import scipy.sparse as sp

        n, m = self.n_cols, self.n_rows
        A = sp.csr_matrix(
            (
                np.asarray(self._tri_val, dtype=float),
                (np.asarray(self._tri_row, dtype=np.int64), np.asarray(self._tri_col, dtype=np.int64)),
            ),
            shape=(m, max(n, 1)),
        )
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
                lp.need_orgs[(youth.id, need.service)] = orgs

        for youth, need, svc, orgs, days in need_info:
            for s in orgs:
                lp.u_cols[(youth.id, s, need.service)] = lp.add_col(
                    "U", y=youth.id, s=s, i=need.service, t=None,
                    obj=0.0, lb=0.0, ub=1.0, integer=True,
                )

        used_triples: set[tuple[int, int, int]] = set()
        for youth, need, svc, orgs, days in need_info:
            for s in orgs:
                org = org_by_id[s]
                r = org.cost_assign_r.get(need.service, 0.0)
                tmap: dict[int, int] = {}
                for t in days:
                    tmap[t] = lp.add_col(
                        "X", y=youth.id, s=s, i=need.service, t=t,
                        obj=r, lb=0.0, ub=1.0, integer=True,
                    )
                    used_triples.add((s, need.service, t))
                lp.x_cols[(youth.id, s, need.service)] = tmap

        triples = sorted(used_triples)
        for (s, i, t) in triples:
            org = org_by_id[s]
            mu = org.headroom(i)
            c = org.capacity(i, t)
            lp.e_cols[(s, i, t)] = lp.add_col(
                "E", y=None, s=s, i=i, t=t,
                obj=org.cost_expand_gamma.get(i, 0.0),
                lb=0.0, ub=float(mu - c), integer=True,
            )
        for (s, i, t) in triples:
            org = org_by_id[s]
            lp.o_cols[(s, i, t)] = lp.add_col(
                "O", y=None, s=s, i=i, t=t,
                obj=org.cost_overflow_lambda.get(i, 0.0),
                lb=0.0, ub=float(max(len(inst.youths), 1)), integer=True,
            )

        stays = {}  # (y, i) -> (orgs, days, f, starts) of each stay need
        for youth, need, svc, orgs, days in need_info:
            starts = stay_starts(need, svc, orgs, days)
            if not starts:
                continue
            stays[(youth.id, need.service)] = (orgs, days, need.frequency_f, starts)
            for s in orgs:
                lp.w_cols[(youth.id, s, need.service)] = {
                    t0: lp.add_col(
                        "W", y=youth.id, s=s, i=need.service, t=t0,
                        obj=0.0, lb=0.0, ub=1.0, integer=True,
                    )
                    for t0 in starts
                }

        # (2a)/(2b): per-day capacity and headroom on used triples.
        x_by_triple = lp.x_by_triple = {t: [] for t in triples}
        for (y, s, i), tmap in lp.x_cols.items():
            for t, col in tmap.items():
                x_by_triple[(s, i, t)].append(col)
        for (s, i, t) in triples:
            org = org_by_id[s]
            c = org.capacity(i, t)
            mu = org.headroom(i)
            cols = x_by_triple[(s, i, t)] + [lp.e_cols[(s, i, t)], lp.o_cols[(s, i, t)]]
            vals = [1.0] * (len(cols) - 2) + [-1.0, -1.0]
            lp.add_row(f"C2a_s{s}_i{i}_t{t}", "2a", SENSE_LE, float(c), cols, vals)
            lp.add_row(
                f"C2b_s{s}_i{i}_t{t}", "2b", SENSE_LE, float(mu - c),
                [lp.e_cols[(s, i, t)]], [1.0],
            )

        # (2c)/(2d)/(3b)/(4a)/(4b)/(4c): per-need scheduling structure.
        for youth, need, svc, orgs, days in need_info:
            y, i = youth.id, need.service
            a, b, f = need.window_start_a, need.window_end_b, need.frequency_f
            ucols = [lp.u_cols[(y, s, i)] for s in orgs]
            if ucols:
                lp.add_row(f"C2c_y{y}_i{i}", "2c", SENSE_LE, 1.0, ucols, [1.0] * len(ucols))
            all_x: list[int] = []
            window_x: list[int] = []
            day_cols: dict[int, list[int]] = {t: [] for t in days}
            for s in orgs:
                tmap = lp.x_cols[(y, s, i)]
                xcols = [tmap[t] for t in sorted(tmap)]
                lp.add_row(
                    f"C2d_y{y}_s{s}_i{i}", "2d", SENSE_LE, 0.0,
                    xcols + [lp.u_cols[(y, s, i)]],
                    [1.0] * len(xcols) + [-float(T)],
                )
                all_x.extend(xcols)
                for t, col in tmap.items():
                    day_cols[t].append(col)
                    if a <= t <= b:
                        window_x.append(col)
            lp.add_row(f"C3b_y{y}_i{i}", "3b", SENSE_GE, 1.0, window_x, [1.0] * len(window_x))

            if not svc.periodic:
                lp.add_row(
                    f"C4a_y{y}_i{i}", "4a", SENSE_EQ, float(f), all_x, [1.0] * len(all_x)
                )
                continue

            lp.add_row(f"C4b_y{y}_i{i}", "4b", SENSE_EQ, float(f), all_x, [1.0] * len(all_x))
            # A stay need's gaps come from its W rows below.
            if f < 2 or (y, i) in stays:
                continue
            omega, k = need.omega, svc.flexibility_k

            # Maximum gap: an occurrence with no successor within omega + k
            # days must be the last one (no occurrence after it at all).
            day_list = days
            day_arr = np.asarray(day_list)
            for idx, t in enumerate(day_list):
                later = day_arr[idx + 1 :]
                next_days = later[later <= t + omega + k]
                tail_days = later[later > t + omega + k]
                if tail_days.size == 0:
                    break
                cols: list[int] = []
                vals: list[float] = []
                for tt in tail_days:
                    for col in day_cols[int(tt)]:
                        cols.append(col)
                        vals.append(1.0)
                for col in day_cols[t]:
                    cols.append(col)
                    vals.append(float(f))
                for tt in next_days:
                    for col in day_cols[int(tt)]:
                        cols.append(col)
                        vals.append(-float(f))
                lp.add_row(f"C4bg_y{y}_i{i}_t{t}", "4b", SENSE_LE, float(f), cols, vals)

            # Minimum gap: at most one occurrence per organization in any
            # window of omega - k consecutive days (anchored at each day).
            L = omega - k
            if L >= 2:
                for idx, t in enumerate(day_list):
                    in_window = [tt for tt in day_list[idx:] if tt <= t + L - 1]
                    if len(in_window) < 2:
                        continue
                    for s in orgs:
                        tmap = lp.x_cols[(y, s, i)]
                        cols = [tmap[tt] for tt in in_window if tt in tmap]
                        if len(cols) < 2:
                            continue
                        lp.add_row(
                            f"C4c_y{y}_s{s}_i{i}_t{t}", "4c", SENSE_LE, 1.0,
                            cols, [1.0] * len(cols),
                        )

        # (4b)/(2d) for stay needs: X is a mixture of whole stays.
        for (y, i), (orgs, days, f, starts) in stays.items():
            wcols = [col for s in orgs for col in lp.w_cols[(y, s, i)].values()]
            lp.add_row(f"C4bw_y{y}_i{i}", "4b", SENSE_EQ, 1.0, wcols, [1.0] * len(wcols))
            for s in orgs:
                tmap, wmap = lp.x_cols[(y, s, i)], lp.w_cols[(y, s, i)]
                # Each X day equals the mass of the stays that cover it; days
                # after the last start's stay get none.
                for t in days:
                    covering = [wmap[t0] for t0 in starts if t0 <= t <= t0 + f - 1]
                    lp.add_row(
                        f"C4bl_y{y}_s{s}_i{i}_t{t}", "4b", SENSE_EQ, 0.0,
                        [tmap[t]] + covering, [1.0] + [-1.0] * len(covering),
                    )
                lp.add_row(
                    f"C2dw_y{y}_s{s}_i{i}", "2d", SENSE_LE, 0.0,
                    list(wmap.values()) + [lp.u_cols[(y, s, i)]],
                    [1.0] * len(wmap) + [-1.0],
                )
        return lp


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


def _distinct_texts(values: np.ndarray) -> tuple[list[str], list[int]]:
    """Each distinct number formatted once: the texts and each value's index.

    Values are told apart by their bits, so 0.0 and -0.0 keep their own text.
    """
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return [_fmt(v) for v in bits.view(np.float64).tolist()], index.tolist()


def write_mps(lp: LinearProgram, path: str) -> None:
    """Write the model in fixed MPS layout.

    Fields start at columns 2, 5, 15, 25, 40 and 50; names longer than a
    field overflow it with a single separating space, which mainstream
    readers accept. All variables are integer, so the COLUMNS section sits
    inside one INTORG/INTEND marker pair.

    A column's entries are its nonzero cost, then its matrix entries in
    ascending row order, two to a line.
    """
    n, m = lp.n_cols, lp.n_rows
    col_fields = [_field(name, 10) for name in lp.column_names()]
    # Row index m stands for the objective row COST.
    row_fields = [_field(name, 10) for name in lp.row_names] + [_field("COST", 10)]

    # Cost entries first, so that a stable sort by column puts each cost
    # ahead of the column's matrix entries, which keep their row order.
    obj = np.asarray(lp.obj, dtype=float)
    cost_cols = np.flatnonzero(obj != 0.0)
    cols = np.concatenate([cost_cols, np.asarray(lp._tri_col, dtype=np.int64)])
    rows = np.concatenate(
        [np.full(cost_cols.size, m, dtype=np.int64), np.asarray(lp._tri_row, dtype=np.int64)]
    )
    vals = np.concatenate([obj[cost_cols], np.asarray(lp._tri_val, dtype=float)])
    order = np.argsort(cols, kind="stable")
    starts = np.searchsorted(cols[order], np.arange(n + 1)).tolist()
    row_of = rows[order].tolist()
    texts, text_of = _distinct_texts(vals[order])
    padded = [_field(text, 15) for text in texts]

    lines = []
    lines.append("NAME" + " " * 10 + "SHELTERPLAN")
    lines.append("ROWS")
    lines.append(" N  COST")
    for name, sense in zip(lp.row_names, lp.row_sense):
        tag = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}[sense]
        lines.append(f" {tag}  {name}")
    lines.append("COLUMNS")
    lines.append("    MARKER    " + _field("'MARKER'", 25 - 14) + "'INTORG'")
    for col in range(n):
        prefix = "    " + col_fields[col]
        lo, hi = starts[col], starts[col + 1]
        for j in range(lo, hi - 1, 2):
            lines.append(
                prefix + row_fields[row_of[j]] + padded[text_of[j]]
                + row_fields[row_of[j + 1]] + texts[text_of[j + 1]]
            )
        if (hi - lo) % 2:
            lines.append(prefix + row_fields[row_of[hi - 1]] + texts[text_of[hi - 1]])
    lines.append("    MARKER    " + _field("'MARKER'", 25 - 14) + "'INTEND'")
    lines.append("RHS")
    for name, rhs in zip(row_fields, lp.rhs):
        if rhs != 0.0:
            lines.append("    " + _field("RHS", 10) + name + _fmt(rhs))
    lines.append("BOUNDS")
    bnd = _field("BND", 10)
    ub_texts, ub_text_of = _distinct_texts(np.asarray(lp.ub, dtype=float))
    for col in range(n):
        if lp.lb[col] != 0.0:
            lines.append(" LO " + bnd + col_fields[col] + _fmt(lp.lb[col]))
        lines.append(" UI " + bnd + col_fields[col] + ub_texts[ub_text_of[col]])
    lines.append("ENDATA")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_triplets(lp: LinearProgram, path: str) -> None:
    """Write the documented sparse-triplet text format (one entry per line)."""
    lines = []
    lines.append("SHELTERPLAN-SPARSE 1")
    lines.append("MINIMIZE")
    lines.append(f"NVARS {lp.n_cols}")
    lines.append(f"NROWS {lp.n_rows}")
    for col, ref in enumerate(lp.col_refs):
        lines.append(
            f"VAR {ref.name} {_fmt(lp.lb[col])} {_fmt(lp.ub[col])} "
            f"{1 if lp.is_integer[col] else 0} {_fmt(lp.obj[col])}"
        )
    for r in range(lp.n_rows):
        lines.append(
            f"ROW {lp.row_names[r]} {lp.row_family[r]} {lp.row_sense[r]} {_fmt(lp.rhs[r])}"
        )
    for r, c, v in zip(lp._tri_row, lp._tri_col, lp._tri_val):
        lines.append(f"NZ {r} {c} {_fmt(v)}")
    lines.append("END")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
