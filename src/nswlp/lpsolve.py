"""Small dense LP solver: exact rational constraints, float objective.

Maximizes a double-precision linear objective subject to rational
equality/inequality rows and x >= 0.  Feasibility is handled in exact
Fraction arithmetic (two-phase revised simplex with an explicit rational
basis inverse), so the returned vertex satisfies every constraint exactly.
Objective comparisons use doubles with a 1e-12 threshold, priced against a
float copy of each column made once; the pivot rule is Dantzig until a long
degenerate streak, then Bland, which guarantees termination.

Phase 1 starts from one artificial per row, and an artificial never enters
the basis in either phase.  One left basic at zero on a redundant row is
pivoted out by the ratio test as soon as an entering column touches its
row; one that no column touches stays basic at zero through phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

RC_TOL = 1e-12
_DEGENERATE_STREAK = 60

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  s.t.  rows (senses) rhs,  x >= 0."""

    objective: tuple[float, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    senses: tuple[str, ...]  # '<=', '=', '>='
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        nv = len(self.objective)
        if nv < 1:
            raise ValueError("LP needs at least one variable")
        for r, row in enumerate(self.rows):
            if len(row) != nv:
                raise ValueError(f"row {r} has wrong length")
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise ValueError("rows, senses and rhs must align")
        for s in self.senses:
            if s not in ("<=", "=", ">="):
                raise ValueError(f"unknown sense {s!r}")


@dataclass(frozen=True)
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    values: Optional[tuple[Fraction, ...]]
    objective_value: float


class _Tableau:
    """Revised simplex state: sparse columns, exact B^-1, exact basic values."""

    def __init__(self, lp: LinearProgram):
        nr = len(lp.rows)
        nv = len(lp.objective)
        # Normalize rhs >= 0.
        rows = [list(r) for r in lp.rows]
        rhs = list(lp.rhs)
        senses = list(lp.senses)
        for r in range(nr):
            if rhs[r] < 0:
                rows[r] = [-a for a in rows[r]]
                rhs[r] = -rhs[r]
                senses[r] = {"<=": ">=", ">=": "<=", "=": "="}[senses[r]]
        # Sparse columns for structural variables.
        cols: list[list[tuple[int, Fraction]]] = []
        for j in range(nv):
            col = [(r, rows[r][j]) for r in range(nr) if rows[r][j] != 0]
            cols.append(col)
        self.obj = [float(c) for c in lp.objective]
        # Slack / surplus variables.
        for r in range(nr):
            if senses[r] == "<=":
                cols.append([(r, _ONE)])
                self.obj.append(0.0)
            elif senses[r] == ">=":
                cols.append([(r, -_ONE)])
                self.obj.append(0.0)
        # One artificial per row, the starting basis.  Artificials never
        # enter, so they need no column: only an index and a zero cost.
        self.first_artificial = len(cols)
        self.obj += [0.0] * nr
        self.cols = cols
        # Pricing runs in doubles; the pivots never change a column.
        self.fcols = [[(r, float(a)) for r, a in col] for col in cols]
        self.nr = nr
        self.nv = nv
        self.basis = list(range(self.first_artificial, self.first_artificial + nr))
        self.in_basis = [False] * (self.first_artificial + nr)
        for j in self.basis:
            self.in_basis[j] = True
        self.binv = [
            [_ONE if i == r else _ZERO for i in range(nr)] for r in range(nr)
        ]
        self.xb = list(rhs)

    # -- exact column transform and pivot ------------------------------------

    def ftran(self, j: int) -> list[Fraction]:
        col = self.cols[j]
        return [
            sum((self.binv[r][i] * a for i, a in col), _ZERO)
            for r in range(self.nr)
        ]

    def pivot(self, r: int, j: int, d: list[Fraction]) -> None:
        piv = d[r]
        inv = _ONE / piv
        brow = self.binv[r]
        for i in range(self.nr):
            brow[i] *= inv
        self.xb[r] *= inv
        for k in range(self.nr):
            if k == r or d[k] == 0:
                continue
            f = d[k]
            krow = self.binv[k]
            for i in range(self.nr):
                krow[i] -= f * brow[i]
            self.xb[k] -= f * self.xb[r]
        self.in_basis[self.basis[r]] = False
        self.basis[r] = j
        self.in_basis[j] = True

    # -- pricing --------------------------------------------------------------

    def _dual_float(self, cost: Sequence[float]) -> list[float]:
        y = [0.0] * self.nr
        for r in range(self.nr):
            cb = cost[self.basis[r]]
            if cb == 0.0:
                continue
            brow = self.binv[r]
            for i in range(self.nr):
                if brow[i]:
                    y[i] += cb * float(brow[i])
        return y

    def reduced_costs(self, cost: Sequence[float]) -> list[tuple[float, int]]:
        y = self._dual_float(cost)
        out = []
        for j in range(self.first_artificial):
            if self.in_basis[j]:
                continue
            rc = cost[j]
            for r, a in self.fcols[j]:
                if y[r]:
                    rc -= y[r] * a
            if rc > RC_TOL:
                out.append((rc, j))
        return out

    def ratio_leave(self, d: list[Fraction]) -> Optional[int]:
        """Bland-style ratio test; returns leaving row or None (unbounded).

        Rows holding an artificial at level zero are pivoted out first
        whenever the entering column touches them, keeping artificials at 0.
        """
        for r in range(self.nr):
            if (
                self.basis[r] >= self.first_artificial
                and d[r] != 0
                and self.xb[r] == 0
            ):
                return r
        best: Optional[Fraction] = None
        best_row = None
        for r in range(self.nr):
            if d[r] > 0:
                ratio = self.xb[r] / d[r]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and self.basis[r] < self.basis[best_row])
                ):
                    best = ratio
                    best_row = r
        return best_row

    def run(self, cost: Sequence[float], certify: bool = False) -> str:
        """Iterate to float-level optimality; 'optimal' or 'unbounded'.

        Dantzig pricing in doubles until a long degenerate streak, then
        Bland's rule on exact reduced costs, which cannot cycle.  (Bland's
        argument needs true signs; rounded pricing can revisit a basis.)
        The exact costs are ``cost`` itself: its doubles are exact binary
        rationals.  With ``certify`` (phase 1), the terminal pricing pass is
        also re-done exactly so feasibility is never misjudged.
        """
        degenerate = 0
        bland = False
        exact: Optional[list[Fraction]] = None
        while True:
            j = None
            if not bland and (cands := self.reduced_costs(cost)):
                # Dantzig: largest reduced cost, smallest index on ties.
                best_rc = max(c[0] for c in cands)
                j = min(jj for rc, jj in cands if rc == best_rc)
            elif bland or certify:
                if exact is None:
                    exact = [Fraction(c) for c in cost]
                j = self._exact_entering(exact)
            if j is None:
                return "optimal"
            d = self.ftran(j)
            r = self.ratio_leave(d)
            if r is None:
                return "unbounded"
            if self.xb[r] == 0:
                degenerate += 1
                if degenerate >= _DEGENERATE_STREAK:
                    bland = True
            else:
                degenerate = 0
            self.pivot(r, j, d)

    def _exact_entering(self, cost: Sequence[Fraction]) -> Optional[int]:
        y = [_ZERO] * self.nr
        for r in range(self.nr):
            cb = cost[self.basis[r]]
            if cb == 0:
                continue
            brow = self.binv[r]
            for i in range(self.nr):
                y[i] += cb * brow[i]
        for j in range(self.first_artificial):
            if self.in_basis[j]:
                continue
            rc = cost[j]
            for r, a in self.cols[j]:
                rc -= y[r] * a
            if rc > 0:
                return j
        return None


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Return a basic optimal solution, or an infeasible/unbounded status."""
    t = _Tableau(lp)
    nr = t.nr
    # Phase 1: minimize the artificial sum (maximize its negation).
    cost1 = [0.0] * t.first_artificial + [-1.0] * nr
    t.run(cost1, certify=True)
    art_level = sum(
        (t.xb[r] for r in range(nr) if t.basis[r] >= t.first_artificial),
        _ZERO,
    )
    if art_level > 0:
        return LpSolution("infeasible", None, float("nan"))
    # Phase 2 on the real objective (zero on slacks and artificials);
    # artificials at zero can linger basic on redundant rows.
    status = t.run(t.obj)
    if status == "unbounded":
        return LpSolution("unbounded", None, float("inf"))
    values = [_ZERO] * t.nv
    for r in range(nr):
        if t.basis[r] < t.nv:
            values[t.basis[r]] = t.xb[r]
    obj = sum(c * float(v) for c, v in zip(lp.objective, values))
    return LpSolution("optimal", tuple(values), obj)
