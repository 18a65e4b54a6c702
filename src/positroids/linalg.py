"""Exact rational matrices, Plücker vectors, and cell sampling.

Fractions at the API boundary, integers inside: every elimination and every
minor runs on rows scaled to primitive integer vectors, which keeps row
spans, signs, supports and normalised Plücker points unchanged.  No float
enters any decision path (memberships, equalities, sign checks).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .diagrams import OPlusDiagram
from .errors import (
    NotTotallyPositive,
    RankDeficient,
    RankLoss,
    ShapeMismatch,
    _frac,
)
from .plabic import Network, build_network


_ZERO = Fraction(0)


# ----------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable grid of exact rationals; cols may be given for empty grids."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: Optional[int] = None

    def __post_init__(self) -> None:
        grid = tuple(tuple(_frac(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", grid)
        width = self.cols
        if grid:
            widths = {len(row) for row in grid}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            inferred = widths.pop()
            if width is None:
                width = inferred
            elif width != inferred:
                raise ValueError(f"cols={width} but rows have {inferred} entries")
        elif width is None:
            width = 0
        object.__setattr__(self, "cols", width)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def transpose(self) -> "RationalMatrix":
        flipped = tuple(
            tuple(row[j] for row in self.entries) for j in range(self.cols)
        )
        return RationalMatrix(flipped, cols=self.rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        product = tuple(
            tuple(
                sum((row[t] * other.entries[t][j] for t in range(self.cols)),
                    Fraction(0))
                for j in range(other.cols)
            )
            for row in self.entries
        )
        return RationalMatrix(product, cols=other.cols)

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeMismatch("determinant of a non-square matrix")
        grid, scale = _cleared(self.entries)
        pivots, up, down = _eliminate(grid)
        if len(pivots) < self.rows:
            return _ZERO
        diagonal = math.prod(grid[r][r] for r in range(self.rows))
        return Fraction(diagonal * down, up * scale ** self.rows)

    def to_json(self) -> list:
        return [[str(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]], cols: Optional[int] = None):
        return cls(tuple(map(tuple, data)), cols=cols)


# ----------------------------------------------------------------------
# the integer core


def _cleared(entries) -> tuple[list[list[int]], int]:
    """The grid times the least common denominator of its entries, and that."""
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in entries], scale


def _primitive_rows(entries) -> list[list[int]]:
    """Each row times a positive rational: a primitive integer row (zero stays zero)."""
    out = []
    for row in entries:
        (ints,), _ = _cleared((row,))
        g = math.gcd(*ints)
        out.append([x // g for x in ints] if g > 1 else ints)
    return out


def _eliminate(grid: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss–Jordan in place: ``row <- (lead*row - factor*pivot_row)/gcd``.

    Returns the pivot columns and ``up, down`` with
    det(result) * down == det(input) * up for square grids.
    """
    pivots: list[int] = []
    up = down = 1
    row = 0
    height = len(grid)
    for col in range(len(grid[0]) if grid else 0):
        pivot = next((r for r in range(row, height) if grid[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            grid[row], grid[pivot] = grid[pivot], grid[row]
            up = -up
        pivot_row = grid[row]
        lead = pivot_row[col]
        for r in range(height):
            factor = grid[r][col]
            if r != row and factor:
                new = [lead * a - factor * b for a, b in zip(grid[r], pivot_row)]
                g = math.gcd(*new)
                if g > 1:
                    new = [x // g for x in new]
                    down *= g
                grid[r] = new
                up *= lead
        pivots.append(col)
        row += 1
        if row == height:
            break
    return pivots, up, down


def _integer_kernel(grid: list[list[int]], pivots: list[int], cols: int) -> list[list[int]]:
    """Primitive integer null-space basis of an eliminated grid, one per free column."""
    scale = math.lcm(*(grid[r][p] for r, p in enumerate(pivots)))
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = scale
        for r, p in enumerate(pivots):
            v[p] = -grid[r][f] * (scale // grid[r][p])
        g = math.gcd(*v)
        basis.append([x // g for x in v])
    return basis


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    grid = _primitive_rows(matrix.entries)
    pivots, _, _ = _eliminate(grid)
    # rows past the rank are zero; each pivot row is divided by its lead once
    reduced = tuple(
        tuple(Fraction(x, row[col]) if x else _ZERO for x in row)
        for row, col in zip(grid, pivots)
    ) + ((_ZERO,) * matrix.cols,) * (matrix.rows - len(pivots))
    return RationalMatrix(reduced, cols=matrix.cols), tuple(pivots)


# ----------------------------------------------------------------------
# Plücker coordinates


def _lex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def _lex_masks(n: int, k: int) -> tuple[int, ...]:
    return tuple(sum(1 << j for j in cols) for cols in itertools.combinations(range(n), k))


def _maximal_minors(matrix: RationalMatrix) -> list[int]:
    """All k x k minors in lex column order, times one positive constant.

    Laplace expansion along each primitive integer row in turn: the nonzero
    minors of the first r rows, keyed by column bitmask, grow into those of
    the first r + 1 rows, so sub-minors are shared and zero entries skipped.
    """
    layer = {0: 1}
    for r, row in enumerate(_primitive_rows(matrix.entries)):
        entries = [(1 << j, a) for j, a in enumerate(row) if a]
        grown: dict[int, int] = {}
        get = grown.get
        for cols, value in layer.items():
            for bit, a in entries:
                if not cols & bit:
                    # cofactor sign: the new column comes after |cols & (bit - 1)| others
                    odd = (r + (cols & (bit - 1)).bit_count()) & 1
                    grown[cols | bit] = get(cols | bit, 0) + (-a if odd else a) * value
        layer = {cols: value for cols, value in grown.items() if value}
    return [layer.get(cols, 0) for cols in _lex_masks(matrix.cols, matrix.rows)]


@dataclass(frozen=True)
class GrassmannPoint:
    """Plücker vector in lex subset order, first nonzero entry scaled to 1."""

    k: int
    n: int
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(_frac(x) for x in self.coords)
        expected = math.comb(self.n, self.k)
        if len(coords) != expected:
            raise ValueError(f"need {expected} coordinates, got {len(coords)}")
        lead = next((x for x in coords if x), None)
        if lead is None:
            raise ValueError("all Plücker coordinates vanish")
        if lead != 1:
            coords = tuple(x / lead for x in coords)
        object.__setattr__(self, "coords", coords)

    def subsets(self) -> list[tuple[int, ...]]:
        return _lex_subsets(self.n, self.k)

    def entry(self, subset: Iterable[int]) -> Fraction:
        target = tuple(sorted(subset))
        return self.coords[self.subsets().index(target)]

    @property
    def support(self) -> frozenset:
        return frozenset(
            s for s, x in zip(self.subsets(), self.coords) if x
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "plucker": {
                ",".join(map(str, s)): str(x)
                for s, x in zip(self.subsets(), self.coords)
                if x
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "GrassmannPoint":
        k, n = data["k"], data["n"]
        table = {
            tuple(int(i) for i in key.split(",") if i): _frac(value)
            for key, value in data["plucker"].items()
        }
        coords = tuple(table.get(s, _ZERO) for s in _lex_subsets(n, k))
        return cls(k, n, coords)


def plucker(matrix: RationalMatrix) -> GrassmannPoint:
    """Projective vector of maximal minors of a full-row-rank matrix."""
    minors = _maximal_minors(matrix)
    lead = next((x for x in minors if x), None)
    if lead is None:
        raise RankDeficient(f"matrix has rank below {matrix.rows}")
    coords = tuple(Fraction(x, lead) if x else _ZERO for x in minors)
    return GrassmannPoint(matrix.rows, matrix.cols, coords)


def gr_equal(p: GrassmannPoint, q: GrassmannPoint) -> bool:
    if (p.k, p.n) != (q.k, q.n):
        raise ShapeMismatch(f"({p.k},{p.n}) vs ({q.k},{q.n})")
    return p.coords == q.coords


# ----------------------------------------------------------------------
# cells


def parameterize(diagram: OPlusDiagram, values: Mapping[str, object]) -> RationalMatrix:
    """Boundary-measurement matrix of a sorted diagram's network."""
    return _boundary_matrix(build_network(diagram), values)


def _boundary_matrix(network: Network, values: Mapping[str, object]) -> RationalMatrix:
    """``parameterize`` for a network already built."""
    return RationalMatrix(tuple(map(tuple, network.matrix(values))), cols=network.n)


@dataclass(frozen=True, eq=False)
class CellSample:
    """One point of a cell: a diagram, positive edge values, the matrix."""

    diagram: OPlusDiagram
    values: Mapping[str, Fraction]
    matrix: RationalMatrix

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.values.values()):
            raise ValueError("edge variables must be strictly positive")

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "values": {name: str(v) for name, v in sorted(self.values.items())},
            "matrix": self.matrix.to_json(),
        }


def _sample_seed(seed: int, cell_index: int, sample_index: int) -> int:
    return seed * 1_000_003 + cell_index * 1_009 + sample_index


def sample_cell(diagram: OPlusDiagram, rng=None) -> CellSample:
    """Draw every edge variable as p/q with p, q uniform in 1..50."""
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng or 0)
    network = build_network(diagram)
    values = {
        name: Fraction(rng.randint(1, 50), rng.randint(1, 50))
        for name in network.variables
    }
    return CellSample(diagram, values, _boundary_matrix(network, values))


@lru_cache(maxsize=None)
def _unit_support(diagram: OPlusDiagram) -> frozenset:
    network = build_network(diagram)
    return plucker(_boundary_matrix(network, network.ones())).support


def positroid_membership(matrix: RationalMatrix, diagram: OPlusDiagram) -> bool:
    """Nonnegative Plücker vector supported exactly on the diagram's positroid."""
    point = plucker(matrix)
    if (matrix.rows, matrix.cols) != (diagram.k, diagram.n):
        raise ShapeMismatch(f"{matrix.rows}x{matrix.cols} matrix for Gr({diagram.k},{diagram.n})")
    if any(x < 0 for x in point.coords):
        return False
    return point.support == _unit_support(diagram)


# ----------------------------------------------------------------------
# totally positive matrices and the induced map


@lru_cache(maxsize=None)
def _tp_cached(rows: int, n: int, nodes: Optional[tuple]) -> RationalMatrix:
    if nodes is None:
        nodes = tuple(Fraction(j) for j in range(1, n + 1))
    if len(nodes) != n:
        raise ValueError(f"need {n} nodes, got {len(nodes)}")
    matrix = RationalMatrix(
        tuple(tuple(t ** i for t in nodes) for i in range(rows)), cols=n
    )
    for cols, value in zip(itertools.combinations(range(n), rows), _maximal_minors(matrix)):
        if value <= 0:
            # the integer minors carry a positive scale; report the true value
            square = RationalMatrix(tuple(tuple(row[c] for c in cols) for row in matrix.entries))
            subset = tuple(c + 1 for c in cols)
            raise NotTotallyPositive(f"minor on columns {subset} is {square.det()}")
    return matrix


def make_tp_matrix(rows: int, n: int, nodes: Optional[Sequence] = None) -> RationalMatrix:
    """Generalized Vandermonde matrix with every maximal minor checked positive."""
    if rows > n:
        raise ValueError(f"cannot fit {rows} rows in width {n}")
    key = None if nodes is None else tuple(_frac(t) for t in nodes)
    return _tp_cached(rows, n, key)


def z_map(z: RationalMatrix, v: RationalMatrix) -> GrassmannPoint:
    """Point spanned by the images of v's rows, i.e. row span of v·zᵀ."""
    if v.cols != z.cols:
        raise ShapeMismatch(f"ambient sizes differ: {v.cols} vs {z.cols}")
    # one scale for all of z: scaling its rows apart would move the point
    z_rows, _ = _cleared(z.entries)
    image = tuple(tuple(sum(a * b for a, b in zip(row, z_row)) for z_row in z_rows)
                  for row in _primitive_rows(v.entries))
    try:
        return plucker(RationalMatrix(image, cols=z.rows))
    except RankDeficient as exc:
        raise RankLoss("the map dropped rank; check the preconditions") from exc


# ----------------------------------------------------------------------
# kernels and sign patterns


def kernel_basis(z: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the right null space, scaled to primitive integers."""
    grid = _primitive_rows(z.entries)
    pivots, _, _ = _eliminate(grid)
    return [tuple(map(Fraction, v)) for v in _integer_kernel(grid, pivots, z.cols)]


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_seq(pattern, n: int) -> list[int]:
    if isinstance(pattern, str):
        pattern = list(pattern)
    out = []
    for p in pattern:
        if p in ("+", 1):
            out.append(1)
        elif p in ("-", -1):
            out.append(-1)
        else:
            raise ValueError(f"pattern entries must be + or -, got {p!r}")
    if len(out) != n:
        raise ValueError(f"pattern length {len(out)} does not match width {n}")
    return out


def _solve(grid: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """The unique solution of an exact system with at least as many equations
    as unknowns; None when there is none or more than one."""
    size = len(grid[0]) if grid else 0
    work = _primitive_rows([row + [b] for row, b in zip(grid, rhs)])
    pivots, _, _ = _eliminate(work)
    if pivots != list(range(size)):
        return None
    return [Fraction(work[r][size], work[r][r]) for r in range(size)]


def _phase1_feasible(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> Optional[list[Fraction]]:
    """Exact phase-1 simplex for {u >= 0 : A u = b}; Bland's rule throughout."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    table = []
    for r in range(m):
        row = rows[r][:]
        b = rhs[r]
        if b < 0:
            row = [-x for x in row]
            b = -b
        table.append(row + [Fraction(0)] * m + [b])
        table[r][n + r] = Fraction(1)
    basis = [n + r for r in range(m)]
    # reduced costs for minimizing the artificial sum
    obj = [Fraction(0)] * (n + m + 1)
    for r in range(m):
        for c in range(n + m + 1):
            obj[c] -= table[r][c]
    for c in range(n, n + m):
        obj[c] += 1

    while True:
        entering = next((c for c in range(n + m) if obj[c] < 0), None)
        if entering is None:
            break
        best = None
        for r in range(m):
            coef = table[r][entering]
            if coef > 0:
                ratio = table[r][-1] / coef
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[r] < basis[best[1]]
                ):
                    best = (ratio, r)
        if best is None:
            return None  # unbounded phase-1 cannot happen, bail out anyway
        r = best[1]
        lead = table[r][entering]
        table[r] = [x / lead for x in table[r]]
        for rr in range(m):
            if rr != r and table[rr][entering]:
                factor = table[rr][entering]
                table[rr] = [a - factor * b for a, b in zip(table[rr], table[r])]
        if obj[entering]:
            factor = obj[entering]
            obj = [a - factor * b for a, b in zip(obj, table[r])]
        basis[r] = entering

    if obj[-1] != 0:
        return None
    solution = [Fraction(0)] * n
    for r, var in enumerate(basis):
        if var < n:
            solution[var] = table[r][-1]
    return solution


_PROJECTION_TRIES = 40


def find_kernel_vector_with_signs(
    z: RationalMatrix, pattern, seed: int = 0
) -> Optional[tuple[Fraction, ...]]:
    """Exact kernel vector matching a zero-free sign pattern, or None.

    Random rational targets are projected onto the kernel first; after
    ``_PROJECTION_TRIES`` misses, an exact feasibility LP settles the question.
    """
    signs = _sign_seq(pattern, z.cols)
    basis = kernel_basis(z)
    if basis:
        rng = random.Random(seed)
        gram = [[sum(a * b for a, b in zip(u, w)) for w in basis] for u in basis]
        for _ in range(_PROJECTION_TRIES):
            target = [s * Fraction(rng.randint(1, 50), rng.randint(1, 50)) for s in signs]
            coeffs = _solve(gram, [sum(a * b for a, b in zip(u, target)) for u in basis])
            if coeffs is None:
                break
            v = [sum(c * u[t] for c, u in zip(coeffs, basis)) for t in range(z.cols)]
            if all(_sign(x) == s for x, s in zip(v, signs)):
                return tuple(v)
    # complete fallback: v_i = sign_i (u_i + 1) with u >= 0 and Z v = 0
    rows = [[row[j] * signs[j] for j in range(z.cols)] for row in z.entries]
    rhs = [-sum((row[j] * signs[j] for j in range(z.cols)), Fraction(0))
           for row in z.entries]
    u = _phase1_feasible(rows, rhs)
    if u is None:
        return None
    return tuple(signs[j] * (u[j] + 1) for j in range(z.cols))
