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
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import lt, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .diagrams import OPlusDiagram
from .errors import (
    BadRange,
    NotTotallyPositive,
    RankDeficient,
    RankLoss,
    ShapeMismatch,
    _int,
    _list,
)
from .plabic import Network, _frac, build_network
from .records import Record


_ZERO = Fraction(0)


# ----------------------------------------------------------------------
# matrices


class RationalMatrix(Record):
    """Immutable grid of exact rationals; cols may be given for empty grids."""

    _fields = ("entries", "cols")

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...],
                 cols: Optional[int] = None) -> None:
        grid = tuple(tuple(_frac(x) for x in row) for row in entries)
        width = cols
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
        self._set(grid, width)

    @classmethod
    def _built(cls, cols: int, ints, dens) -> "RationalMatrix":
        """Package-built values only: primitive integer rows, each over a positive
        denominator; the Fraction ``entries`` are made on first read."""
        matrix = object.__new__(cls)
        matrix.__dict__.update(cols=cols, rows=len(ints), _ints=ints, _dens=dens)
        return matrix

    def __getattr__(self, name: str):  # a package-built matrix's entries, on first read
        if name != "entries" or "_dens" not in self.__dict__:
            raise AttributeError(name)
        return self.__dict__.setdefault("entries", tuple(
            tuple(Fraction(x, d) if x else _ZERO for x in row)
            for row, d in zip(self._ints, self._dens)))

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], ...]:
        """Each row as a primitive integer row, cleared once per matrix."""
        return tuple(_primitive_rows(self.entries))

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], ...]:
        """The whole grid times one common denominator (rows keep their ratios)."""
        return tuple(map(tuple, _cleared(self.entries)[0]))

    @cached_property
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
        return cls(tuple(tuple(_list(row)) for row in _list(data)), cols=cols)


# ----------------------------------------------------------------------
# the integer core


def _cleared(entries) -> tuple[list[list[int]], int]:
    """The grid times the least common denominator of its entries, and that."""
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in entries], scale


def _primitive_rows(entries) -> list[tuple[int, ...]]:
    """Each row times a positive rational: a primitive integer row (zero stays zero)."""
    return [_primitive(_cleared((row,))[0][0]) for row in entries]


def _primitive(ints) -> tuple[int, ...]:
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


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
    grid = list(matrix._ints)
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


def _maximal_minors(rows, width: int) -> list[int]:
    """All maximal minors of integer rows in lex column order (on a matrix's
    ``_ints``, its minors times one positive constant).

    Laplace expansion along each row in turn: the nonzero minors of the first
    r rows, keyed by column bitmask, grow into those of the first r + 1 rows,
    so sub-minors are shared and zero entries skipped.
    """
    layer = {0: 1}
    for r, row in enumerate(rows):
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
    return [layer.get(cols, 0) for cols in _lex_masks(width, len(rows))]


_MAX_COORDS = 1_000_000  # from_json lists every coordinate: bound what input can ask for


class GrassmannPoint(Record):
    """Plücker vector in lex subset order, first nonzero entry scaled to 1.  A built point
    keeps ``_ints`` (primitive, lead > 0) and makes the Fraction ``coords`` on first read."""

    _fields = ("k", "n", "coords")

    def __init__(self, k: int, n: int, coords: tuple[Fraction, ...]) -> None:
        coords = tuple(_frac(x) for x in coords)
        expected = math.comb(n, k)
        if len(coords) != expected:
            raise ValueError(f"need {expected} coordinates, got {len(coords)}")
        lead = next((x for x in coords if x), None)
        if lead is None:
            raise ValueError("all Plücker coordinates vanish")
        if lead != 1:
            coords = tuple(x / lead for x in coords)
        self._set(k, n, coords)

    @classmethod
    def _built(cls, k: int, n: int, ints: tuple[int, ...]) -> "GrassmannPoint":
        """Package-built values only: C(n, k) coprime ints, the first nonzero one positive."""
        point = object.__new__(cls)
        point.__dict__.update(k=k, n=n, _ints=ints)
        return point

    def __getattr__(self, name: str):  # the form a point was not made in, on first read
        if name == "coords" and "_ints" in self.__dict__:
            lead = next(filter(None, self._ints))
            return self.__dict__.setdefault(name, tuple(Fraction(x, lead) for x in self._ints))
        if name == "_ints" and "coords" in self.__dict__:
            return self.__dict__.setdefault(name, _primitive_rows((self.coords,))[0])
        raise AttributeError(name)

    def __eq__(self, other):  # equal coords exactly when equal primitive vectors
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.n, self._ints) == (other.k, other.n, other._ints)

    def __hash__(self) -> int:  # a frozen dataclass's, of (k, n, coords) made on a twin
        twin = self if "coords" in self.__dict__ else GrassmannPoint._built(self.k, self.n, self._ints)
        return hash((self.k, self.n, twin.coords))

    def subsets(self) -> list[tuple[int, ...]]:
        return _lex_subsets(self.n, self.k)

    def entry(self, subset: Iterable[int]) -> Fraction:
        target = tuple(sorted(subset))
        return self.coords[self.subsets().index(target)]

    @property
    def support(self) -> frozenset:
        return frozenset(
            s for s, x in zip(self.subsets(), self._ints) if x
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
        """Read keys as ``to_json`` writes them: increasing k-subsets of 1..n."""
        k, n = _int(data["k"]), _int(data["n"])
        if not 0 <= k <= n or math.comb(n, k) > _MAX_COORDS:
            raise BadRange(f"need 0 <= k <= n and C(n, k) <= {_MAX_COORDS}, got k={k}, n={n}")
        table = {",".join(map(str, s)): _ZERO for s in _lex_subsets(n, k)}  # in lex order
        for key, value in data["plucker"].items():
            if key not in table:
                raise BadRange(f"{key!r} is not an increasing {k}-subset of 1..{n}")
            table[key] = _frac(value)
        return cls(k, n, tuple(table.values()))


def _key(rows, width: int) -> tuple[int, ...]:
    """The maximal minors of integer rows as a primitive vector with a positive lead:
    two matrices have equal keys exactly when ``plucker`` gives them equal points."""
    minors = _maximal_minors(rows, width)
    lead = next((x for x in minors if x), None)
    if lead is None:
        raise RankDeficient(f"matrix has rank below {len(rows)}")
    g = math.gcd(*minors) if lead > 0 else -math.gcd(*minors)
    return tuple(x // g for x in minors)


def plucker(matrix: RationalMatrix) -> GrassmannPoint:
    """Projective vector of maximal minors of a full-row-rank matrix."""
    return GrassmannPoint._built(matrix.rows, matrix.cols, _key(matrix._ints, matrix.cols))


def _plucker_key(matrix: RationalMatrix) -> tuple[int, ...]:
    """``plucker(matrix)._ints``, without a point."""
    return _key(matrix._ints, matrix.cols)


def gr_equal(p: GrassmannPoint, q: GrassmannPoint) -> bool:
    if (p.k, p.n) != (q.k, q.n):
        raise ShapeMismatch(f"({p.k},{p.n}) vs ({q.k},{q.n})")
    return p._ints == q._ints


# ----------------------------------------------------------------------
# cells


def parameterize(diagram: OPlusDiagram, values: Mapping[str, object]) -> RationalMatrix:
    """Boundary-measurement matrix of a sorted diagram's network."""
    network = build_network(diagram)
    return _boundary_matrix(network, network._int_rows(values))


def _boundary_matrix(network: Network, rows) -> RationalMatrix:
    """The matrix of a network already built, from its integer rows: made
    primitive, each over its entry at its own source, never re-cleared."""
    rows = tuple(map(_primitive, rows))
    return RationalMatrix._built(network.n, rows,
                                 tuple(row[s - 1] for row, s in zip(rows, network.sources)))


class CellSample(Record):
    """One point of a cell: a diagram, positive edge values, the matrix; equal only to
    itself.  A sampled point keeps its draws, int pairs (p, q), until ``values`` is read."""

    _fields = ("diagram", "values", "matrix")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, diagram: OPlusDiagram, values: Mapping[str, Fraction],
                 matrix: RationalMatrix) -> None:
        self._set(diagram, values, matrix)
        if any(v <= 0 for v in values.values()):
            raise ValueError("edge variables must be strictly positive")

    @classmethod
    def _built(cls, diagram: OPlusDiagram, names, draws, matrix) -> "CellSample":
        """Package-built values only: one pair of positive ints per name."""
        sample = object.__new__(cls)
        sample.__dict__.update(diagram=diagram, matrix=matrix, _names=names, _draws=draws)
        return sample

    def __getattr__(self, name: str):  # a sampled point's values, on first read
        if name != "values" or "_draws" not in self.__dict__:
            raise AttributeError(name)
        return self.__dict__.setdefault("values", {
            v: Fraction(p, q) for v, (p, q) in zip(self._names, self._draws)})

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "values": {name: str(v) for name, v in sorted(self.values.items())},
            "matrix": self.matrix.to_json(),
        }


def _sample_seed(seed: int, cell_index: int, sample_index: int) -> int:
    return seed * 1_000_003 + cell_index * 1_009 + sample_index


def sample_cell(diagram: OPlusDiagram, rng=None) -> CellSample:
    """Draw every edge variable as p/q with p, q uniform in 1..50.  For several
    points of one cell, ``_cell_samples`` builds the network only once."""
    return next(_cell_samples(diagram, (rng,)))


def _cell_samples(diagram: OPlusDiagram, rngs: Iterable) -> Iterator[CellSample]:
    """``sample_cell`` for each rng in turn, the same draws on one network:
    p then q for each variable in order, kept as ints from draw to matrix.
    ``choice`` over 1..50 gives ``randint(1, 50)``'s stream in one call fewer:
    both return 1 + ``_randbelow(50)``."""
    network, span = build_network(diagram), range(1, 51)
    for rng in rngs:
        if rng is None or isinstance(rng, int):
            rng = random.Random(rng or 0)
        pick = rng.choice
        draws = [(pick(span), pick(span)) for _ in network.variables]
        matrix = _boundary_matrix(network, network._pair_rows(draws))
        yield CellSample._built(diagram, network.variables, draws, matrix)


@lru_cache(maxsize=None)
def _unit_support(diagram: OPlusDiagram) -> frozenset:
    network = build_network(diagram)
    return plucker(_boundary_matrix(network, network._int_rows(network.ones()))).support


def positroid_membership(matrix: RationalMatrix, diagram: OPlusDiagram) -> bool:
    """Nonnegative Plücker vector supported exactly on the diagram's positroid."""
    if (matrix.rows, matrix.cols) != (diagram.k, diagram.n):
        raise ShapeMismatch(f"{matrix.rows}x{matrix.cols} matrix for Gr({diagram.k},{diagram.n})")
    if math.comb(diagram.n, diagram.k) > _MAX_COORDS:  # refused before any minor
        raise BadRange(f"C({diagram.n}, {diagram.k}) minors exceed {_MAX_COORDS}")
    point = plucker(matrix)
    if any(x < 0 for x in point._ints):
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
    if all(map(lt, nodes, nodes[1:])):  # each minor is a product of t_b - t_a > 0
        return matrix
    minors = _maximal_minors(matrix._ints, n)
    for cols, value in zip(itertools.combinations(range(n), rows), minors):
        if value <= 0:
            # the integer minors carry a positive scale; report the true value
            square = RationalMatrix(tuple(tuple(row[c] for c in cols) for row in matrix.entries))
            subset = tuple(c + 1 for c in cols)
            raise NotTotallyPositive(f"minor on columns {subset} is {square.det()}")
    return matrix


def make_tp_matrix(rows: int, n: int, nodes: Optional[Sequence] = None) -> RationalMatrix:
    """Vandermonde matrix of powers 0..rows-1 of the nodes (default 1..n).  Each
    maximal minor is the product of t_b - t_a over its columns a < b, so it is
    positive when the nodes increase; other nodes have each minor checked."""
    if rows > n:
        raise ValueError(f"cannot fit {rows} rows in width {n}")
    key = None if nodes is None else tuple(_frac(t) for t in nodes)
    return _tp_cached(rows, n, key)


def z_map(z: RationalMatrix, v: RationalMatrix) -> GrassmannPoint:
    """Point spanned by the images of v's rows, i.e. row span of v·zᵀ."""
    if v.cols != z.cols:
        raise ShapeMismatch(f"ambient sizes differ: {v.cols} vs {z.cols}")
    # one scale for all of z: scaling its rows apart would move the point
    image = [[sum(map(mul, row, z_row)) for z_row in z._scaled] for row in v._ints]
    try:
        return GrassmannPoint._built(v.rows, z.rows, _key(image, z.rows))
    except RankDeficient as exc:
        raise RankLoss("the map dropped rank; check the preconditions") from exc


# ----------------------------------------------------------------------
# kernels and sign patterns


def kernel_basis(z: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the right null space, scaled to primitive integers."""
    grid = list(z._ints)
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


def _solve(work: list) -> Optional[tuple[list[int], int]]:
    """The unique solution of an augmented integer system with at least as
    many equations as unknowns, as numerators over one positive denominator;
    None when there is none or more than one.  Eliminates ``work`` in place."""
    size = len(work[0]) - 1 if work else 0
    pivots, _, _ = _eliminate(work)
    if pivots != list(range(size)):
        return None
    den = math.lcm(*(work[r][r] for r in range(size)))
    return [work[r][size] * (den // work[r][r]) for r in range(size)], den


def _phase1_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Exact phase-1 simplex for {u >= 0 : A u = b}; Bland's rule throughout.

    Fraction-free: each tableau row, and the reduced costs of the artificial
    sum kept as the last row, is a positive multiple of its Fraction
    counterpart on integers, so every sign and every ratio is unchanged.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    table = [[x if b >= 0 else -x for x in row] + [int(c == r) for c in range(m)] + [abs(b)]
             for r, (row, b) in enumerate(zip(rows, rhs))]
    table.append([(n <= c < n + m) - sum(row[c] for row in table) for c in range(n + m + 1)])
    table = _primitive_rows(table)
    basis = list(range(n, n + m))
    while True:
        entering = next((c for c in range(n + m) if table[m][c] < 0), None)
        if entering is None:
            break
        ratios = [(Fraction(row[-1], row[entering]), basis[r], r)
                  for r, row in enumerate(table[:m]) if row[entering] > 0]
        if not ratios:
            return None  # unbounded phase-1 cannot happen, bail out anyway
        r = min(ratios)[2]
        pivot, lead = table[r], table[r][entering]
        for rr, row in enumerate(table):
            if rr != r and row[entering]:
                table[rr] = _primitive([lead * a - row[entering] * b for a, b in zip(row, pivot)])
        basis[r] = entering
    if table[m][-1]:
        return None
    solution = [_ZERO] * n
    for r, var in enumerate(basis):
        if var < n:
            solution[var] = Fraction(table[r][-1], table[r][var])
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
    basis = [[x.numerator for x in u] for u in kernel_basis(z)]
    if basis:
        rng = random.Random(seed)
        gram = [[sum(a * b for a, b in zip(u, w)) for w in basis] for u in basis]
        for _ in range(_PROJECTION_TRIES):
            draws = [(s * rng.randint(1, 50), rng.randint(1, 50)) for s in signs]
            scale = math.lcm(*(q for _, q in draws))  # the target times scale, on integers
            target = [p * (scale // q) for p, q in draws]
            solution = _solve([row + [sum(a * b for a, b in zip(u, target))]
                               for row, u in zip(gram, basis)])
            if solution is None:
                break
            coeffs, den = solution
            v = [sum(c * u[t] for c, u in zip(coeffs, basis)) for t in range(z.cols)]
            if all(_sign(x) == s for x, s in zip(v, signs)):
                return tuple(Fraction(x, den * scale) for x in v)
    # complete fallback: v_i = sign_i (u_i + 1) with u >= 0 and Z v = 0
    rows = [[row[j] * signs[j] for j in range(z.cols)] for row in z.entries]
    rhs = [-sum((row[j] * signs[j] for j in range(z.cols)), Fraction(0))
           for row in z.entries]
    u = _phase1_feasible(rows, rhs)
    if u is None:
        return None
    return tuple(signs[j] * (u[j] + 1) for j in range(z.cols))
