"""Sign variation, dominoes, and distinguished bases for cell subspaces.

All arithmetic is exact.  Sign vectors serialize as strings over "0+-".
Inside, the bases run on the integer core of :mod:`positroids.linalg`: the
candidate rays of a two-row subspace are primitive integer vectors whose
sign and support tests need no division, the domino systems are eliminated
fraction-free over the integer kernel, and only the vectors returned are
turned into Fractions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence

from .catalan import DyckPath, dyck_step_labels
from .diagrams import OPlusDiagram
from .errors import (
    InvariantViolated,
    NotInSpan,
    NotK2BCFW,
    ShapeMismatch,
    SumMismatch,
    TemplateMismatch,
    _int,
    _list,
)
from .linalg import _ZERO, RationalMatrix, _eliminate, _frac, _integer_kernel, \
    _primitive_rows, _sign, _solve
from .records import Record

_SIGN_CHAR = {1: "+", -1: "-", 0: "0"}


def sign_string(v) -> str:
    """Signs of a vector, one character per entry."""
    return "".join(_SIGN_CHAR[_sign(x)] for x in v)


# ----------------------------------------------------------------------
# sign variation


def var(v) -> int:
    """Number of sign changes, skipping zero entries.

    >>> var((1, 0, -4, 2))
    2
    """
    count, last = 0, 0
    for x in v:
        s = _sign(x)
        if s == 0:
            continue
        if last and s != last:
            count += 1
        last = s
    return count


def var_bar(v) -> int:
    """Largest var over all completions of the zero entries.

    The zero vector of length n comes out at n - 1.
    """
    best = {0: 0}
    for x in v:
        s = _sign(x)
        nxt = {}
        for c in (1, -1) if s == 0 else (s,):
            nxt[c] = max(
                score + (1 if last and last != c else 0)
                for last, score in best.items()
            )
        best = nxt
    return max(best.values())


# ----------------------------------------------------------------------
# dominoes


class Domino(Record):
    """Vector supported on {i, i+1}, or on {n} alone when i = n.

    The two entries must carry the same sign; the all-zero vector is
    admitted as a domino of sign "0".
    """

    _fields = ("n", "index", "values")

    def __init__(self, n: int, index: int, values: tuple) -> None:
        vals = tuple(_frac(x) for x in values)
        self._set(n, index, vals)
        if not 1 <= self.index <= self.n:
            raise ValueError(f"index {self.index} outside 1..{self.n}")
        expected = 1 if self.index == self.n else 2
        if len(vals) != expected:
            raise ValueError(f"index {self.index} carries {expected} values")
        if len({_sign(x) for x in vals}) != 1:
            raise ValueError("entries must share one sign")

    @property
    def sign(self) -> str:
        return _SIGN_CHAR[_sign(self.values[0])]

    def vector(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.n
        out[self.index - 1] = self.values[0]
        if self.index < self.n:
            out[self.index] = self.values[1]
        return tuple(out)

    def scaled(self, a) -> "Domino":
        a = _frac(a)
        return Domino(self.n, self.index, tuple(a * x for x in self.values))

    @classmethod
    def from_vector(cls, v) -> "Domino":
        """Parse a vector as a domino; ValueError when it is not one."""
        vals = tuple(_frac(x) for x in v)
        n = len(vals)
        support = [j for j, x in enumerate(vals) if x != 0]
        if not support:
            return cls(n, n, (Fraction(0),))
        if len(support) == 1:
            if support[0] != n - 1:
                raise ValueError("single nonzero entry away from the last place")
            return cls(n, n, (vals[-1],))
        if len(support) == 2 and support[1] == support[0] + 1:
            pair = (vals[support[0]], vals[support[1]])
            if _sign(pair[0]) == _sign(pair[1]):
                return cls(n, support[0] + 1, pair)
        raise ValueError("not a domino")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "index": self.index,
            "values": [str(x) for x in self.values],
        }

    @classmethod
    def from_json(cls, data) -> "Domino":
        return cls(
            _int(data["n"]),
            _int(data["index"]),
            tuple(_list(data["values"])),
        )


def is_domino(v) -> bool:
    try:
        Domino.from_vector(v)
    except ValueError:
        return False
    return True


def _domino_sum(dominoes) -> tuple[tuple[Domino, ...], tuple[Fraction, ...]]:
    doms = tuple(dominoes)
    if not doms:
        raise ValueError("need at least one domino")
    if any(d.n != doms[0].n for d in doms):
        raise ShapeMismatch("mixed ambient dimensions")
    return doms, tuple(sum(col, _ZERO) for col in zip(*(d.vector() for d in doms)))


def domino_decompose_sum_bound(dominoes: Sequence[Domino]):
    """Sum a multiset of dominoes and certify the variation bound.

    Returns (total, bound) with bound = len(dominoes) - 1; the sum of any
    such multiset alternates at most that often.
    """
    doms, total = _domino_sum(dominoes)
    bound = len(doms) - 1
    if var(total) > bound:
        raise InvariantViolated("domino sum variation bound violated")
    return total, bound


def add_single_bound(v, d: Domino) -> int:
    """Worst-case growth of var when one domino is added to v.

    2 in general; 1 when v vanishes at every place up to the domino's
    index, or at every place past it.
    """
    vals = tuple(_frac(x) for x in v)
    if len(vals) != d.n:
        raise ShapeMismatch(f"vector length {len(vals)}, domino lives in {d.n}")
    i = d.index
    if all(x == 0 for x in vals[:i]) or all(x == 0 for x in vals[i:]):
        return 1
    return 2


# ----------------------------------------------------------------------
# the nine two-row templates

# Observable second rows read  + 0^y1 ++ 0^y2 +  in every class; first
# rows read the same with widths (z1, z2), except class 3 where four
# lone plus signs appear.  Widths discriminate the classes exactly.

_RUN_121 = re.compile(r"\+(0*)\+\+(0*)\+")
_RUN_1111 = re.compile(r"\+(0*)\+(0*)\+(0*)\+")


def classify_k2(diagram: OPlusDiagram) -> int:
    """Which of the nine two-row templates the diagram fits (1..9)."""
    if diagram.k != 2:
        raise NotK2BCFW(f"need two rows, got {diagram.k}")
    r1, r2 = diagram.rows
    lam1, lam2 = len(r1), len(r2)
    m2 = _RUN_121.fullmatch(r2)
    if not m2:
        raise NotK2BCFW(f"second row {r2!r} fits no template")
    y1, y2 = len(m2.group(1)), len(m2.group(2))
    hits = []
    m1 = _RUN_121.fullmatch(r1)
    if m1:
        z1, z2 = len(m1.group(1)), len(m1.group(2))
        if lam1 == lam2:
            if r1 == r2:
                hits.append(9)
            if y1 == z1 + 1 and z2 == y2 + 1:
                hits.append(8)
            if y1 >= z1 + 2 and z2 == (y1 - z1) + y2:
                hits.append(7)
        else:
            if z1 == y1 and z2 >= y2 + 1:
                hits.append(4)
            if y1 >= 1 and z1 == y1 - 1 and z2 >= y2 + 2:
                hits.append(5)
            if y1 >= z1 + 2 and z2 >= (y1 - z1) + y2 + 1:
                hits.append(6)
            if z1 == lam2 - 2:
                hits.append(2)
            if z1 >= lam2 - 1:
                hits.append(1)
    m3 = _RUN_1111.fullmatch(r1)
    if m3 and lam1 > lam2:
        g1, g2 = len(m3.group(1)), len(m3.group(2))
        if g1 == y1 + 1 and g2 == y2:
            hits.append(3)
    if len(hits) != 1:
        raise NotK2BCFW(f"rows {r1!r}/{r2!r} fit {len(hits)} templates")
    return hits[0]


# ----------------------------------------------------------------------
# standard bases for two-row subspaces


class K2Classification(Record):
    """Distinguished spanning pair of a two-row subspace.

    d ends negative, e ends positive (orthodox) or zero (deviant); the
    four fundamental dominoes sit at indices i1 <= i2 <= i3 <= i4.

    ``standard_basis_k2`` keeps the integer rays it decided on and makes
    ``d``, ``e`` and ``dominoes`` on first read, the dominoes by the trusted
    ``Domino._built_many``; test_signs_core.py holds them equal to the eager
    construction, and each domino to its checked rebuild, for n <= 10.
    """

    _fields = ("cell_class", "flavor", "d", "e", "dominoes", "indices")

    def __init__(self, cell_class: int, flavor: str, d: tuple, e: tuple, dominoes: tuple,
                 indices: tuple) -> None:
        self._set(cell_class, flavor, d, e, dominoes, indices)

    @classmethod
    def _built(cls, cell_class: int, flavor: str, indices: tuple, d_ray, e_ray):
        """Package-built values only: the primitive integer rays of d and e."""
        basis = object.__new__(cls)
        basis.__dict__.update(cell_class=cell_class, flavor=flavor, indices=indices,
                              _rays=(d_ray, e_ray))
        return basis

    def __getattr__(self, name: str):  # a built pair's vectors and dominoes, on first read
        if name not in ("d", "e", "dominoes") or "_rays" not in self.__dict__:
            raise AttributeError(name)
        (d_ray, e_ray), indices = self._rays, self.indices
        d = _unit_scale(d_ray)
        if self.flavor == "orthodox":
            e = _unit_scale(e_ray)
            parts = (d, d, e, e)
        else:  # e agrees with d at i1; the inner dominoes sum to e - (d's first one)
            i1 = indices[0]
            e = tuple(Fraction(x, e_ray[i1 - 1]) for x in e_ray)
            g = list(e)
            g[i1 - 1] -= d[i1 - 1]
            g[i1] -= d[i1]
            parts = (d, g, g, [-x for x in d])
        dominoes = tuple(Domino._built_many((len(d),) * 4, indices,
                                            [(v[i - 1], v[i]) for v, i in zip(parts, indices)]))
        self.__dict__.update(d=d, e=e, dominoes=dominoes)
        return self.__dict__[name]

    @property
    def n(self) -> int:
        return len(self.d)


def _positive_domino_pair(head) -> Optional[tuple[int, int]]:
    # support must be two same-sign pairs; returns their 1-based starts
    if any(x < 0 for x in head):
        return None
    support = [j for j, x in enumerate(head) if x > 0]
    if len(support) != 4:
        return None
    a, b, c, d = support
    if b != a + 1 or d != c + 1:
        return None
    return a + 1, c + 1


def _plus_minus_pair(head) -> Optional[tuple[int, int]]:
    pos = [j for j, x in enumerate(head) if x > 0]
    neg = [j for j, x in enumerate(head) if x < 0]
    if len(pos) != 2 or len(neg) != 2:
        return None
    if pos[1] != pos[0] + 1 or neg[1] != neg[0] + 1:
        return None
    if neg[0] <= pos[1]:
        return None
    return pos[0] + 1, neg[0] + 1


def _unit_scale(ray) -> tuple:
    first = next(x for x in ray if x)
    return tuple(Fraction(x, first) if x else _ZERO for x in ray)


def _candidate_rays(v, w) -> list[tuple[int, ...]]:
    """One primitive integer representative, first nonzero entry positive, per
    projective class of vectors in span(v, w) vanishing at some coordinate;
    v and w are integer rows."""
    rays = {}
    for a, b in zip(w, v):
        ray = [a * x - b * y for x, y in zip(v, w)]
        g = math.gcd(*ray)
        if g:
            if next(x for x in ray if x) < 0:
                g = -g
            rays[tuple(x // g for x in ray)] = None
    return list(rays)


def _independent(n: int, pieces) -> bool:
    """Whether dominoes are linearly independent, each given as (i, v): a
    nonzero multiple of the integer vector v's entries at i and i + 1."""
    grid = [[v[j] if i - 1 <= j <= i else 0 for j in range(n)] for i, v in pieces]
    return len(_eliminate(grid)[0]) == len(grid)


# Every candidate ray starts positive, so of a ray and its negative only the
# ray itself can fit a template below: each one opens with a positive entry.


def _orthodox_assemblies(rays, n):
    d_hits, e_hits = [], []
    for ray in rays:
        split = ray[-1] and _positive_domino_pair(ray[:-1])
        if split:
            (d_hits if ray[-1] < 0 else e_hits).append((ray, split))
    out = []
    for dray, (i1, i2) in d_hits:
        for eray, (i3, i4) in e_hits:
            if i2 > i3 or not _independent(n, ((i1, dray), (i2, dray), (i3, eray), (i4, eray))):
                continue
            gap = i3 - i2
            cls = 3 if gap == 0 else 2 if gap == 1 else 1
            out.append(K2Classification._built(cls, "orthodox", (i1, i2, i3, i4), dray, eray))
    return out


def _deviant_assemblies(rays, n):
    d_hits, e_hits = [], []
    for ray in rays:
        if ray[-1] < 0:
            split = _plus_minus_pair(ray[:-1])
            if split:
                d_hits.append((ray, split))
        elif ray[-1] == 0 and all(x >= 0 for x in ray):
            e_hits.append(ray)
    out = []
    for dvec, (i1, i4) in d_hits:
        p0, p1 = dvec[i1 - 1], dvec[i1]  # p0 > 0 is the first nonzero entry
        for raw in e_hits:
            lead = raw[i1 - 1]
            if lead == 0:
                continue
            # e = raw / lead agrees with d at i1; g = e - (d's first domino),
            # kept here times p0 * lead > 0
            den = p0 * lead
            g = [p0 * x for x in raw]
            g[i1 - 1] -= den
            g[i1] -= lead * p1
            if g[-1] != 0 or any(x < 0 for x in g):
                continue
            split = _positive_domino_pair(g[:-1])
            if split is None:
                continue
            i2, i3 = split
            if not (i1 < i2 and i2 + 1 < i3 and i3 <= i4) \
                    or not _independent(n, ((i1, dvec), (i2, g), (i3, g), (i4, dvec))):
                continue
            g12, g43 = i2 - i1, i4 - i3
            if g12 >= 2:
                cls = 4 if g43 == 0 else 5 if g43 == 1 else 6
            else:
                cls = 9 if g43 == 0 else 8 if g43 == 1 else 7
            out.append(K2Classification._built(cls, "deviant", (i1, i2, i3, i4), dvec, raw))
    return out


def standard_basis_k2(
    matrix: RationalMatrix, diagram: Optional[OPlusDiagram] = None
) -> K2Classification:
    """Recover the distinguished pair (d, e) spanning a two-row subspace.

    Candidate vectors come from zeroing one coordinate at a time; the
    unique pair fitting the sign templates wins.  When the labeling
    diagram is supplied its template class must agree with the detected
    one, else TemplateMismatch.  Distinct rays, one split per ray and the two
    flavors keep the assemblies distinct, so two fits are two answers.  The
    result keeps the rays and makes d, e and the dominoes on first read.
    """
    n = matrix.cols
    grid = list(matrix._ints)
    pivots, _, _ = _eliminate(grid)
    if len(pivots) != 2:
        raise TemplateMismatch("need a two-dimensional row space")
    want = None
    if diagram is not None:
        if diagram.n != n:
            raise ShapeMismatch(f"diagram on {diagram.n} points, matrix on {n}")
        want = classify_k2(diagram)
    rays = _candidate_rays(grid[0], grid[1])
    found = []
    if want is None or want <= 3:
        found.extend(_orthodox_assemblies(rays, n))
    if want is None or want >= 4:
        found.extend(_deviant_assemblies(rays, n))
    if want is not None:
        found = [r for r in found if r.cell_class == want]
    if len(found) != 1:
        raise TemplateMismatch(f"{len(found)} template assemblies fit")
    return found[0]


# ----------------------------------------------------------------------
# domino coordinates


def _dom_coefficients(classification: K2Classification, v) -> tuple:
    vals = tuple(_frac(x) for x in v)
    n = classification.n
    if len(vals) != n:
        raise ShapeMismatch(f"vector length {len(vals)}, subspace lives in {n}")
    vbar = vals[:-1] + (_ZERO,)
    columns = [d.vector() for d in classification.dominoes]
    work = _primitive_rows(list(zip(*columns, vbar)))
    pivots, _, _ = _eliminate(work)
    if 4 in pivots:
        raise NotInSpan("vector leaves the span of the fundamental dominoes")
    if pivots != [0, 1, 2, 3]:
        raise InvariantViolated("fundamental dominoes must be independent")
    return tuple(Fraction(work[j][4], work[j][j]) for j in range(4))


def dom_coordinates(classification: K2Classification, v) -> str:
    """Signs of the coefficients expressing v (last entry dropped) in the
    fundamental dominoes, as a length-4 string over "0+-"."""
    return sign_string(_dom_coefficients(classification, v))


def dom_decomposition(classification: K2Classification, v) -> tuple[Domino, ...]:
    """The four scaled fundamental dominoes summing to v with its last
    entry zeroed."""
    coeffs = _dom_coefficients(classification, v)
    return tuple(
        d.scaled(a) for d, a in zip(classification.dominoes, coeffs)
    )


# ----------------------------------------------------------------------
# two-domino rows for the m = 2 family


def m2_standard_basis(
    matrix: RationalMatrix, diagram: OPlusDiagram
) -> list[tuple[Fraction, ...]]:
    """Row-reduce a cell sample into rows supported on {s_i, s_i+1, n}.

    Pivots must land on the source columns; consecutive sources trigger
    one extra elimination step per row, top to bottom.  Each returned
    row has positive entries at its source pair and sign (-1)^(k-i) at
    the last place.
    """
    k, n = diagram.k, diagram.n
    if (matrix.rows, matrix.cols) != (k, n):
        raise ShapeMismatch(f"{matrix.rows}x{matrix.cols} matrix for Gr({k},{n})")
    sources = diagram.sources()
    rows = list(matrix._ints)
    pivots, _, _ = _eliminate(rows)
    if len(pivots) != k:
        raise TemplateMismatch("sample does not have full rank")
    if tuple(p + 1 for p in pivots) != sources:
        raise TemplateMismatch(f"pivots {tuple(pivots)} miss the sources {sources}")
    source_set = set(sources)
    for i in range(k - 1):
        if sources[i + 1] != sources[i] + 1:
            continue
        j = next(
            c for c in range(sources[i] + 1, n + 1) if c not in source_set
        )
        below, here = rows[i + 1][j - 1], rows[i][j - 1]
        if below == 0:
            if here != 0:
                raise TemplateMismatch(f"cannot clear column {j} of row {i + 1}")
            continue
        rows[i] = [below * x - here * y for x, y in zip(rows[i], rows[i + 1])]
    out = []
    for i, row in enumerate(rows, start=1):
        s = sources[i - 1]
        lead = row[s - 1]  # the reduced row is row / lead, with 1 at its pivot
        allowed = {s - 1, s, n - 1}
        for col in range(n):
            if col not in allowed and row[col] != 0:
                raise TemplateMismatch(
                    f"row {i} carries weight outside {{{s}, {s + 1}, {n}}}"
                )
        last_sign = 1 if (k - i) % 2 == 0 else -1
        if s < n and lead * row[s] <= 0:
            raise TemplateMismatch(f"row {i} is not positive at its source pair")
        if last_sign * lead * row[n - 1] <= 0:
            raise TemplateMismatch(f"row {i} ends with the wrong sign")
        out.append(tuple(Fraction(x, lead) if x else _ZERO for x in row))
    return out


# ----------------------------------------------------------------------
# alternating sequences from a domino multiset


def _covers(d: Domino, place: int) -> bool:
    return d.index == place or (d.index < d.n and d.index + 1 == place)


def alternating_domino_sequence(
    dominoes: Sequence[Domino], v, indices
) -> Optional[tuple[Domino, ...]]:
    """Order distinct members of the multiset so the j-th matches v's
    sign at the j-th index and the signs alternate.

    Requires v to equal the sum of the whole multiset; zero dominoes are
    never selected.  Returns None when no ordering works.
    """
    doms, total = _domino_sum(dominoes)
    n = doms[0].n
    vals = tuple(_frac(x) for x in v)
    if len(vals) != n:
        raise ShapeMismatch(f"vector length {len(vals)}, dominoes live in {n}")
    if total != vals:
        raise SumMismatch("dominoes do not sum to the test vector")
    idx = sorted(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    if any(not 1 <= i <= n for i in idx):
        raise ValueError("indices outside 1..n")
    if len(idx) > len(doms):
        return None

    used = [False] * len(doms)
    chosen: list[Domino] = []

    def search(j: int, prev: int) -> bool:
        if j == len(idx):
            return True
        place = idx[j]
        need = _sign(vals[place - 1])
        if need == 0 or (prev and need == prev):
            return False
        tried = set()
        for t, d in enumerate(doms):
            if used[t] or d in tried:
                continue
            tried.add(d)
            if d.sign != _SIGN_CHAR[need] or not _covers(d, place):
                continue
            used[t] = True
            chosen.append(d)
            if search(j + 1, need):
                return True
            chosen.pop()
            used[t] = False
        return False

    if not search(0, 0):
        return None
    picked = tuple(chosen)
    starts = [d.index for d in picked]
    if starts != sorted(starts) or any(starts.count(s) > 2 for s in starts):
        raise InvariantViolated("sequence indices must weakly increase, twice at most")
    return picked


def shuffle_check(s, t, u) -> bool:
    """Is u an interleaving of s and t preserving both relative orders?"""
    s, t, u = tuple(s), tuple(t), tuple(u)
    if len(u) != len(s) + len(t):
        return False
    table = [[False] * (len(t) + 1) for _ in range(len(s) + 1)]
    table[0][0] = True
    for i in range(len(s) + 1):
        for j in range(len(t) + 1):
            if not table[i][j]:
                continue
            if i < len(s) and u[i + j] == s[i]:
                table[i + 1][j] = True
            if j < len(t) and u[i + j] == t[j]:
                table[i][j + 1] = True
    return table[len(s)][len(t)]


# ----------------------------------------------------------------------
# conjectural domino bases from Dyck paths


def p_domino_basis(
    matrix: RationalMatrix, path: DyckPath
) -> Optional[list[tuple[Fraction, ...]]]:
    """Solve for rows fitting the double-up / matched-down template.

    Row i is a positive domino at the i-th double-up label, a signed
    domino at its matched down label, plus either (-1)^(k-i) at the last
    place (double-up starting on the axis) or a signed copy of an
    earlier row's first domino.  Returns None when the subspace admits
    no such positive solution.
    """
    n, k = path.n, path.k
    if matrix.cols != n or matrix.rows != k:
        raise ShapeMismatch(f"need a {k} x {n} matrix for this path")
    grid = list(matrix._ints)
    pivots, _, _ = _eliminate(grid)
    if len(pivots) != k:
        raise ShapeMismatch("sample does not have full rank")
    kernel = _integer_kernel(grid, pivots, n)
    _, _, up_i, down_i = dyck_step_labels(path)
    steps = path.steps
    heights = path.heights
    ups_pos = [x for x, ch in enumerate(steps) if ch == "+"]

    # every row and first domino: integer numerators over one positive denominator
    rows: list[tuple[list[int], int]] = []
    first_dominoes: list[tuple[int, int, int]] = []
    for i0, (u, dn) in enumerate(zip(up_i, down_i)):
        step_idx = ups_pos[u - 1]
        eps = 1 if sum(1 for x in up_i if u < x < dn) % 2 == 0 else -1
        if heights[step_idx] == 0:
            f_support, f_den = [(n - 1, 1 if (k - i0 - 1) % 2 == 0 else -1)], 1
        else:
            prior = [
                p for p in ups_pos if p < step_idx and heights[p + 1] == heights[step_idx]
            ]
            if not prior:
                return None
            label = ups_pos.index(prior[-1]) + 1
            if label not in up_i:
                return None
            ip = up_i.index(label)
            sign = 1 if (i0 - ip - 1) % 2 == 0 else -1
            p0, q0, f_den = first_dominoes[ip]
            f_support = [(up_i[ip] - 1, sign * p0), (up_i[ip], sign * q0)]
        cols = (u - 1, u, dn - 1, dn)
        signs4 = (1, 1, eps, eps)
        # the row f + (p, q, eps r, eps s) on cols is orthogonal to the kernel
        solution = _solve([
            [f_den * sg * w[c] for sg, c in zip(signs4, cols)]
            + [-sum(x * w[j] for j, x in f_support)]
            for w in kernel
        ])
        if solution is None:
            return None
        (p, q, r, s), den = solution
        if p <= 0 or q <= 0 or r <= 0 or s <= 0:
            return None
        common = math.lcm(f_den, den)
        row = [0] * n
        for j, x in f_support:
            row[j] += x * (common // f_den)
        for t, a in zip(cols, (p, q, eps * r, eps * s)):
            row[t] += a * (common // den)
        rows.append((row, common))
        first_dominoes.append((p, q, den))
    if len(_eliminate([row for row, _ in rows])[0]) != k:
        return None
    return [tuple(Fraction(x, common) if x else _ZERO for x in row) for row, common in rows]
