"""The integer core of linalg against independent exact oracles.

Maximal minors, determinants and the induced map are checked against the
Leibniz formula and the Cauchy–Binet expansion written out here; ``rref``
against the Fraction Gauss–Jordan elimination it replaced; Plücker vectors
of sampled cells against the three-term Plücker relations; the integer Gram
projection and fraction-free simplex of ``find_kernel_vector_with_signs``
against the Fraction versions they replaced; package-built matrices and
points against the public constructors, samples drawn on one shared
network against samples that each built their own and against their
checked rebuilds, and the integer draws, points and image keys against the
Fraction pipeline they replaced.  The node matrices that skip their minors,
and the draws by ``choice``, are checked against the minors loop and the
``randint`` stream they replaced.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids.diagrams import enumerate_diagrams, le_normalize
from positroids.errors import NotTotallyPositive, RankDeficient, RankLoss
from positroids.experiments import conjecture_sweeps, disjointness_experiment, \
    m3_counterexample
from positroids.linalg import (
    CellSample,
    GrassmannPoint,
    RationalMatrix,
    _boundary_matrix,
    _cell_samples,
    _maximal_minors,
    _phase1_feasible,
    _plucker_key,
    _primitive_rows,
    _sample_seed,
    _solve,
    find_kernel_vector_with_signs,
    gr_equal,
    kernel_basis,
    make_tp_matrix,
    plucker,
    rref,
    sample_cell,
    z_map,
)
from positroids.plabic import build_network

# ----------------------------------------------------------------------
# oracles


def leibniz(rows) -> Fraction:
    """Determinant as the signed sum over permutations."""
    total = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        term = math.prod((Fraction(rows[i][perm[i]]) for i in range(len(rows))), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def leibniz_minors(rows, n):
    return [leibniz([[row[c] for c in cols] for row in rows])
            for cols in itertools.combinations(range(n), len(rows))]


def fraction_rref(matrix):
    """The Fraction Gauss–Jordan elimination ``rref`` used to run."""
    grid = [list(row) for row in matrix.entries]
    pivots = []
    row = 0
    for col in range(matrix.cols):
        pivot = next((r for r in range(row, len(grid)) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[row], grid[pivot] = grid[pivot], grid[row]
        lead = grid[row][col]
        grid[row] = [x / lead for x in grid[row]]
        for r in range(len(grid)):
            if r != row and grid[r][col]:
                factor = grid[r][col]
                grid[r] = [a - factor * b for a, b in zip(grid[r], grid[row])]
        pivots.append(col)
        row += 1
        if row == len(grid):
            break
    return tuple(tuple(r) for r in grid), tuple(pivots)


def fraction_projection(z, pattern, seed):
    """The Fraction Gram projection ``find_kernel_vector_with_signs`` ran
    before it moved onto integers; None when it hands over to the simplex."""
    signs = [1 if c == "+" else -1 for c in pattern]
    basis = kernel_basis(z)
    rng = random.Random(seed)
    gram = [[sum(a * b for a, b in zip(u, w)) for w in basis] for u in basis]
    for _ in range(40):
        target = [s * Fraction(rng.randint(1, 50), rng.randint(1, 50)) for s in signs]
        rhs = [sum(a * b for a, b in zip(u, target)) for u in basis]
        reduced, pivots = fraction_rref(RationalMatrix(
            tuple(tuple(row) + (b,) for row, b in zip(gram, rhs))))
        if pivots != tuple(range(len(basis))):
            return None
        coeffs = [row[-1] for row in reduced]
        v = [sum(c * u[t] for c, u in zip(coeffs, basis)) for t in range(z.cols)]
        if all((x > 0) - (x < 0) == s for x, s in zip(v, signs)):
            return tuple(v)
    return None


def fraction_phase1(rows, rhs):
    """The Fraction phase-1 simplex (Bland's rule) ``_phase1_feasible`` replaced."""
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


def fraction_fallback(z, pattern):
    """The exact fallback of ``find_kernel_vector_with_signs``, on the Fraction simplex."""
    signs = [1 if c == "+" else -1 for c in pattern]
    rows = [[row[j] * signs[j] for j in range(z.cols)] for row in z.entries]
    rhs = [-sum((row[j] * signs[j] for j in range(z.cols)), Fraction(0)) for row in z.entries]
    u = fraction_phase1(rows, rhs)
    return None if u is None else tuple(signs[j] * (u[j] + 1) for j in range(z.cols))


# ----------------------------------------------------------------------
# random exact matrices: negative and fractional entries, zero rows, and
# rows that are combinations of others


ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


@st.composite
def grids(draw, rows, cols):
    grid = [draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]
    mode = draw(st.sampled_from(["free", "zero row", "dependent row"]))
    if rows and mode == "zero row":
        grid[draw(st.integers(0, rows - 1))] = [0] * cols
    elif rows > 1 and mode == "dependent row":
        target, a, b = draw(st.integers(0, rows - 1)), draw(ENTRIES), draw(ENTRIES)
        others = [r for r in range(rows) if r != target]
        u, w = grid[others[0]], grid[others[-1]]
        grid[target] = [a * x + b * y for x, y in zip(u, w)]
    return grid


@st.composite
def matrices(draw, max_rows=4, max_cols=8, wide=True):
    k = draw(st.integers(0, max_rows))
    n = draw(st.integers(k if wide else 0, max_cols))
    return RationalMatrix(tuple(map(tuple, draw(grids(k, n)))), cols=n)


# ----------------------------------------------------------------------
# the core against the oracles


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_minors_are_leibniz_times_one_positive_constant(matrix):
    minors = _maximal_minors(matrix._ints, matrix.cols)
    truth = leibniz_minors(matrix.entries, matrix.cols)
    assert all(type(x) is int for x in minors)
    assert len(minors) == len(truth)
    lead = next((j for j, x in enumerate(truth) if x), None)
    if lead is None:
        assert not any(minors)
        return
    scale = truth[lead] / minors[lead]
    assert scale > 0
    assert [scale * x for x in minors] == truth


@settings(max_examples=200, deadline=None)
@given(matrices(wide=False))
def test_rref_matches_fraction_gauss_jordan(matrix):
    reduced, pivots = rref(matrix)
    old_entries, old_pivots = fraction_rref(matrix)
    assert pivots == old_pivots
    assert reduced.entries == old_entries
    assert (reduced.rows, reduced.cols) == (matrix.rows, matrix.cols)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda size: grids(size, size)))
def test_det_matches_leibniz(grid):
    assert RationalMatrix(tuple(map(tuple, grid)), cols=len(grid)).det() == leibniz(grid)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda size: grids(size, size + 1)))
def test_solve_matches_leibniz(augmented):
    grid = [row[:-1] for row in augmented]
    rhs = [row[-1] for row in augmented]
    solution = _solve(_primitive_rows(augmented))
    if leibniz(grid) == 0:
        assert solution is None
    else:
        numerators, den = solution
        assert den > 0
        assert [sum(a * x for a, x in zip(row, numerators)) for row in grid] == \
            [den * b for b in rhs]


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=3, max_cols=7, wide=False))
def test_kernel_basis_is_primitive_and_spans(matrix):
    basis = kernel_basis(matrix)
    assert len(basis) == matrix.cols - len(rref(matrix)[1])
    for v in basis:
        assert all(x.denominator == 1 for x in v)
        assert math.gcd(*(x.numerator for x in v)) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in matrix.entries)


@st.composite
def map_pairs(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 7))
    p = draw(st.integers(k, 5))
    v = RationalMatrix(tuple(map(tuple, draw(grids(k, n)))), cols=n)
    z = RationalMatrix(tuple(map(tuple, draw(grids(p, n)))), cols=n)
    return v, z


@settings(max_examples=120, deadline=None)
@given(map_pairs())
def test_z_map_matches_cauchy_binet(pair):
    v, z = pair
    k, p = v.rows, z.rows
    v_minors = leibniz_minors(v.entries, v.cols)
    image = []
    for rows in itertools.combinations(range(p), k):
        z_minors = leibniz_minors([z.entries[r] for r in rows], z.cols)
        image.append(sum((a * b for a, b in zip(v_minors, z_minors)), Fraction(0)))
    if not any(image):
        with pytest.raises(RankLoss):
            z_map(z, v)
    else:
        assert z_map(z, v) == GrassmannPoint(k, p, tuple(image))


def three_term_relations_hold(point: GrassmannPoint) -> bool:
    """Δ(Sik)Δ(Sjl) = Δ(Sij)Δ(Skl) + Δ(Sil)Δ(Sjk) for all i < j < k < l."""
    k, n = point.k, point.n
    coords = dict(zip(point.subsets(), point.coords))

    def delta(base, *extra):
        return coords[tuple(sorted(base + extra))]

    for base in itertools.combinations(range(1, n + 1), k - 2):
        rest = [x for x in range(1, n + 1) if x not in base]
        for i, j, a, b in itertools.combinations(rest, 4):
            lhs = delta(base, i, a) * delta(base, j, b)
            rhs = delta(base, i, j) * delta(base, a, b) + delta(base, i, b) * delta(base, j, a)
            if lhs != rhs:
                return False
    return True


def test_plucker_relations_on_the_8_2_4_family():
    z = make_tp_matrix(6, 8)
    for index, diagram in enumerate(enumerate_diagrams(8, 2, 4)):
        for seed in (index, 1000 + index):
            matrix = sample_cell(le_normalize(diagram), seed).matrix
            assert three_term_relations_hold(plucker(matrix))
            assert three_term_relations_hold(z_map(z, matrix))


def test_plucker_relations_catch_a_non_point():
    point = plucker(RationalMatrix(((1, 0, -1, -2), (0, 1, 1, 1))))
    assert three_term_relations_hold(point)
    broken = list(point.coords)
    broken[2] += 1
    assert not three_term_relations_hold(GrassmannPoint(2, 4, tuple(broken)))


def test_not_totally_positive_reports_the_true_minor():
    # the primitive integer rows (1, 1), (3, 2) have determinant -1
    with pytest.raises(NotTotallyPositive, match=r"columns \(1, 2\) is -1/6$"):
        make_tp_matrix(2, 2, nodes=("1/2", "1/3"))


# sha256 of the outputs below, recorded with the Fraction arithmetic the
# integer core replaced
OUTPUTS_SHA256 = "c52c645bcc5a848dcb9a207a0c4b1a3d14376d1750b37313dab3b359d5d4629d"
# sha256 of single report JSONs, recorded while every sample rebuilt its
# network, built its Fraction entries and computed its source key
REPORT_SHA256 = {
    "disjointness-9-2-4": "017e70d65ef2752da928b545a69efd1851c2d1b1fec6b80ae2142db96aeab333",
    "sweeps-8": "fe52e109e5705e0a009ebc6e5c93d2a7d764dd01075514dfbfe2b142d01be678",
}


def test_outputs_are_pinned():
    digest = hashlib.sha256()
    for report in (
        disjointness_experiment(8, 2, 4, samples=2, seed=3),
        disjointness_experiment(8, 3, 2, samples=2, seed=5),
        conjecture_sweeps(7, samples=1, seed=2),
        m3_counterexample(seed=1),
    ):
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    for n, k, m in ((8, 2, 4), (8, 3, 2)):
        z = make_tp_matrix(k + m, n)
        for index, diagram in enumerate(enumerate_diagrams(n, k, m)):
            matrix = sample_cell(le_normalize(diagram) if m == 4 else diagram, index).matrix
            reduced, pivots = rref(matrix)
            kernel = [[str(x) for x in v] for v in kernel_basis(matrix)]
            outputs = [plucker(matrix).to_json(), z_map(z, matrix).to_json(),
                       reduced.to_json(), pivots, kernel]
            digest.update(json.dumps(outputs, sort_keys=True).encode())
    assert digest.hexdigest() == OUTPUTS_SHA256


def test_report_json_is_pinned():
    reports = {
        "disjointness-9-2-4": disjointness_experiment(9, 2, 4, samples=2, seed=3),
        "sweeps-8": conjecture_sweeps(8, samples=2, seed=1),
    }
    for name, report in reports.items():
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name], name


# ----------------------------------------------------------------------
# the integer sampling path against the Fraction code it replaced


def test_kernel_vector_is_the_fraction_projection_or_simplex_vector():
    # the m3-counterexample bytes rest on this vector: identical, not merely valid
    z = make_tp_matrix(5, 12)
    routes = set()
    for pattern in ("++--++--++--", "+-+-+-+-+-+-", "++++++------", "+--+--+--+-+"):
        for seed in range(21):
            expected = fraction_projection(z, pattern, seed)
            if expected is None:
                expected = fraction_fallback(z, pattern)
                routes.add("simplex" if expected else "none")
            else:
                routes.add("projection")
            assert find_kernel_vector_with_signs(z, pattern, seed) == expected
    assert routes == {"projection", "simplex", "none"}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 6).flatmap(lambda n: grids(m, n + 1))))
def test_phase1_matches_the_fraction_simplex(augmented):
    rows = [[Fraction(x) for x in row[:-1]] for row in augmented]
    rhs = [Fraction(row[-1]) for row in augmented]
    assert _phase1_feasible(rows, rhs) == fraction_phase1(rows, rhs)


@pytest.mark.parametrize("n, k, m", [(8, 2, 4), (8, 3, 2), (9, 4, 2)])
def test_built_samples_match_the_public_constructors(n, k, m):
    z = make_tp_matrix(k + m, n)
    samples = []
    for ci, diagram in enumerate(enumerate_diagrams(n, k, m)):
        cell = le_normalize(diagram) if m == 4 else diagram
        for s in range(2):
            matrix = sample_cell(cell, rng=_sample_seed(11, ci, s)).matrix
            assert list(matrix._ints) == _primitive_rows(matrix.entries)
            rebuilt = RationalMatrix(matrix.entries, cols=matrix.cols)
            assert rebuilt == matrix and rebuilt._ints == matrix._ints
            for point in (plucker(matrix), z_map(z, matrix)):
                assert GrassmannPoint(point.k, point.n, point.coords) == point
            # the same row span through a row operation of determinant -1,
            # which flips the sign of every minor
            rows = matrix.entries
            moved = RationalMatrix((tuple(b - a for a, b in zip(rows[0], rows[1])),) + rows[1:])
            samples += [matrix, moved]
    keys = [_plucker_key(matrix) for matrix in samples]
    points = [plucker(matrix) for matrix in samples]
    for i, j in itertools.combinations(range(len(samples)), 2):
        assert (keys[i] == keys[j]) == gr_equal(points[i], points[j])
    assert sum(keys[i] == keys[i + 1] for i in range(0, len(keys), 2)) == len(keys) // 2


def copy_rng(rng):
    if not isinstance(rng, random.Random):
        return rng
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def eager_sample(diagram, rng):
    """A sample as ``sample_cell`` drew it before a network served several:
    a network of its own, and the matrix through the public constructor."""
    if rng is None or isinstance(rng, int):
        rng = random.Random(rng or 0)
    network = build_network(diagram)
    values = {name: Fraction(rng.randint(1, 50), rng.randint(1, 50))
              for name in network.variables}
    return values, RationalMatrix(tuple(map(tuple, network.matrix(values))), cols=diagram.n)


@pytest.mark.parametrize("n, k, m", [(8, 2, 4), (8, 3, 2), (7, 0, 2)])
def test_cell_samples_are_repeated_sample_cell_calls(n, k, m):
    for ci, diagram in enumerate(enumerate_diagrams(n, k, m)):
        cell = le_normalize(diagram) if m == 4 else diagram
        seeds = [_sample_seed(2, ci, s) for s in range(3)]
        for rngs in (seeds, [random.Random(x) for x in seeds], [None, 0, 5]):
            one_by_one = [sample_cell(cell, rng=copy_rng(r)) for r in rngs]
            eager = [eager_sample(cell, copy_rng(r)) for r in rngs]
            together = list(_cell_samples(cell, map(copy_rng, rngs)))
            assert len(together) == len(rngs)
            for a, (values, matrix), b in zip(one_by_one, eager, together):
                assert a.values == b.values == values and a.diagram == b.diagram == cell
                assert a.matrix.entries == b.matrix.entries == matrix.entries
                assert a.matrix == b.matrix == matrix
                assert a.to_json() == b.to_json()


def test_sample_entries_are_made_on_first_read():
    z = make_tp_matrix(6, 9)
    for ci, diagram in enumerate(enumerate_diagrams(9, 2, 4)):
        matrix = sample_cell(le_normalize(diagram), rng=ci).matrix
        # the sampling path reads the integer rows only
        assert (matrix.rows, matrix.cols) == (2, 9)
        plucker(matrix)
        z_map(z, matrix)
        _plucker_key(matrix)
        rref(matrix)
        assert "entries" not in vars(matrix)
        entries = matrix.entries
        assert vars(matrix)["entries"] is entries is matrix.entries
        public = RationalMatrix(entries, cols=9)
        assert list(matrix._ints) == _primitive_rows(entries) == list(public._ints)
        assert all(row[s - 1] == 1 for row, s in zip(entries, le_normalize(diagram).sources()))
        assert all(isinstance(x, Fraction) for row in entries for x in row)
        assert matrix == public and hash(matrix) == hash(public)
        assert repr(matrix) == repr(public) and matrix.to_json() == public.to_json()
    with pytest.raises(AttributeError):
        getattr(matrix, "missing")
    with pytest.raises(AttributeError):
        getattr(RationalMatrix.__new__(RationalMatrix), "entries")


def test_plucker_key_of_a_rank_deficient_matrix():
    with pytest.raises(RankDeficient):
        _plucker_key(RationalMatrix(((1, 2, 3), (2, 4, 6))))


def fraction_z_map(z, v):
    """The image's coords as ``z_map`` made them before points kept integers:
    each minor over the first nonzero one, as a Fraction."""
    image = [[sum(a * b for a, b in zip(row, z_row)) for z_row in z._scaled] for row in v._ints]
    minors = _maximal_minors(image, z.rows)
    lead = next(x for x in minors if x)
    return tuple(Fraction(x, lead) if x else Fraction(0) for x in minors)


def partition(keys):
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return sorted(groups.values())


@pytest.mark.parametrize("n, k, m", [(8, 2, 4), (7, 1, 4), (9, 3, 2), (8, 4, 2)])
def test_integer_sampling_matches_the_fraction_pipeline(n, k, m):
    z = make_tp_matrix(k + m, n)
    samples = []
    for ci, diagram in enumerate(enumerate_diagrams(n, k, m)):
        cell = le_normalize(diagram) if m == 4 else diagram
        network = build_network(cell)
        seeds = [_sample_seed(seed, ci, s) for seed in (0, 7) for s in range(2)]
        for seed, sample in zip(seeds, _cell_samples(cell, seeds)):
            assert "values" not in vars(sample) and "entries" not in vars(sample.matrix)
            rng = random.Random(seed)
            values = {name: Fraction(rng.randint(1, 50), rng.randint(1, 50))
                      for name in network.variables}
            assert sample.values == values and vars(sample)["values"] is sample.values
            assert sample.matrix == _boundary_matrix(network, network._int_rows(values)) \
                == RationalMatrix(tuple(map(tuple, network.matrix(values))), cols=n)
            assert sample.to_json() == CellSample(cell, values, sample.matrix).to_json()
            # the same point again: two rows swapped, or a single row times -3,
            # so that every minor changes sign
            rows = sample.matrix.entries
            moved = RationalMatrix((rows[1], rows[0]) + rows[2:], cols=n) if k > 1 else \
                RationalMatrix(tuple(tuple(-3 * x for x in row) for row in rows), cols=n)
            samples += [sample.matrix, moved]
    images = [z_map(z, matrix) for matrix in samples]
    old = [fraction_z_map(z, matrix) for matrix in samples]
    assert [image.coords for image in images] == old
    assert partition([image._ints for image in images]) \
        == partition([tuple(map(Fraction.as_integer_ratio, coords)) for coords in old])
    assert all(len(group) == 2 for group in partition([image._ints for image in images]))
    for image in images[:40]:
        checked = GrassmannPoint(image.k, image.n, image.coords)
        read = GrassmannPoint.from_json(json.loads(json.dumps(image.to_json())))
        for twin in (checked, read):
            assert "_ints" not in vars(twin)
            assert twin == image and hash(twin) == hash(image) and twin._ints == image._ints
            assert twin.to_json() == image.to_json() and repr(twin) == repr(image)


def test_point_coords_are_made_on_first_read():
    z = make_tp_matrix(6, 9)
    matrix = sample_cell(le_normalize(enumerate_diagrams(9, 2, 4)[3]), rng=5).matrix
    for point in (plucker(matrix), z_map(z, matrix)):
        assert "coords" not in vars(point) and point.support
        assert next(filter(None, point._ints)) > 0 and math.gcd(*point._ints) == 1
        assert "coords" not in vars(point)
        coords = point.coords
        assert vars(point)["coords"] is coords and next(filter(None, coords)) == 1
    with pytest.raises(AttributeError):
        getattr(point, "missing")
    for name in ("coords", "_ints"):
        with pytest.raises(AttributeError):
            getattr(GrassmannPoint.__new__(GrassmannPoint), name)


def test_points_compare_and_hash_without_making_coords():
    z = make_tp_matrix(6, 10)
    cells = [le_normalize(d) for d in enumerate_diagrams(10, 2, 4)[:2]]
    matrices = [sample_cell(cell, rng=seed).matrix for cell in cells for seed in (3, 4)]
    for make in (lambda m: z_map(z, m), plucker):
        points = [make(m) for m in matrices]
        again = [make(m) for m in matrices]
        assert [p == q for p in points for q in again] == [
            i == j for i in range(len(points)) for j in range(len(points))]
        assert list(map(hash, points)) == list(map(hash, again))
        assert not [p for p in points + again if "coords" in vars(p)]
        for point, m in zip(points, matrices):
            shown = make(m)  # a third build lends the twins its coords and JSON
            checked = GrassmannPoint(shown.k, shown.n, shown.coords)
            read = GrassmannPoint.from_json(json.loads(json.dumps(shown.to_json())))
            for twin in (checked, read):
                assert twin == point and point == twin and hash(twin) == hash(point)
                assert hash(point) == hash((twin.k, twin.n, twin.coords))
            assert "coords" not in vars(point)


def assert_samples_match_checked_rebuilds(n, seeds):
    """One point per seed in each cell of the (n, 2, 4) family, its views read only
    after the sampling path ran, against its checked rebuild; returns the count."""
    z, count = make_tp_matrix(6, n), 0
    for ci, diagram in enumerate(enumerate_diagrams(n, 2, 4)):
        cell = le_normalize(diagram)
        for point in _cell_samples(cell, [_sample_seed(seed, ci, 0) for seed in seeds]):
            matrix = point.matrix
            plucker(matrix)  # the sampling path reads the integer rows only
            z_map(z, matrix)
            rref(matrix)
            assert "values" not in vars(point) and "entries" not in vars(matrix)
            checked = CellSample(cell, point.values, RationalMatrix(matrix.entries, cols=n))
            assert matrix == checked.matrix and hash(matrix) == hash(checked.matrix)
            assert repr(matrix) == repr(checked.matrix) and repr(point) == repr(checked)
            assert matrix.to_json() == checked.matrix.to_json()
            assert point.to_json() == checked.to_json()
            count += 1
    return count


@pytest.mark.parametrize("n", [8, 9, 10])
def test_samples_match_their_checked_rebuilds(n):
    assert assert_samples_match_checked_rebuilds(n, seeds=(1, 2)) \
        == 2 * len(enumerate_diagrams(n, 2, 4))


# ----------------------------------------------------------------------
# node matrices and draws


def tp_by_minors(rows, n, nodes):
    """``make_tp_matrix`` before increasing nodes skipped the minors: every
    maximal minor computed, the first nonpositive one reported."""
    nodes = tuple(Fraction(t) for t in nodes)
    matrix = RationalMatrix(tuple(tuple(t ** i for t in nodes) for i in range(rows)), cols=n)
    minors = _maximal_minors(matrix._ints, n)
    for cols, value in zip(itertools.combinations(range(n), rows), minors):
        if value <= 0:
            square = RationalMatrix(tuple(tuple(row[c] for c in cols) for row in matrix.entries))
            raise NotTotallyPositive(f"minor on columns {tuple(c + 1 for c in cols)} is "
                                     f"{square.det()}")
    return matrix


def tp_outcome(build, rows, n, nodes):
    try:
        matrix = build(rows, n, nodes)
    except NotTotallyPositive as exc:
        return str(exc)
    return matrix.entries, matrix._ints


def random_nodes(rng, n):
    """n distinct nodes, increasing: ints, Fractions, or either sign."""
    kind = rng.randrange(3)
    pool = set()
    while len(pool) < n:
        p = rng.randint(1, 40) if kind == 0 else rng.randint(-40, 40)
        pool.add(Fraction(p, rng.randint(1, 7)) if kind == 1 else Fraction(p))
    return sorted(pool) if kind else [int(t) for t in sorted(pool)]


def assert_node_shortcut_matches_minors(rows_max, n_max, rng, trials=2):
    """Increasing nodes: the matrix the minors loop accepts.  Nodes out of order
    or repeated: the same matrix or the same NotTotallyPositive message."""
    for n in range(1, n_max + 1):
        for rows in range(min(rows_max, n) + 1):
            for _ in range(trials):
                nodes = random_nodes(rng, n)
                built = tp_outcome(make_tp_matrix, rows, n, nodes)
                assert built == tp_outcome(tp_by_minors, rows, n, nodes) \
                    and not isinstance(built, str), (rows, nodes)
                shuffled = rng.sample(nodes, n)
                repeated = sorted(nodes[:-1] + [rng.choice(nodes)])
                for other in (shuffled, repeated, nodes[::-1]):
                    assert tp_outcome(make_tp_matrix, rows, n, other) \
                        == tp_outcome(tp_by_minors, rows, n, other), (rows, other)


def test_node_shortcut_matches_the_minors_loop():
    assert_node_shortcut_matches_minors(9, 9, random.Random(29))
    assert make_tp_matrix(4, 9) == tp_by_minors(4, 9, range(1, 10))
    with pytest.raises(NotTotallyPositive, match=r"^minor on columns \(2, 3\) is 0$"):
        make_tp_matrix(2, 4, nodes=(1, 2, 2, 3))
    with pytest.raises(NotTotallyPositive, match=r"^minor on columns \(1, 2, 3\) is -6$"):
        make_tp_matrix(3, 4, nodes=(-1, 2, 0, 4))


def test_choice_draws_are_the_randint_stream():
    cell = le_normalize(enumerate_diagrams(9, 2, 4)[-1])
    names = build_network(cell).variables
    for seed in range(50):
        rng, twin = random.Random(seed), random.Random(seed)
        stream = [rng.randint(1, 50) for _ in range(500)]
        assert [twin.choice(range(1, 51)) for _ in range(500)] == stream
        assert sample_cell(cell, seed)._draws == list(zip(stream[:2 * len(names):2],
                                                          stream[1:2 * len(names):2]))
