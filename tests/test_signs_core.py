"""The integer fast paths of signs and plabic against independent oracles.

Candidate rays are checked for what they claim (each vanishes somewhere,
lies in the row span by a Plücker rank check, and no two are proportional)
and against the Fraction ``_candidate_rays`` they replaced, kept here.
Domino bases are checked to span the sample's row space and to fit their
sign template, and against the Fraction solve the integer one replaced;
network matrices against the Fraction path sums the common denominator
replaced, and ``Network._plan`` against the set-up ``_int_rows`` once ran
inline on every call, all kept here; the integer independence test of the
k = 2 assemblies against the rank of their Fraction domino vectors.  A sha256 pin, recorded with the
Fraction arithmetic, covers seeded reports, samples and bases.  The k = 2
bases, whose vectors and dominoes are made on first read, are checked against
the eager construction they replaced, kept here.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids.catalan import dyck_step_labels, enumerate_dyck_paths, omega_PL
from positroids.diagrams import OPlusDiagram, enumerate_diagrams, le_normalize, omega_LD
from positroids.experiments import conjecture_sweeps, disjointness_experiment, \
    m3_counterexample
from positroids.linalg import RationalMatrix, _eliminate, _integer_kernel, _maximal_minors, \
    _primitive_rows, _solve, gr_equal, plucker, rref, sample_cell
from positroids.plabic import build_network
from positroids.signs import Domino, K2Classification, _candidate_rays, _independent, \
    _unit_scale, p_domino_basis, standard_basis_k2

# ----------------------------------------------------------------------
# oracles


def fraction_unit_scale(vec):
    first = next(x for x in vec if x != 0)
    return tuple(x / first for x in vec)


def fraction_candidate_rays(v, w, n):
    """The Fraction ``_candidate_rays`` the integer one replaced."""
    rays = {}
    for col in range(n):
        if v[col] == 0 and w[col] == 0:
            continue
        ray = tuple(w[col] * v[j] - v[col] * w[j] for j in range(n))
        if any(x != 0 for x in ray):
            rays.setdefault(fraction_unit_scale(ray), ray)
    return [fraction_unit_scale(r) for r in rays.values()]


def det3(a, b, c):
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def fraction_path_sums(network, values):
    """The Fraction path sums ``Network.matrix`` ran before the common denominator."""
    vals = {name: Fraction(values[name]) for name in network.variables}
    out_h, entry = {}, {}
    for name, tail, head in network.horizontal:
        if tail[0] == "source":
            entry[tail[1]] = (name, head)
        else:
            out_h[tail] = (name, head)
    out_v = {tail: head for tail, head in network.vertical}
    paths = {}
    for box in sorted(out_v, key=lambda box: (box[1], -box[0])):
        total = {}
        head = out_v[box]
        if head[0] == "sink":
            total[head[1]] = Fraction(1)
        else:
            for label, weight in paths[head].items():
                total[label] = total.get(label, Fraction(0)) + weight
        if box in out_h:
            name, west = out_h[box]
            for label, weight in paths[west].items():
                total[label] = total.get(label, Fraction(0)) + vals[name] * weight
        paths[box] = total
    rows = []
    for s in network.sources:
        row = [Fraction(0)] * (network.n + 1)
        row[s] = Fraction(1)
        if s in entry:
            name, head = entry[s]
            for label, weight in paths[head].items():
                between = sum(1 for t in network.sources if s < t < label)
                row[label] = (-1) ** between * vals[name] * weight
        rows.append(row[1:])
    return rows


def inline_plan(network):
    """The value-free set-up ``Network._int_rows`` ran inline on every call,
    in the shape of ``Network._plan``."""
    out_h, entry = {}, {}
    for name, tail, head in network.horizontal:
        if tail[0] == "source":
            entry[tail[1]] = (name, head)
        else:
            out_h[tail] = (name, head)
    out_v = {tail: head for tail, head in network.vertical}
    boxes = tuple((box, out_v[box], out_h[box] if box in out_h else None)
                  for box in sorted(out_v, key=lambda box: (box[1], -box[0])))
    starts = []
    for s in network.sources:
        signs = {}
        for label in network.sinks.values():
            between = sum(1 for t in network.sources if s < t < label)
            signs[label] = (-1) ** between
        starts.append((s, entry[s] if s in entry else None, signs))
    return boxes, tuple(starts)


def fraction_p_domino_basis(matrix, path):
    """The ``p_domino_basis`` that kept its template vectors and solutions on Fraction."""
    n, k = path.n, path.k
    grid = list(matrix._ints)
    pivots, _, _ = _eliminate(grid)
    kernel = _integer_kernel(grid, pivots, n)
    _, _, up_i, down_i = dyck_step_labels(path)
    steps, heights = path.steps, path.heights
    ups_pos = [x for x, ch in enumerate(steps) if ch == "+"]
    rows, first_dominoes = [], []
    for i0, (u, dn) in enumerate(zip(up_i, down_i)):
        step_idx = ups_pos[u - 1]
        eps = 1 if sum(1 for x in up_i if u < x < dn) % 2 == 0 else -1
        f_vec = [Fraction(0)] * n
        if heights[step_idx] == 0:
            f_vec[n - 1] = Fraction(1 if (k - i0 - 1) % 2 == 0 else -1)
        else:
            prior = [p for p in ups_pos if p < step_idx and heights[p + 1] == heights[step_idx]]
            if not prior:
                return None
            label = ups_pos.index(prior[-1]) + 1
            if label not in up_i:
                return None
            ip = up_i.index(label)
            sign = 1 if (i0 - ip - 1) % 2 == 0 else -1
            p0, q0 = first_dominoes[ip]
            f_vec[up_i[ip] - 1] = sign * p0
            f_vec[up_i[ip]] = sign * q0
        cols = (u - 1, u, dn - 1, dn)
        signs4 = (1, 1, eps, eps)
        f_support = [(j, x) for j, x in enumerate(f_vec) if x]
        solution = _solve(_primitive_rows([
            [sg * w[c] for sg, c in zip(signs4, cols)] + [-sum(x * w[j] for j, x in f_support)]
            for w in kernel
        ]))
        if solution is None:
            return None
        numerators, den = solution
        p, q, r, s = (Fraction(x, den) for x in numerators)
        if p <= 0 or q <= 0 or r <= 0 or s <= 0:
            return None
        row = list(f_vec)
        for t, a in zip(cols, (p, q, eps * r, eps * s)):
            row[t] += a
        rows.append(tuple(row))
        first_dominoes.append((p, q))
    if len(_eliminate(_primitive_rows(rows))[0]) != k:
        return None
    return rows


# ----------------------------------------------------------------------
# candidate rays

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rank_two_pairs(draw):
    n = draw(st.integers(3, 8))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(2)]
    # zero columns and repeated columns make zeros and duplicate rays
    for col in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[0][col] = rows[1][col] = Fraction(0)
    if draw(st.booleans()):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        scale = draw(rationals)
        rows[0][dst], rows[1][dst] = scale * rows[0][src], scale * rows[1][src]
    matrix = RationalMatrix(rows)
    if not any(_maximal_minors(matrix._ints, matrix.cols)):
        rows[0][0], rows[1][1], rows[0][1], rows[1][0] = 1, 1, 0, 0
        matrix = RationalMatrix(rows)
    return matrix


@settings(max_examples=300, deadline=None)
@given(rank_two_pairs())
def test_candidate_rays_against_oracles(matrix):
    n = matrix.cols
    reduced, pivots = rref(matrix)
    assert len(pivots) == 2
    v, w = reduced.entries[0], reduced.entries[1]
    rays = _candidate_rays(*_primitive_rows((v, w)))
    for ray in rays:
        assert all(isinstance(x, int) for x in ray)
        assert 0 in ray
        assert next(x for x in ray if x) > 0
        # in the row span: every 3 x 3 minor of (v; w; ray) vanishes
        assert all(det3(*[[row[c] for c in cols] for row in (v, w, ray)]) == 0
                   for cols in _triples(n))
    for i, r1 in enumerate(rays):
        for r2 in rays[i + 1:]:
            assert any(r1[a] * r2[b] != r1[b] * r2[a]
                       for a in range(n) for b in range(a + 1, n))
    # every coordinate where the span does not vanish is zeroed by some ray
    for col in range(n):
        if v[col] or w[col]:
            assert any(ray[col] == 0 for ray in rays)
    assert [_unit_scale(r) for r in rays] == fraction_candidate_rays(v, w, n)


def fraction_rank(rows):
    """Rank by Fraction Gaussian elimination."""
    grid, rank = [[Fraction(x) for x in row] for row in rows], 0
    for col in range(len(grid[0]) if grid else 0):
        pivot = next((r for r in range(rank, len(grid)) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for r in range(rank + 1, len(grid)):
            factor = grid[r][col] / grid[rank][col]
            grid[r] = [a - factor * b for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


@st.composite
def domino_pieces(draw):
    n = draw(st.integers(3, 9))
    entries = st.integers(-3, 3)
    return n, [(draw(st.integers(1, n - 1)), draw(st.lists(entries, min_size=n, max_size=n)))
               for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=200, deadline=None)
@given(domino_pieces(), st.lists(st.fractions().filter(bool), min_size=4, max_size=4))
def test_independent_is_the_rank_of_the_domino_vectors(case, scales):
    # each domino as the assemblies built it: v's two entries times a nonzero rational
    n, pieces = case
    vectors = [[scale * v[j] if i - 1 <= j <= i else 0 for j in range(n)]
               for (i, v), scale in zip(pieces, scales)]
    assert _independent(n, pieces) == (fraction_rank(vectors) == len(pieces))


def _triples(n):
    return [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)]


# ----------------------------------------------------------------------
# domino bases


def template_residuals(rows, path):
    """Each row minus the part its template copies (the last place, or an
    earlier row's first domino), with the signs the four own entries need."""
    n, k = path.n, path.k
    _, _, up_i, down_i = dyck_step_labels(path)
    ups_pos = [x for x, ch in enumerate(path.steps) if ch == "+"]
    heights = path.heights
    out, firsts = [], []
    for i0, ((u, dn), row) in enumerate(zip(zip(up_i, down_i), rows)):
        step = ups_pos[u - 1]
        residual = list(row)
        if heights[step] == 0:
            residual[n - 1] -= 1 if (k - i0 - 1) % 2 == 0 else -1
        else:
            prior = [p for p in ups_pos if p < step and heights[p + 1] == heights[step]]
            ip = up_i.index(ups_pos.index(prior[-1]) + 1)
            sign = 1 if (i0 - ip - 1) % 2 == 0 else -1
            residual[up_i[ip] - 1] -= sign * firsts[ip][0]
            residual[up_i[ip]] -= sign * firsts[ip][1]
        eps = 1 if sum(1 for x in up_i if u < x < dn) % 2 == 0 else -1
        firsts.append((residual[u - 1], residual[u]))
        out.append((residual, (u - 1, u, dn - 1, dn), (1, 1, eps, eps)))
    return out


def test_p_domino_rows_span_the_sample_and_fit_the_template():
    checked = 0
    for n in range(5, 10):
        for k in range(1, min(3, n - 4) + 1):
            for index, path in enumerate(enumerate_dyck_paths(n, k)):
                point = sample_cell(le_normalize(omega_LD(omega_PL(path))), 31 * index + n)
                rows = p_domino_basis(point.matrix, path)
                if rows is None:
                    assert k == 3  # rank-3 solvability is open
                    continue
                assert gr_equal(plucker(RationalMatrix(tuple(rows))), plucker(point.matrix))
                for residual, cols, signs in template_residuals(rows, path):
                    assert all(x == 0 for j, x in enumerate(residual) if j not in cols)
                    assert all(s * residual[c] > 0 for c, s in zip(cols, signs))
                checked += 1
    assert checked > 100


def test_p_domino_basis_is_the_fraction_solve():
    # every cell of the sweep with n <= 9, three seeds each
    rng = random.Random(3)
    outcomes = set()
    for n in range(5, 10):
        for k in range(1, min(3, n - 4) + 1):
            for index, path in enumerate(enumerate_dyck_paths(n, k)):
                cell = le_normalize(omega_LD(omega_PL(path)))
                for seed in range(3):
                    matrix = sample_cell(cell, 1_009 * index + 10 * n + seed).matrix
                    rows = p_domino_basis(matrix, path)
                    assert rows == fraction_p_domino_basis(matrix, path)
                    assert rows is None or all(isinstance(x, Fraction) for r in rows for x in r)
                    outcomes.add(rows is None)
                # a random subspace rarely fits the template: the None returns
                grid = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
                if len(_eliminate([list(r) for r in grid])[0]) == k:
                    matrix = RationalMatrix(tuple(map(tuple, grid)))
                    rows = p_domino_basis(matrix, path)
                    assert rows == fraction_p_domino_basis(matrix, path)
                    outcomes.add(rows is None)
    assert outcomes == {True, False}
    # the unique solution here has p = q = 0: no positive domino fits
    path = next(p for p in enumerate_dyck_paths(5, 1) if p.to_json() == "UUDD")
    matrix = RationalMatrix(((0, 0, 1, 0, 1),))
    assert p_domino_basis(matrix, path) is None is fraction_p_domino_basis(matrix, path)


# ----------------------------------------------------------------------
# network matrices


@cache
def _cells():
    """Built on first use, so a fault in building them fails only the tests that use them."""
    return [le_normalize(d) for d in enumerate_diagrams(8, 2, 4)] + enumerate_diagrams(7, 3, 2)


@settings(max_examples=200, deadline=None)
@given(st.deferred(lambda: st.sampled_from(_cells())), st.data())
def test_network_matrix_against_fraction_path_sums(cell, data):
    network = build_network(cell)
    values = {name: data.draw(st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)))
              for name in network.variables}
    got = network.matrix(values)
    assert got == fraction_path_sums(network, values)
    assert all(isinstance(x, Fraction) for row in got for x in row)


def _fillings(width, above):
    """The {0, +} rows of one length where no 0 has a + to its left and a
    + above it (``above``: the columns with a + in an earlier row)."""
    rows = [""]
    for c in range(width):
        rows = [row + x for row in rows for x in "0+"
                if x == "+" or c not in above or "+" not in row]
    return rows


def _le_diagrams(k, n, rows=(), above=frozenset()):
    """Every sorted diagram of Gr(k, n), built row by row."""
    if len(rows) == k:
        yield OPlusDiagram.from_rows(k, n, rows)
        return
    for width in range(len(rows[-1]) if rows else n - k, -1, -1):
        for row in _fillings(width, above):
            plus = {c for c, x in enumerate(row) if x == "+"}
            yield from _le_diagrams(k, n, rows + (row,), above | plus)


def test_network_plan_is_the_inline_set_up():
    # every sorted diagram with n <= 7 (one per decorated permutation), and
    # every cell the samplers draw from with n = 8
    rng = random.Random(5)
    cells = [d for n in range(1, 8) for k in range(n + 1) for d in _le_diagrams(k, n)]
    assert len(cells) == sum(math.factorial(n) // math.factorial(j)
                             for n in range(1, 8) for j in range(n + 1))
    cells += [d for k in range(7) for d in enumerate_diagrams(8, k, 2)]
    cells += [le_normalize(d) for k in range(5) for d in enumerate_diagrams(8, k, 4)]
    for index, cell in enumerate(cells):
        network = build_network(cell)
        assert network._plan == inline_plan(network)
        if index % 16 == 0 or cell.n == 8:  # the integer sums on the plan, sampled
            values = {name: Fraction(rng.randint(1, 50), rng.randint(1, 50))
                      for name in network.variables}
            assert network.matrix(values) == fraction_path_sums(network, values)


def test_network_matrix_of_ones():
    for cell in _cells():
        network = build_network(cell)
        assert network.matrix(network.ones()) == fraction_path_sums(network, network.ones())


# ----------------------------------------------------------------------
# pinned outputs

# sha256 of the outputs below, recorded with the Fraction candidate rays,
# domino solves and path sums that the integer core replaced
REPORTS_SHA256 = "857de2389cc9a7f374927099d44c0b3992965d2d4aa6fa05e12afa2dbd4d26c1"
BASES_SHA256 = "d3fdb6df3f19f9305dbee2c7212c25fd3482924ca48d3b818eb977774ab85274"


def _strs(v):
    return [str(x) for x in v]


def test_reports_are_pinned():
    digest = hashlib.sha256()
    for report in (
        disjointness_experiment(10, 2, 4, samples=2, seed=7),
        disjointness_experiment(9, 4, 2, samples=1, seed=8),
        disjointness_experiment(8, 3, 2, samples=2, seed=9),
        conjecture_sweeps(8, samples=1, seed=4),
        m3_counterexample(seed=0),
    ):
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == REPORTS_SHA256


def test_samples_and_bases_are_pinned():
    digest = hashlib.sha256()
    for index, diagram in enumerate(enumerate_diagrams(9, 2, 4)):
        sample = sample_cell(le_normalize(diagram), index)
        c = standard_basis_k2(sample.matrix, diagram)
        digest.update(json.dumps([sample.to_json(), c.cell_class, c.flavor, _strs(c.d),
                                  _strs(c.e), [d.to_json() for d in c.dominoes],
                                  list(c.indices)], sort_keys=True).encode())
    for n in range(5, 9):
        for k in range(1, min(2, n - 4) + 1):
            for index, path in enumerate(enumerate_dyck_paths(n, k)):
                cell = le_normalize(omega_LD(omega_PL(path)))
                rows = p_domino_basis(sample_cell(cell, index).matrix, path)
                digest.update(json.dumps(None if rows is None else [_strs(r) for r in rows])
                              .encode())
    assert digest.hexdigest() == BASES_SHA256


# ----------------------------------------------------------------------
# k = 2 bases made on first read


def eager_basis_fields(basis):
    """d, e and the dominoes of a built basis as ``standard_basis_k2`` made them
    before they were made on first read: from its rays, by checked constructors."""
    (dray, eray), (i1, i2, i3, i4) = basis._rays, basis.indices
    n = len(dray)
    d = _unit_scale(dray)
    if basis.flavor == "orthodox":
        e = _unit_scale(eray)
        return d, e, (
            Domino(n, i1, (d[i1 - 1], d[i1])),
            Domino(n, i2, (d[i2 - 1], d[i2])),
            Domino(n, i3, (e[i3 - 1], e[i3])),
            Domino(n, i4, (e[i4 - 1], e[i4])),
        )
    p0, p1, lead = dray[i1 - 1], dray[i1], eray[i1 - 1]
    den = p0 * lead
    g = [p0 * x for x in eray]
    g[i1 - 1] -= den
    g[i1] -= lead * p1
    return d, tuple(Fraction(x, lead) for x in eray), (
        Domino(n, i1, (d[i1 - 1], d[i1])),
        Domino(n, i2, (Fraction(g[i2 - 1], den), Fraction(g[i2], den))),
        Domino(n, i3, (Fraction(g[i3 - 1], den), Fraction(g[i3], den))),
        Domino(n, i4, (-d[i4 - 1], -d[i4])),
    )


def assert_lazy_bases_match_eager(n, seeds):
    """Every basis of the (n, 2, 4) family's samples: fields made on first read
    equal the eager ones, its dominoes their checked rebuilds, and the record a
    checked twin; returns the flavors seen."""
    flavors = set()
    for ci, diagram in enumerate(enumerate_diagrams(n, 2, 4)):
        cell = le_normalize(diagram)
        for seed in seeds:
            matrix = sample_cell(cell, seed * 1_000 + ci).matrix
            basis, unlabeled = standard_basis_k2(matrix, diagram), standard_basis_k2(matrix)
            assert not {"d", "e", "dominoes"} & (vars(basis).keys() | vars(unlabeled).keys())
            d, e, dominoes = eager_basis_fields(basis)
            assert (basis.d, basis.e, basis.dominoes) == (d, e, dominoes)
            assert [repr(x) for x in (basis.d, basis.e, basis.dominoes)] \
                == [repr(x) for x in (d, e, dominoes)]
            assert all(Domino(x.n, x.index, x.values) == x for x in basis.dominoes)
            twin = K2Classification(basis.cell_class, basis.flavor, d, e, dominoes, basis.indices)
            assert basis == twin == unlabeled and hash(basis) == hash(twin) == hash(unlabeled)
            assert repr(basis) == repr(twin) == repr(unlabeled) and basis.n == n
            flavors.add(basis.flavor)
    return flavors


def test_lazy_k2_bases_match_the_eager_construction():
    flavors = set()
    for n in range(6, 11):
        flavors |= assert_lazy_bases_match_eager(n, seeds=(1, 2))
    assert flavors == {"orthodox", "deviant"}
    basis = standard_basis_k2(sample_cell(le_normalize(enumerate_diagrams(7, 2, 4)[0]), 3).matrix)
    with pytest.raises(AttributeError):
        getattr(basis, "missing")
    with pytest.raises(AttributeError):
        getattr(K2Classification.__new__(K2Classification), "d")
