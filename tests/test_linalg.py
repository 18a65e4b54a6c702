import itertools
import random
import time
from fractions import Fraction

import pytest

from positroids.diagrams import (
    OPlusDiagram,
    enumerate_diagrams,
    le_normalize,
    pipe_dream_permutation,
)
from positroids.errors import (
    BadRange,
    MissingVariable,
    NotTotallyPositive,
    RankDeficient,
    RankLoss,
    ShapeMismatch,
)
from positroids.linalg import (
    CellSample,
    GrassmannPoint,
    RationalMatrix,
    find_kernel_vector_with_signs,
    gr_equal,
    kernel_basis,
    make_tp_matrix,
    parameterize,
    plucker,
    positroid_membership,
    rref,
    sample_cell,
    z_map,
)
from positroids.plabic import build_network

TEN = OPlusDiagram.from_rows(4, 10, ["0+0+0", "+++++", "000", "++"])
SECTION = OPlusDiagram.from_rows(3, 6, ["+0+", "+0+", "++"])

TEN_AT_ONES = (
    (0, 1, 0, 0, -1, 0, 1, 0, -2, -4),
    (0, 0, 1, 1, 1, 0, -1, 0, 1, 2),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
)


# independent positroid oracle: Grassmann necklace of the trip
# permutation, then Gale dominance in every cyclic order


def _anti_excedances(pi):
    out = {i for i in range(1, pi.n + 1) if pi.inverse_image(i) > i}
    return out | set(pi.white_fixed)


def _gale_dominated(lower, upper, a, n):
    def key(x):
        return (x - a) % n

    lo = sorted(lower, key=key)
    up = sorted(upper, key=key)
    return all(key(x) <= key(y) for x, y in zip(lo, up))


def positroid_oracle(diagram):
    pi = pipe_dream_permutation(diagram)
    n = pi.n
    current = _anti_excedances(pi)
    stops = []
    for a in range(1, n + 1):
        stops.append((a, frozenset(current)))
        if a in current:
            current = (current - {a}) | {pi(a)}
    k = len(stops[0][1])
    return frozenset(
        s
        for s in itertools.combinations(range(1, n + 1), k)
        if all(_gale_dominated(ia, s, a, n) for a, ia in stops)
    )


def var_of(v):
    signs = [1 if x > 0 else -1 for x in v if x]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def apply_rows(matrix, vector):
    return [
        sum((row[j] * vector[j] for j in range(matrix.cols)), Fraction(0))
        for row in matrix.entries
    ]


class TestRationalMatrix:
    def test_coercion(self):
        m = RationalMatrix((("1/2", 1), (-3, "7/4")))
        assert m.entries == (
            (Fraction(1, 2), Fraction(1)),
            (Fraction(-3), Fraction(7, 4)),
        )

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            RationalMatrix(((0.5,),))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RationalMatrix(((1, 2), (3,)))
        with pytest.raises(ValueError):
            RationalMatrix(((1, 2),), cols=3)

    def test_empty_shapes(self):
        empty = RationalMatrix((), cols=4)
        assert (empty.rows, empty.cols) == (0, 4)
        assert empty.transpose().rows == 4
        assert empty.transpose().cols == 0

    def test_matmul(self):
        a = RationalMatrix(((1, 2), (0, 1)))
        b = RationalMatrix(((1, 0), (3, 1)))
        assert (a @ b).entries == ((7, 2), (3, 1))
        with pytest.raises(ShapeMismatch):
            a @ RationalMatrix(((1, 2, 3),))

    def test_det(self):
        assert RationalMatrix(((2, 1), (1, 1))).det() == 1
        assert RationalMatrix(((1, 2), (2, 4))).det() == 0
        with pytest.raises(ShapeMismatch):
            RationalMatrix(((1, 2),)).det()

    def test_json_round_trip(self):
        m = RationalMatrix((("-2/3", 5),))
        data = m.to_json()
        assert data == [["-2/3", "5"]]
        assert RationalMatrix.from_json(data) == m

    def test_json_float_rejected(self):
        with pytest.raises(TypeError):
            RationalMatrix.from_json([[1.5, 1, 1]])

    def test_json_containers_are_lists(self):
        for data in ("1", {"123": 0}, ["123"], [{"1": 0}]):
            with pytest.raises(TypeError, match="expected a list"):
                RationalMatrix.from_json(data)

    def test_decimal_exponent_bounded(self):
        # as far as int() reads a literal: 4300 digits by default
        for text in ("1e4300", "1E-4300", " 2.5e+4300 "):
            assert RationalMatrix.from_json([[text]]).entries[0][0] > 0
        for text in ("1e4301", "1e-4301", "1E+3000000", "1e" + "9" * 5000):
            with pytest.raises(ValueError):
                RationalMatrix.from_json([[text]])


class TestRref:
    def test_pivots(self):
        reduced, pivots = rref(RationalMatrix(((1, 2, 3), (2, 4, 8))))
        assert pivots == (0, 2)
        assert reduced.entries == ((1, 2, 0), (0, 0, 1))

    def test_zero_rows(self):
        _, pivots = rref(RationalMatrix((), cols=3))
        assert pivots == ()


class TestPlucker:
    def test_identity_block(self):
        p = plucker(RationalMatrix(((1, 0, 0, 0), (0, 1, 0, 0))))
        assert p.support == {(1, 2)}
        assert p.entry((1, 2)) == 1

    def test_lex_order(self):
        p = plucker(RationalMatrix(((1, 0, 0), (0, 0, 1))))
        assert p.subsets() == [(1, 2), (1, 3), (2, 3)]
        assert p.coords == (0, 1, 0)

    def test_projective_invariance(self):
        m = RationalMatrix(((1, 2, 3, 4), (4, 3, 2, 1)))
        scaled = RationalMatrix(
            (tuple(Fraction(7, 3) * x for x in m.entries[0]), m.entries[1])
        )
        sheared = RationalMatrix(
            (m.entries[0], tuple(a + 5 * b for a, b in zip(m.entries[1], m.entries[0])))
        )
        assert gr_equal(plucker(m), plucker(scaled))
        assert gr_equal(plucker(m), plucker(sheared))

    def test_three_term_relation(self):
        rng = random.Random(7)
        for _ in range(5):
            m = RationalMatrix(
                tuple(
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
                    for _ in range(2)
                )
            )
            try:
                p = plucker(m)
            except RankDeficient:
                continue
            d = p.entry
            assert d((1, 3)) * d((2, 4)) == d((1, 2)) * d((3, 4)) + d((1, 4)) * d((2, 3))

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            plucker(RationalMatrix(((0, 0, 0), (0, 0, 0))))
        with pytest.raises(RankDeficient):
            plucker(RationalMatrix(((1, 2, 3), (2, 4, 6))))

    def test_json_round_trip(self):
        p = plucker(RationalMatrix(((1, 0, 2), (0, 1, -1))))
        data = p.to_json()
        assert set(data["plucker"]) <= {"1,2", "1,3", "2,3"}
        assert GrassmannPoint.from_json(data) == p

    def test_json_float_rejected(self):
        with pytest.raises(TypeError):
            GrassmannPoint.from_json({"k": 1, "n": 2, "plucker": {"1": 1, "2": 0.5}})

    def test_json_round_trip_of_rank_zero(self):
        p = GrassmannPoint(0, 3, (1,))
        assert p.to_json()["plucker"] == {"": "1"}
        assert GrassmannPoint.from_json(p.to_json()) == p

    @pytest.mark.parametrize("k, n", [(True, 2), (1, False), (1, 2.0), ("1", 2)])
    def test_json_sizes_must_be_integers(self, k, n):
        with pytest.raises(TypeError):
            GrassmannPoint.from_json({"k": k, "n": n, "plucker": {"1": "1"}})

    @pytest.mark.parametrize("k, n", [(-1, 2), (3, 2), (10, 60)])
    def test_json_sizes_out_of_range(self, k, n):
        with pytest.raises(BadRange):
            GrassmannPoint.from_json({"k": k, "n": n, "plucker": {"1": "1"}})

    def test_json_huge_grassmannian_refused_at_once(self):
        # C(60, 10) is about 7.5e10: refused before any subset is listed
        start = time.perf_counter()
        with pytest.raises(BadRange):
            GrassmannPoint.from_json({"k": 10, "n": 60, "plucker": {"1,2,3,4,5,6,7,8,9,10": "1"}})
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("key", ["7", "2,1", "1,1", "1,2,3", "0,1", "1, 2", "01,2", "", "1,"])
    def test_json_keys_must_be_increasing_subsets(self, key):
        # each of these used to be dropped or misread without a word
        with pytest.raises(BadRange):
            GrassmannPoint.from_json({"k": 2, "n": 3, "plucker": {"1,2": "1", key: "5"}})

    def test_not_all_zero(self):
        with pytest.raises(ValueError):
            GrassmannPoint(1, 2, (0, 0))


class TestParameterize:
    def test_ten_point_matrix(self):
        m = parameterize(TEN, build_network(TEN).ones())
        assert m.entries == tuple(tuple(map(Fraction, row)) for row in TEN_AT_ONES)

    def test_unit_columns_at_sources(self):
        m = parameterize(TEN, build_network(TEN).ones())
        for row, s in enumerate(build_network(TEN).sources):
            assert m.entries[row][s - 1] == 1

    def test_six_point_symbolic(self):
        rng = random.Random(3)
        for _ in range(4):
            vals = {
                f"a{i}": Fraction(rng.randint(1, 30), rng.randint(1, 30))
                for i in range(1, 7)
            }
            m = parameterize(SECTION, vals)
            assert m.entries[0][5] == vals["a1"] * (vals["a2"] + vals["a4"])

    def test_empty_diagram(self):
        m = parameterize(OPlusDiagram.from_rows(0, 4, []), {})
        assert (m.rows, m.cols) == (0, 4)

    def test_missing_variable(self):
        vals = build_network(TEN).ones()
        del vals["a7"]
        with pytest.raises(MissingVariable):
            parameterize(TEN, vals)

    def test_float_value_is_refused(self):
        with pytest.raises(TypeError):
            parameterize(SECTION, {f"a{i}": 0.1 for i in range(1, 7)})

    @pytest.mark.parametrize("m,n_max", [(2, 6), (4, 7)])
    def test_support_matches_necklace_positroid(self, m, n_max):
        lo = 2 if m == 2 else 4
        for n in range(lo, n_max + 1):
            for k in range(0, n - m + 1):
                for diagram in enumerate_diagrams(n, k, m):
                    cell = le_normalize(diagram)
                    ones = build_network(cell).ones()
                    point = plucker(parameterize(cell, ones))
                    assert all(x >= 0 for x in point.coords)
                    assert point.support == positroid_oracle(cell)


class TestMembership:
    def test_own_cell(self):
        for k in range(1, 4):
            for diagram in enumerate_diagrams(5, k, 2):
                for seed in (1, 2):
                    s = sample_cell(diagram, seed)
                    assert positroid_membership(s.matrix, diagram)

    def test_wrong_cell(self):
        d_small, d_big = enumerate_diagrams(4, 1, 2)
        assert not positroid_membership(sample_cell(d_small, 5).matrix, d_big)
        assert not positroid_membership(sample_cell(d_big, 5).matrix, d_small)

    def test_sign_violation(self):
        top = OPlusDiagram.from_rows(2, 3, ["+", "+"])
        good = RationalMatrix(((1, 1, 0), (0, 1, 1)))
        bad = RationalMatrix(((1, -1, 0), (0, 1, 1)))
        assert positroid_membership(good, top)
        assert not positroid_membership(bad, top)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            positroid_membership(RationalMatrix(((0,) * 10,) * 4), TEN)

    def test_shape_mismatch(self):
        row = OPlusDiagram.from_rows(1, 3, ["++"])
        with pytest.raises(ShapeMismatch):
            positroid_membership(RationalMatrix(((1, 1),)), row)
        with pytest.raises(ShapeMismatch):
            positroid_membership(RationalMatrix(((1, 1, 1), (0, 1, 2))), row)
        # the shape is checked before any minor, so rank cannot mask it
        with pytest.raises(ShapeMismatch):
            positroid_membership(RationalMatrix(((0, 0, 0), (0, 0, 0))), TEN)


class TestMakeTP:
    def test_default_vandermonde(self):
        z = make_tp_matrix(5, 12)
        assert z.entries[0] == tuple(Fraction(1) for _ in range(12))
        assert z.entries[2][3] == 16
        assert all(x > 0 for x in plucker(z).coords)

    def test_cached(self):
        assert make_tp_matrix(5, 12) is make_tp_matrix(5, 12)

    def test_square(self):
        assert make_tp_matrix(3, 3).det() > 0

    def test_repeated_nodes(self):
        with pytest.raises(NotTotallyPositive):
            make_tp_matrix(2, 2, nodes=(3, 3))

    def test_too_many_rows(self):
        with pytest.raises(ValueError):
            make_tp_matrix(3, 2)


class TestZMap:
    def test_square_z_injective_on_samples(self):
        z = make_tp_matrix(4, 4)
        diagram = enumerate_diagrams(4, 2, 2)[0]
        p1 = z_map(z, sample_cell(diagram, 1).matrix)
        p2 = z_map(z, sample_cell(diagram, 2).matrix)
        assert (p1.k, p1.n) == (2, 4)
        assert not gr_equal(p1, p2)

    def test_k_zero(self):
        z = make_tp_matrix(3, 7)
        p = z_map(z, RationalMatrix((), cols=7))
        assert (p.k, p.n) == (0, 3)
        assert p.coords == (Fraction(1),)

    def test_rank_loss(self):
        z = make_tp_matrix(4, 4)
        with pytest.raises(RankLoss):
            z_map(z, RationalMatrix(((1, 1, 1, 1), (2, 2, 2, 2))))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            z_map(make_tp_matrix(4, 4), RationalMatrix(((1, 0, 0),)))


class TestGrEqual:
    def test_shape_mismatch(self):
        a = plucker(RationalMatrix(((1, 0), (0, 1))))
        b = plucker(RationalMatrix(((1, 0, 0), (0, 1, 0))))
        with pytest.raises(ShapeMismatch):
            gr_equal(a, b)

    def test_same_cell_different_samples_differ(self):
        diagram = enumerate_diagrams(5, 2, 2)[1]
        p1 = plucker(sample_cell(diagram, 1).matrix)
        p2 = plucker(sample_cell(diagram, 2).matrix)
        assert not gr_equal(p1, p2)


class TestKernel:
    def test_tp_kernel(self):
        z = make_tp_matrix(5, 12)
        basis = kernel_basis(z)
        assert len(basis) == 7
        for v in basis:
            assert all(x.denominator == 1 for x in v)
            assert all(x == 0 for x in apply_rows(z, v))

    def test_full_rank_square(self):
        assert kernel_basis(make_tp_matrix(3, 3)) == []

    def test_kernel_sign_variation(self):
        z = make_tp_matrix(5, 12)
        basis = kernel_basis(z)
        rng = random.Random(11)
        for _ in range(50):
            coeffs = [rng.randint(-5, 5) for _ in basis]
            v = [
                sum(c * u[t] for c, u in zip(coeffs, basis))
                for t in range(12)
            ]
            if any(v):
                assert var_of(v) >= 5


class TestSignSearch:
    def test_recovers_pattern(self):
        z = make_tp_matrix(5, 12)
        basis = kernel_basis(z)
        probe = [sum(u[t] for u in basis) + 3 * basis[0][t] for t in range(12)]
        assert all(probe)
        pattern = ["+" if x > 0 else "-" for x in probe]
        v = find_kernel_vector_with_signs(z, "".join(pattern))
        assert v is not None
        assert all(x == 0 for x in apply_rows(z, v))
        assert all((x > 0) == (p == "+") for x, p in zip(v, pattern))

    def test_alternating_blocks(self):
        v = find_kernel_vector_with_signs(make_tp_matrix(5, 12), "++--++--++--")
        assert v is not None
        assert all(x == 0 for x in apply_rows(make_tp_matrix(5, 12), v))
        assert var_of(v) >= 5

    @pytest.mark.parametrize("pattern", ["+" * 12, "+" * 6 + "-" * 6, "+++---+++---"])
    def test_too_few_changes(self, pattern):
        assert find_kernel_vector_with_signs(make_tp_matrix(5, 12), pattern) is None

    def test_pattern_validation(self):
        z = make_tp_matrix(2, 4)
        with pytest.raises(ValueError):
            find_kernel_vector_with_signs(z, "++")
        with pytest.raises(ValueError):
            find_kernel_vector_with_signs(z, "+0-+")


class TestSampling:
    def test_deterministic(self):
        a = sample_cell(TEN, 9)
        b = sample_cell(TEN, 9)
        assert a.values == b.values and a.matrix == b.matrix

    def test_positive_values_enforced(self):
        with pytest.raises(ValueError):
            CellSample(TEN, {"a1": Fraction(-1)}, RationalMatrix((), cols=10))

    def test_parameterize_injective_in_values(self):
        for k in range(1, 4):
            for diagram in enumerate_diagrams(5, k, 2):
                p1 = plucker(sample_cell(diagram, 21).matrix)
                p2 = plucker(sample_cell(diagram, 22).matrix)
                assert not gr_equal(p1, p2)

    def test_row_combinations_bound_sign_changes(self):
        rng = random.Random(4)
        for diagram in (TEN, SECTION):
            sample = sample_cell(diagram, 8)
            k = sample.matrix.rows
            for _ in range(25):
                coeffs = [rng.randint(-4, 4) for _ in range(k)]
                v = [
                    sum(
                        (c * row[j] for c, row in zip(coeffs, sample.matrix.entries)),
                        Fraction(0),
                    )
                    for j in range(sample.matrix.cols)
                ]
                if any(v):
                    assert var_of(v) <= k - 1

    def test_json(self):
        data = sample_cell(SECTION, 3).to_json()
        assert set(data) == {"diagram", "values", "matrix"}
        assert set(data["values"]) == {f"a{i}" for i in range(1, 7)}
