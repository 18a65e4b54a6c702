import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids.catalan import DyckPath, dyck_step_labels, enumerate_dyck_paths, omega_PL
from positroids.diagrams import (
    OPlusDiagram,
    enumerate_diagrams,
    le_normalize,
    omega_LD,
)
from positroids.errors import (
    NotInSpan,
    NotK2BCFW,
    ShapeMismatch,
    SumMismatch,
    TemplateMismatch,
)
from positroids.linalg import (
    RationalMatrix,
    kernel_basis,
    make_tp_matrix,
    positroid_membership,
    rref,
    sample_cell,
)
from positroids.signs import (
    Domino,
    add_single_bound,
    alternating_domino_sequence,
    classify_k2,
    dom_coordinates,
    dom_decomposition,
    domino_decompose_sum_bound,
    is_domino,
    m2_standard_basis,
    p_domino_basis,
    shuffle_check,
    sign_string,
    standard_basis_k2,
    var,
    var_bar,
)

WORKED_C3 = OPlusDiagram.from_rows(2, 7, ["+0+++", "++++"])
WORKED_C8 = OPlusDiagram.from_rows(2, 7, ["+++0+", "+0+++"])

ORTHODOX_FULL = {"++++", "----", "++--", "--++"}
DEVIANT_FULL = {"+++-", "---+", "-+++", "+---", "++++", "----"}


def vectors(max_len=10):
    return st.lists(st.integers(-6, 6), min_size=1, max_size=max_len)


def brute_var_bar(v):
    zero_at = [j for j, x in enumerate(v) if x == 0]
    best = 0
    for fill in itertools.product((1, -1), repeat=len(zero_at)):
        w = list(v)
        for j, s in zip(zero_at, fill):
            w[j] = s
        best = max(best, var(w))
    return best


class TestVar:
    def test_examples(self):
        assert var((1, 0, -4, 2)) == 2
        assert var((1, 0, 0, 1, -1)) == 1
        assert var_bar((1, 0, 0, 1, -1)) == 3

    def test_zero_vector(self):
        assert var((0,) * 6) == 0
        assert var_bar((0,) * 6) == 5

    @given(vectors())
    def test_sandwich(self, v):
        assert var(v) <= var_bar(v) <= len(v) - 1

    @given(vectors())
    def test_brute_force(self, v):
        assert var_bar(v) == brute_var_bar(v)

    @given(st.lists(st.integers(-6, 6).filter(lambda x: x != 0), min_size=1, max_size=10))
    def test_no_zeros_collapse(self, v):
        assert var(v) == var_bar(v)

    def test_sign_string(self):
        assert sign_string((3, 0, -1, 2)) == "+0-+"


class TestDomino:
    def test_negative_two_domino(self):
        d = Domino.from_vector((0, -1, -2, 0, 0))
        assert d.index == 2 and d.sign == "-" and d.values == (-1, -2)

    def test_spec_pair(self):
        assert is_domino((0, 0, 0, 6, 1, 0))
        assert is_domino((0, 0, 0, 0, 0, -2))
        assert Domino.from_vector((0, 0, 0, 0, 0, -2)).index == 6

    def test_lone_entry_needs_last_place(self):
        assert not is_domino((0, 0, 0, 0, 5, 0))
        assert is_domino((0, 0, 0, 0, 0, 5))

    def test_zero_vector_is_a_domino(self):
        d = Domino.from_vector((0, 0, 0, 0))
        assert d.sign == "0"

    def test_mixed_signs_rejected(self):
        assert not is_domino((0, 1, -1, 0))
        with pytest.raises(ValueError):
            Domino(4, 2, (1, -1))

    def test_vector_round_trip(self):
        d = Domino(6, 4, (Fraction(6), Fraction(1)))
        assert d.vector() == (0, 0, 0, 6, 1, 0)
        assert Domino.from_vector(d.vector()) == d
        assert Domino.from_json(d.to_json()) == d

    def test_json_float_rejected(self):
        with pytest.raises(TypeError):
            Domino.from_json({"n": 6, "index": 4, "values": [0.5, 1]})

    @pytest.mark.parametrize("data", [
        {"n": "3", "index": 2, "values": ["1", "2"]},
        {"n": 3, "index": 2.9, "values": ["1", "2"]},
        {"n": True, "index": 1, "values": ["1"]},
        {"n": 3, "index": True, "values": ["1", "2"]},
    ], ids=["str-n", "float-index", "bool-n", "bool-index"])
    def test_json_integer_fields_are_not_coerced(self, data):
        # each payload is a valid domino once n and index are coerced to int
        with pytest.raises(TypeError):
            Domino.from_json(data)

    def test_json_values_are_a_list(self):
        # the string "12" read as a container is the domino with values 1, 2
        with pytest.raises(TypeError, match="expected a list"):
            Domino.from_json({"n": 3, "index": 2, "values": "12"})

    def test_scaled(self):
        d = Domino(5, 2, (1, 3)).scaled(-2)
        assert d.values == (-2, -6) and d.sign == "-"
        assert Domino(5, 2, (1, 3)).scaled(0).sign == "0"


class TestSumBound:
    def test_single(self):
        total, bound = domino_decompose_sum_bound([Domino(6, 4, (6, 1))])
        assert var(total) == 0 and bound == 0

    def test_spec_pair(self):
        ds = [Domino(6, 4, (6, 1)), Domino(6, 6, (-2,))]
        total, bound = domino_decompose_sum_bound(ds)
        assert total == (0, 0, 0, 6, 1, -2)
        assert var(total) == 1 <= bound

    def test_random_multisets(self):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(2, 10)
            ds = []
            for _ in range(rng.randint(1, 6)):
                i = rng.randint(1, n)
                a = rng.choice([-3, -2, -1, 1, 2, 3])
                b = a * rng.randint(1, 3)
                ds.append(Domino(n, i, (a,) if i == n else (a, b)))
            total, bound = domino_decompose_sum_bound(ds)
            assert var(total) <= bound

    def test_add_single(self):
        rng = random.Random(1)
        for _ in range(500):
            n = rng.randint(2, 9)
            v = [rng.randint(-3, 3) for _ in range(n)]
            i = rng.randint(1, n)
            a = rng.choice([-2, -1, 1, 2])
            d = Domino(n, i, (a,) if i == n else (a, a * rng.randint(1, 3)))
            w = [x + y for x, y in zip(v, d.vector())]
            assert var(w) <= var(v) + add_single_bound(v, d)

    def test_add_single_separated(self):
        d = Domino(6, 3, (1, 2))
        assert add_single_bound((0, 0, 0, 1, -1, 2), d) == 1
        assert add_single_bound((1, -1, 0, 0, 0, 0), d) == 1
        assert add_single_bound((1, 0, 0, 0, 0, 1), d) == 2


class TestClassifyK2:
    def test_singleton_family(self):
        (only,) = enumerate_diagrams(6, 2, 4)
        assert classify_k2(only) == 9

    def test_every_member_hits_exactly_one_template(self):
        for n in range(6, 11):
            family = enumerate_diagrams(n, 2, 4)
            for diagram in family:
                assert 1 <= classify_k2(diagram) <= 9

    def test_all_nine_appear(self):
        seen = set()
        for diagram in enumerate_diagrams(9, 2, 4):
            seen.add(classify_k2(diagram))
        assert seen == set(range(1, 10))

    def test_worked_cases(self):
        assert classify_k2(WORKED_C3) == 3
        assert classify_k2(WORKED_C8) == 8
        assert WORKED_C3 in enumerate_diagrams(7, 2, 4)
        assert WORKED_C8 in enumerate_diagrams(7, 2, 4)

    def test_counterexample_diagrams_are_class_6(self):
        d1 = OPlusDiagram.from_rows(2, 13, ["+++0000000+", "+00++00+"])
        d2 = OPlusDiagram.from_rows(2, 13, ["+++0000000+", "+0000++00+"])
        assert classify_k2(d1) == 6
        assert classify_k2(d2) == 6

    def test_rejects_other_shapes(self):
        with pytest.raises(NotK2BCFW):
            classify_k2(OPlusDiagram.from_rows(3, 7, ["++++", "+++", "++"]))
        with pytest.raises(NotK2BCFW):
            classify_k2(OPlusDiagram.from_rows(2, 7, ["+++++", "+++"]))
        with pytest.raises(NotK2BCFW):
            classify_k2(OPlusDiagram.from_rows(2, 6, ["0000", "0000"]))


NUMERIC_FIXTURE = RationalMatrix(
    [
        [0, 0, 3, 7, 0, 1, 2, 0, 0, 0, -5],
        [0, 0, 0, 0, 0, 1, 4, 1, 2, 0, 2],
    ]
)


class TestStandardBasisK2:
    def test_numeric_fixture(self):
        c = standard_basis_k2(NUMERIC_FIXTURE)
        assert c.cell_class == 3 and c.flavor == "orthodox"
        assert c.indices == (3, 6, 6, 8)
        assert sign_string(c.d) == "00++0++000-"
        assert sign_string(c.e) == "00000++++0+"

    def test_numeric_fixture_lives_in_one_class_3_cell(self):
        homes = []
        for diagram in enumerate_diagrams(11, 2, 4):
            if positroid_membership(NUMERIC_FIXTURE, le_normalize(diagram)):
                homes.append(diagram)
        assert len(homes) == 1
        assert classify_k2(homes[0]) == 3
        c = standard_basis_k2(NUMERIC_FIXTURE, homes[0])
        assert c.indices == (3, 6, 6, 8)

    def test_worked_class_3(self):
        assert WORKED_C3.sources() == (1, 3)
        c = standard_basis_k2(sample_cell(WORKED_C3, rng=2).matrix, WORKED_C3)
        assert c.cell_class == 3 and c.indices == (1, 3, 3, 5)
        assert sign_string(c.d) == "++++00-"
        assert sign_string(c.e) == "00+++++"

    def test_worked_class_8(self):
        normalized = le_normalize(WORKED_C8)
        assert normalized.rows == ("0++0+", "+++++")
        assert normalized.sources() == (1, 2)
        c = standard_basis_k2(sample_cell(normalized, rng=2).matrix, WORKED_C8)
        assert c.cell_class == 8 and c.flavor == "deviant"
        assert c.indices == (1, 2, 4, 5)
        assert sign_string(c.d) == "++00---"
        assert sign_string(c.e) == "+++++00"

    def test_every_cell_fits_its_template(self):
        for n in range(6, 10):
            for idx, diagram in enumerate(enumerate_diagrams(n, 2, 4)):
                cls = classify_k2(diagram)
                cell = le_normalize(diagram)
                for s in range(3):
                    sample = sample_cell(cell, rng=1000 * idx + 31 * n + s)
                    c = standard_basis_k2(sample.matrix, diagram)
                    assert c.cell_class == cls
                    i1, i2, i3, i4 = c.indices
                    if c.flavor == "orthodox":
                        assert i1 + 1 < i2 <= i3 < i4 - 1
                        assert c.d[-1] < 0 < c.e[-1]
                    else:
                        assert i1 + 1 < i2 + 1 < i3 <= i4
                        assert c.d[-1] < 0 == c.e[-1]
                    grid = RationalMatrix(tuple(d.vector() for d in c.dominoes))
                    assert len(rref(grid)[1]) == 4
                    assert all(d.sign == "+" for d in c.dominoes)

    def test_total_positivity_never_fits(self):
        with pytest.raises(TemplateMismatch):
            standard_basis_k2(make_tp_matrix(2, 7))

    def test_rank_one_rejected(self):
        with pytest.raises(TemplateMismatch):
            standard_basis_k2(RationalMatrix([[1, 2, 3], [2, 4, 6]]))

    def test_wrong_diagram_rejected(self):
        cells = {classify_k2(d): d for d in enumerate_diagrams(7, 2, 4)}
        sample = sample_cell(le_normalize(cells[9]), rng=0)
        with pytest.raises(TemplateMismatch):
            standard_basis_k2(sample.matrix, cells[4])


class TestDomCoordinates:
    @staticmethod
    def bases(n, seed=0):
        for idx, diagram in enumerate(enumerate_diagrams(n, 2, 4)):
            sample = sample_cell(le_normalize(diagram), rng=seed + idx)
            yield standard_basis_k2(sample.matrix, diagram)

    def test_spec_examples(self):
        for c in self.bases(7):
            if c.flavor == "orthodox":
                assert dom_coordinates(c, c.d) == "++00"
                assert dom_coordinates(c, c.e) == "00++"
            else:
                assert dom_coordinates(c, c.d) == "+00-"
                assert dom_coordinates(c, c.e) == "+++0"

    def test_full_support_patterns(self):
        rng = random.Random(4)
        for n in (7, 8, 9):
            for c in self.bases(n, seed=17 * n):
                allowed = ORTHODOX_FULL if c.flavor == "orthodox" else DEVIANT_FULL
                hits = 0
                while hits < 100:
                    a = Fraction(rng.randint(-20, 20))
                    b = Fraction(rng.randint(-20, 20))
                    if a == 0 or b == 0:
                        continue
                    v = tuple(a * x + b * y for x, y in zip(c.d, c.e))
                    pattern = dom_coordinates(c, v)
                    if "0" in pattern:
                        continue
                    hits += 1
                    assert pattern in allowed

    def test_small_support_vectors_are_standard(self):
        for c in self.bases(8, seed=3):
            d, e = c.d, c.e
            diff = tuple(x - y for x, y in zip(d, e))
            for a in range(-4, 5):
                for b in range(-4, 5):
                    if a == 0 or b == 0:
                        continue
                    v = tuple(a * x + b * y for x, y in zip(d, e))
                    vbar = v[:-1]
                    if sum(1 for x in vbar if x != 0) > 4:
                        continue
                    if c.flavor == "orthodox":
                        ok = _proportional(v, d) or _proportional(v, e)
                    else:
                        ok = _proportional(v, d) or _proportional(v, diff)
                    assert ok, (c.cell_class, a, b)

    def test_decomposition_reconstructs(self):
        for c in self.bases(8, seed=9):
            v = tuple(3 * x - 2 * y for x, y in zip(c.d, c.e))
            parts = dom_decomposition(c, v)
            total = [Fraction(0)] * c.n
            for d in parts:
                for j, x in enumerate(d.vector()):
                    total[j] += x
            assert tuple(total) == v[:-1] + (Fraction(0),)

    def test_not_in_span(self):
        # the dominoes span 4 dimensions, so at least n - 5 unit vectors
        # with their last entry zeroed must sit outside
        c = next(self.bases(7))
        raised = 0
        for j in range(c.n - 1):
            probe = [Fraction(0)] * c.n
            probe[j] = Fraction(1)
            try:
                dom_coordinates(c, probe)
            except NotInSpan:
                raised += 1
        assert raised >= c.n - 5


def _proportional(u, w):
    ratio = None
    for a, b in zip(u, w):
        if (a == 0) != (b == 0):
            return False
        if b != 0:
            r = a / b
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None


SECTION = OPlusDiagram.from_rows(3, 6, ["+0+", "+0+", "++"])


class TestM2StandardBasis:
    def test_every_cell(self):
        for n in range(4, 8):
            for k in range(1, n - 1):
                for idx, diagram in enumerate(enumerate_diagrams(n, k, 2)):
                    sources = diagram.sources()
                    for s in range(3):
                        sample = sample_cell(diagram, rng=77 * idx + 5 * n + s)
                        rows = m2_standard_basis(sample.matrix, diagram)
                        assert len(rows) == k
                        got = rref(RationalMatrix(tuple(rows)))[0].entries
                        assert got == rref(sample.matrix)[0].entries
                        for i, row in enumerate(rows, start=1):
                            src = sources[i - 1]
                            head = [Fraction(0)] * n
                            head[src - 1] = row[src - 1]
                            if src < n:
                                head[src] = row[src]
                            tail = [Fraction(0)] * n
                            tail[n - 1] = row[n - 1] - head[n - 1]
                            assert is_domino(head) and is_domino(tail)

    def test_worked_display(self):
        sample = sample_cell(SECTION, rng=5)
        rows = m2_standard_basis(sample.matrix, SECTION)
        assert rows[0][0] == 1 and rows[0][2] == 0
        assert sign_string(rows[0]) == "++000+"
        assert sign_string(rows[1]) == "0++00-"
        assert sign_string(rows[2]) == "000+++"
        # rows 2 and 3 are untouched by the clearing step
        reduced = rref(sample.matrix)[0]
        assert rows[1] == reduced.entries[1]
        assert rows[2] == reduced.entries[2]

    def test_last_column_signs_alternate(self):
        diagram = next(iter(enumerate_diagrams(7, 3, 2)))
        rows = m2_standard_basis(sample_cell(diagram, rng=1).matrix, diagram)
        signs = [1 if row[-1] > 0 else -1 for row in rows]
        assert signs == [1, -1, 1]

    def test_rank_deficient_rejected(self):
        with pytest.raises(TemplateMismatch):
            m2_standard_basis(
                RationalMatrix([[1, 0, 1, 0], [1, 0, 1, 0]]),
                OPlusDiagram.from_rows(2, 4, ["++", "+"]),
            )

    def test_row_count_must_be_k(self):
        # rank 1 like the diagram, but a second (proportional) row: refused
        # by shape before the elimination could drop the zero row
        with pytest.raises(ShapeMismatch):
            m2_standard_basis(
                RationalMatrix(((1, 1, 0, 1), (2, 2, 0, 2))),
                enumerate_diagrams(4, 1, 2)[0],
            )

    def test_wrong_sources_rejected(self):
        cells = enumerate_diagrams(6, 2, 2)
        src_groups = {}
        for d in cells:
            src_groups.setdefault(d.sources(), d)
        (a, b) = list(src_groups.values())[:2]
        sample = sample_cell(a, rng=0)
        with pytest.raises(TemplateMismatch):
            m2_standard_basis(sample.matrix, b)


SECTION_11 = {
    "d1": Domino(5, 1, (1, 1)),
    "d2": Domino(5, 2, (-3, -1)),
    "d3": Domino(5, 2, (1, 2)),
    "d4": Domino(5, 4, (-2, -4)),
}


class TestAlternatingSequence:
    def test_worked_example(self):
        ds = [SECTION_11[k] for k in ("d1", "d2", "d3", "d4")]
        v = (1, -1, 1, -2, -4)
        seq = alternating_domino_sequence(ds, v, (1, 2, 3, 5))
        assert seq == (
            SECTION_11["d1"],
            SECTION_11["d2"],
            SECTION_11["d3"],
            SECTION_11["d4"],
        )
        assert [d.index for d in seq] == [1, 2, 2, 4]

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            alternating_domino_sequence(
                [SECTION_11["d1"]], (1, 0, 0, 0, 0), (1,)
            )

    def test_non_alternating_target(self):
        ds = [SECTION_11[k] for k in ("d1", "d2", "d3", "d4")]
        v = (1, -1, 1, -2, -4)
        assert alternating_domino_sequence(ds, v, (1, 3)) is None

    @staticmethod
    def random_instance(rng):
        n = rng.randint(3, 8)
        ds = []
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(1, n)
            a = rng.choice([-2, -1, 1, 2])
            ds.append(Domino(n, i, (a,) if i == n else (a, a * rng.randint(1, 2))))
        total = [Fraction(0)] * n
        for d in ds:
            for j, x in enumerate(d.vector()):
                total[j] += x
        size = rng.randint(0, min(len(ds), n))
        indices = tuple(sorted(rng.sample(range(1, n + 1), size)))
        return ds, tuple(total), indices

    @staticmethod
    def brute_force(ds, v, indices):
        live = [d for d in ds if d.sign != "0"]
        for perm in itertools.permutations(range(len(live)), len(indices)):
            good = True
            prev = 0
            for place, t in zip(indices, perm):
                d = live[t]
                vec = d.vector()
                entry = vec[place - 1]
                need = (v[place - 1] > 0) - (v[place - 1] < 0)
                s = (entry > 0) - (entry < 0)
                if need == 0 or s != need or (prev and s == prev):
                    good = False
                    break
                prev = s
            if good:
                return True
        return False

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(1000):
            ds, v, indices = self.random_instance(rng)
            found = alternating_domino_sequence(ds, v, indices)
            expected = self.brute_force(ds, v, indices)
            assert (found is not None) == expected
            # existence matches strict alternation of v on the index set
            restricted = [v[i - 1] for i in indices]
            alternates = all(x != 0 for x in restricted) and var(restricted) == max(
                len(restricted) - 1, 0
            )
            if len(indices) <= len([d for d in ds if d.sign != "0"]):
                assert (found is not None) == alternates

    def test_delete_from_sum(self):
        rng = random.Random(13)
        checked = 0
        while checked < 200:
            ds, v, indices = self.random_instance(rng)
            seq = alternating_domino_sequence(ds, v, indices)
            if seq is None or not indices:
                continue
            checked += 1
            for jp in range(len(seq)):
                others = [t for t in range(len(seq)) if t != jp]
                for r in range(len(others) + 1):
                    for drop in itertools.combinations(others, r):
                        w = list(v)
                        for t in drop:
                            for j, x in enumerate(seq[t].vector()):
                                w[j] -= x
                        place = indices[jp]
                        target = seq[jp].vector()[place - 1]
                        rem = w[place - 1]
                        assert rem != 0 and (rem > 0) == (target > 0)


class TestShuffle:
    def test_pair_of_pairs(self):
        shuffles = [
            "abcd",
            "acbd",
            "acdb",
            "cabd",
            "cadb",
            "cdab",
        ]
        for word in shuffles:
            assert shuffle_check("ab", "cd", word)
        assert not shuffle_check("ab", "cd", "bacd")
        assert not shuffle_check("ab", "cd", "adbc")

    def test_count_distinct_symbols(self):
        n_found = sum(
            shuffle_check("abc", "de", "".join(word))
            for word in itertools.permutations("abcde")
        )
        from math import comb

        assert n_found == comb(5, 2)

    def test_length_mismatch(self):
        assert not shuffle_check("ab", "cd", "abc")

    def test_repeated_symbols(self):
        assert shuffle_check("aa", "ab", "aaab")
        assert shuffle_check("aa", "ab", "aaba")
        assert not shuffle_check("aa", "ab", "abbb")

    @given(
        st.lists(st.integers(0, 2), max_size=5),
        st.lists(st.integers(0, 2), max_size=5),
        st.data(),
    )
    def test_true_shuffles_accepted(self, s, t, data):
        # interleave by choosing a random source order
        order = data.draw(st.permutations([0] * len(s) + [1] * len(t)))
        it_s, it_t = iter(s), iter(t)
        u = [next(it_s) if side == 0 else next(it_t) for side in order]
        assert shuffle_check(s, t, u)


A5 = DyckPath("+++--++-+--+--+-+-")


def path_cell(path):
    return le_normalize(omega_LD(omega_PL(path)))


class TestPDominoBasis:
    def test_a5_labels(self):
        _, _, up_i, down_i = dyck_step_labels(A5)
        assert up_i == (1, 2, 4)
        assert down_i == (8, 4, 7)

    def test_a5_template(self):
        cell = path_cell(A5)
        for seed in range(5):
            rows = p_domino_basis(sample_cell(cell, rng=seed).matrix, A5)
            assert rows is not None
            v1, v2, v3 = rows
            assert sign_string(v1) == "++00000++00+"
            assert v1[11] == 1
            alpha, beta = v1[0], v1[1]
            assert v2[0] == alpha and v2[1] > beta
            assert v3[0] == -alpha and v3[1] == -beta
            assert sign_string(v2) == "+++++0000000"
            assert sign_string(v3) == "--0++0++0000"
            eta, theta = v2[3], v2[4]
            iota, kappa = v3[3], v3[4]
            assert eta * kappa > theta * iota

    def test_k1_support(self):
        for n in (5, 6, 7, 8):
            for idx, path in enumerate(enumerate_dyck_paths(n, 1)):
                rows = p_domino_basis(
                    sample_cell(path_cell(path), rng=idx).matrix, path
                )
                assert rows is not None
                (row,) = rows
                support = [j + 1 for j, x in enumerate(row) if x != 0]
                assert len(support) == 5 and support[-1] == n
                assert support[1] == support[0] + 1
                assert support[3] == support[2] + 1
                assert row[-1] == 1

    def test_k2_matches_standard_basis(self):
        for n in (6, 7, 8):
            for idx, path in enumerate(enumerate_dyck_paths(n, 2)):
                diagram = omega_LD(omega_PL(path))
                sample = sample_cell(le_normalize(diagram), rng=7 * idx + n)
                rows = p_domino_basis(sample.matrix, path)
                assert rows is not None
                c = standard_basis_k2(sample.matrix, diagram)
                for got, ref in zip(rows, (c.d, c.e)):
                    assert _proportional(got, ref)
                    lead = next(x for x in got if x != 0)
                    ref_lead = next(x for x in ref if x != 0)
                    assert (lead > 0) == (ref_lead > 0)

    def test_k3_small_sweep(self):
        solved = 0
        for n in (7, 8):
            for idx, path in enumerate(enumerate_dyck_paths(n, 3)):
                rows = p_domino_basis(
                    sample_cell(path_cell(path), rng=idx + n).matrix, path
                )
                if rows is not None:
                    solved += 1
                    grid = RationalMatrix(tuple(rows))
                    assert len(rref(grid)[1]) == 3
        assert solved > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            p_domino_basis(make_tp_matrix(2, 9), A5)


class TestGrassmannVariationBound:
    def test_projected_rows_vary_little(self):
        # top cell samples, optionally re-mixed by a square positive matrix
        rng = random.Random(21)
        for n, k in ((6, 2), (7, 3), (8, 3)):
            top = OPlusDiagram.from_rows(k, n, ["+" * (n - k)] * k)
            for s in range(10):
                matrix = sample_cell(top, rng=rng.randint(0, 10**6)).matrix
                rows = matrix.entries
                for _ in range(10):
                    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(k)]
                    if all(c == 0 for c in coeffs):
                        continue
                    v = tuple(
                        sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
                        for j in range(n)
                    )
                    assert var_bar(v) <= k - 1

    def test_kernel_vectors_vary_much(self):
        z = make_tp_matrix(5, 12)
        basis = kernel_basis(z)
        rng = random.Random(33)
        for _ in range(200):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
            v = tuple(
                sum((c * u[j] for c, u in zip(coeffs, basis)), Fraction(0))
                for j in range(12)
            )
            if all(x == 0 for x in v):
                continue
            assert var(v) >= 5
