"""Tests for diagram fillings, wiring, sorting moves, and families."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from positroids import render
from positroids.catalan import enumerate_path_pairs
from positroids.diagrams import (
    OPlusDiagram,
    _shapes,
    apply_move,
    enumerate_diagrams,
    find_move,
    is_le_diagram,
    is_noncrossing,
    is_reduced,
    le_normalize,
    noncrossing_pairs,
    omega_LD,
    pipe_dream,
    pipe_dream_permutation,
)
from positroids.errors import BadRange, Crossing, NotReduced
from positroids.permutations import DecoratedPermutation


TEN = OPlusDiagram.from_rows(4, 10, ["0+0+0", "+++++", "000", "++"])
ELEVEN = OPlusDiagram.from_rows(4, 11, ["+00000+", "+00+", "+0+", "++"])


@st.composite
def diagrams(draw, max_k: int = 4, max_width: int = 5):
    k = draw(st.integers(0, max_k))
    width = draw(st.integers(0 if k else 1, max_width))
    shape = []
    prev = width
    for _ in range(k):
        lam = draw(st.integers(0, prev))
        shape.append(lam)
        prev = lam
    rows = tuple(
        "".join(draw(st.sampled_from("0+")) for _ in range(lam)) for lam in shape
    )
    return OPlusDiagram(k, k + width, tuple(shape), rows)


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def quadratic_noncrossing_pairs(k: int, b: int):
    """The former pair generator: every pair of words, filtered."""
    words = []
    for spots in itertools.combinations(range(k + b), k):
        word = ["H"] * (k + b)
        for s in spots:
            word[s] = "V"
        words.append("".join(word))
    for wu, wl in itertools.product(words, repeat=2):
        if is_noncrossing(wu, wl):
            yield wu, wl


def partitions_in_box(rows: int, width: int, minimum: int = 0):
    """The former m=2 shape generator: ``rows`` entries in [minimum, width]."""
    if rows == 0:
        yield ()
        return
    for first in range(width, minimum - 1, -1):
        for rest in partitions_in_box(rows - 1, first, minimum):
            yield (first,) + rest


class TestBorderLabels:
    def test_ten_element_sources(self):
        assert TEN.sources() == (2, 3, 6, 8)

    def test_ten_element_columns(self):
        _, columns = TEN.border_labels()
        assert columns == {6: 1, 5: 4, 4: 5, 3: 7, 2: 9, 1: 10}

    @given(diagrams())
    def test_source_formula(self, d):
        width = d.n - d.k
        expected = tuple(width - lam + r for r, lam in enumerate(d.shape, start=1))
        assert d.sources() == expected

    @given(diagrams())
    def test_column_formula(self, d):
        width = d.n - d.k
        _, columns = d.border_labels()
        for c in range(1, width + 1):
            assert columns[c] == (width - c) + d.column_height(c) + 1

    @given(diagrams())
    def test_labels_partition(self, d):
        sources, columns = d.border_labels()
        assert sorted(sources + tuple(columns.values())) == list(range(1, d.n + 1))


class TestTrips:
    def test_ten_element_permutation(self):
        p = pipe_dream_permutation(TEN)
        assert p == DecoratedPermutation.parse("1_ 5 4 9 7 6^ 2 10 3 8")

    def test_eleven_element_permutation(self):
        p = pipe_dream_permutation(ELEVEN)
        assert p.images == (2, 11, 3, 4, 6, 1, 8, 5, 10, 7, 9)
        assert p.white_fixed == frozenset()

    def test_single_column_three(self):
        d = OPlusDiagram.from_rows(1, 3, ["0+"])
        assert pipe_dream_permutation(d) == DecoratedPermutation.parse("2 1 3_")

    def test_single_box_three(self):
        d = OPlusDiagram.from_rows(1, 3, ["+"])
        assert pipe_dream_permutation(d) == DecoratedPermutation.parse("1_ 3 2")

    def test_empty_diagram_is_identity(self):
        d = OPlusDiagram(0, 4, (), ())
        p = pipe_dream_permutation(d)
        assert p.images == (1, 2, 3, 4)
        assert p.white_fixed == frozenset()

    def test_all_zero_row_is_white(self):
        d = OPlusDiagram.from_rows(2, 5, ["+0+", "00"])
        p = pipe_dream_permutation(d)
        src = d.sources()[1]
        assert p(src) == src
        assert src in p.white_fixed

    @given(diagrams())
    def test_count_equals_rows(self, d):
        assert pipe_dream_permutation(d).anti_excedance_count() == d.k

    @given(diagrams())
    def test_vertical_labels_are_the_set(self, d):
        p = pipe_dream_permutation(d)
        aexc = {
            i
            for i in range(1, d.n + 1)
            if p.inverse_image(i) > i or i in p.white_fixed
        }
        assert aexc == set(d.sources())


class TestReduced:
    def test_sorted_fillings_are_reduced(self):
        assert is_reduced(TEN)
        assert is_reduced(ELEVEN)

    def test_double_crossing(self):
        d = OPlusDiagram.from_rows(2, 4, ["0+", "+0"])
        assert not is_reduced(d)
        assert pipe_dream_permutation(d).images == (3, 4, 1, 2)

    def test_crossings_recorded_once_each(self):
        dream = pipe_dream(TEN)
        zero_boxes = [(r, c) for r, c in TEN.boxes() if TEN.fill(r, c) == "0"]
        assert sorted(dream.crossings) == sorted(zero_boxes)


class TestLeProperty:
    def test_fixtures(self):
        assert is_le_diagram(TEN)
        assert is_le_diagram(ELEVEN)
        assert not is_le_diagram(
            OPlusDiagram.from_rows(2, 8, ["+0++0+", "+000+"])
        )

    def test_all_plus_sorted(self):
        d = OPlusDiagram.from_rows(2, 5, ["+++", "++"])
        assert is_le_diagram(d)


class TestRectangleMove:
    def test_two_step_chain(self):
        d0 = OPlusDiagram.from_rows(2, 8, ["+0++0+", "+000+"])
        m0 = find_move(d0)
        assert m0 == (1, 1, 2, 3)
        d1 = apply_move(d0, m0)
        assert d1.rows == ("00++0+", "+0+0+")
        m1 = find_move(d1)
        assert m1 == (1, 3, 2, 4)
        d2 = apply_move(d1, m1)
        assert d2.rows == ("000+0+", "+0+++")
        assert find_move(d2) is None
        assert is_le_diagram(d2)

    def test_normalize_chain(self):
        d0 = OPlusDiagram.from_rows(2, 8, ["+0++0+", "+000+"])
        assert le_normalize(d0).rows == ("000+0+", "+0+++")

    def test_two_row_square_move(self):
        d = OPlusDiagram.from_rows(2, 7, ["+++0+", "+0+++"])
        assert le_normalize(d).rows == ("0++0+", "+++++")

    def test_sorted_is_fixed(self):
        assert le_normalize(TEN) is TEN or le_normalize(TEN).rows == TEN.rows

    def test_not_reduced_raises(self):
        d = OPlusDiagram.from_rows(2, 4, ["0+", "+0"])
        with pytest.raises(NotReduced):
            le_normalize(d)

    def test_measure_increases(self):
        d = OPlusDiagram.from_rows(2, 8, ["+0++0+", "+000+"])
        width = d.n - d.k

        def measure(x):
            return sum(r * width + c for r, c in x.plus_boxes())

        while (move := find_move(d)) is not None:
            nxt = apply_move(d, move)
            assert measure(nxt) > measure(d)
            d = nxt

    def test_move_preserves_trips(self):
        d = OPlusDiagram.from_rows(2, 8, ["+0++0+", "+000+"])
        before = pipe_dream_permutation(d)
        assert pipe_dream_permutation(le_normalize(d)) == before

    def test_order_independent(self):
        rng = random.Random(7)
        for d in enumerate_diagrams(8, 2, 4):
            target = le_normalize(d)
            for _ in range(3):
                cur = d
                while True:
                    moves = all_moves(cur)
                    if not moves:
                        break
                    cur = apply_move(cur, rng.choice(moves))
                assert cur.rows == target.rows


def all_moves(d):
    """Every applicable rectangle move, not just the scan-first one."""
    out = []
    for r2, c2 in d.boxes():
        if d.fill(r2, c2) != "0":
            continue
        r1 = next((r for r in range(r2 - 1, 0, -1) if d.fill(r, c2) == "+"), None)
        c1 = next((c for c in range(c2 - 1, 0, -1) if d.fill(r2, c) == "+"), None)
        if r1 is None or c1 is None or d.fill(r1, c1) != "+":
            continue
        if all(
            d.fill(r, c) == "0"
            for r in range(r1, r2 + 1)
            for c in range(c1, c2 + 1)
            if (r, c) not in {(r1, c1), (r1, c2), (r2, c1), (r2, c2)}
        ):
            out.append((r1, c1, r2, c2))
    return out


def fillings(k, width):
    """Every filling of every shape with k rows inside a k x width rectangle."""
    for shape in _shapes((0,) * k, (width,) * k):
        for bits in itertools.product("0+", repeat=sum(shape)):
            word, rows = "".join(bits), []
            for lam in shape:
                rows.append(word[:lam])
                word = word[lam:]
            yield OPlusDiagram(k, k + width, shape, tuple(rows))


def assert_find_move_is_the_box_scan(k_max, width):
    """``find_move`` is the first of ``all_moves``, the box-by-box scan it
    replaced, on every filling with at most k_max rows and width columns."""
    for k in range(k_max + 1):
        for d in fillings(k, width):
            assert find_move(d) == next(iter(all_moves(d)), None), d


@pytest.mark.parametrize("k_max, width", [(3, 5), (4, 3)])
def test_find_move_is_the_box_scan(k_max, width):
    assert_find_move_is_the_box_scan(k_max, width)


class TestPathPairs:
    def test_noncrossing(self):
        assert is_noncrossing("HV", "VH")
        assert not is_noncrossing("VH", "HV")

    def test_two_row_nine(self):
        d = omega_LD(("HVHHV", "HVHVH"))
        assert d.rows == ("+++00+", "+0+++")
        assert d.k == 2 and d.n == 9

    def test_three_row_twelve(self):
        d = omega_LD(("HHVHHVVH", "VVHVHHHH"))
        assert d.rows == ("+00++000+", "+0000+0++", "+000++0+")

    def test_crossing_raises(self):
        with pytest.raises(Crossing):
            omega_LD(("HVHVH", "HVHHV"))

    def test_duck_typed_input(self):
        class Pair:
            wu = "HVHHV"
            wl = "HVHVH"

        assert omega_LD(Pair()).rows == ("+++00+", "+0+++")

    def test_empty_pair(self):
        d = omega_LD(("", ""))
        assert (d.k, d.n, d.rows) == (0, 4, ())


class TestLatticeShapes:
    def test_shapes_are_the_sorted_decreasing_tuples_between_bounds(self):
        for k in range(4):
            bounds = list(partitions_in_box(k, 3))
            for floor, ceiling in itertools.product(bounds, repeat=2):
                boxes = itertools.product(*(range(f, c + 1) for f, c in zip(floor, ceiling)))
                decreasing = [t for t in boxes if all(x >= y for x, y in zip(t, t[1:]))]
                assert list(_shapes(floor, ceiling)) == sorted(decreasing, reverse=True)

    def test_pairs_match_the_quadratic_filter(self):
        for k in range(6):
            for b in range(6):
                assert list(noncrossing_pairs(k, b)) == list(quadratic_noncrossing_pairs(k, b))

    def test_path_pairs_match_the_quadratic_filter(self):
        for n in range(4, 11):
            for k in range(n - 3):
                got = [(p.wu, p.wl) for p in enumerate_path_pairs(n, k)]
                assert got == list(quadratic_noncrossing_pairs(k, n - k - 4))

    def test_families_match_the_former_generators(self):
        for n in range(2, 10):
            for k in range(n - 1):
                assert [d.shape for d in enumerate_diagrams(n, k, 2)] == list(
                    partitions_in_box(k, n - k, minimum=2))
        for n in range(4, 10):
            for k in range(n - 3):
                assert enumerate_diagrams(n, k, 4) == [
                    omega_LD(p) for p in quadratic_noncrossing_pairs(k, n - k - 4)]


class TestFamilies:
    def test_counts_match_binomials(self):
        for n in range(2, 9):
            for k in range(0, n - 1):
                got = len(enumerate_diagrams(n, k, 2))
                assert got == math.comb(n - 2, k)

    def test_counts_match_narayana(self):
        for n in range(4, 9):
            for k in range(0, n - 3):
                got = len(enumerate_diagrams(n, k, 4))
                assert got == narayana(n - 3, k + 1)

    def test_range_errors(self):
        with pytest.raises(BadRange):
            enumerate_diagrams(6, 3, 4)
        with pytest.raises(BadRange):
            enumerate_diagrams(6, -1, 2)
        with pytest.raises(BadRange):
            enumerate_diagrams(6, 1, 5)

    def test_members_are_reduced_with_4k_plus(self):
        for d in enumerate_diagrams(8, 2, 4):
            assert d.plus_count() == 8
            assert is_reduced(d)

    def test_trip_images_distinct(self):
        for n in range(4, 9):
            seen = set()
            for k in range(0, n - 3):
                for d in enumerate_diagrams(n, k, 4):
                    p = pipe_dream_permutation(d)
                    assert p not in seen
                    seen.add(p)

    def test_one_truncation_pair(self):
        big = OPlusDiagram.from_rows(4, 11, ["+00000+", "+00+", "+0+", "++"])
        assert big in enumerate_diagrams(11, 4, 2)
        small = big.delete_leftmost_column()
        assert small.rows == ("00000+", "00+", "0+", "+")
        assert small in enumerate_diagrams(10, 4, 1)

    def test_three_has_four_kind_counts(self):
        for n in range(5, 9):
            for k in range(0, n - 3):
                got = len(enumerate_diagrams(n, k, 3))
                assert got == narayana(n - 2, k + 1)

    def test_m2_members_equal_their_checked_rebuilds(self):
        # the m=2 family builds its members without the public check
        for n in range(2, 11):
            for k in range(0, n - 1):
                for d in enumerate_diagrams(n, k, 2):
                    checked = OPlusDiagram(d.k, d.n, d.shape, d.rows)
                    assert checked == d and vars(checked) == vars(d), (n, k)

    def test_two_sorted_columns(self):
        for d in enumerate_diagrams(7, 2, 2):
            assert is_le_diagram(d)
            assert all(row[0] == "+" and row[-1] == "+" for row in d.rows)
            assert d.plus_count() == 2 * d.k


class TestSerialization:
    def test_json_round_trip(self):
        blob = TEN.to_json()
        assert blob["shape"] == [5, 5, 3, 2]
        assert OPlusDiagram.from_json(blob) == TEN

    def test_ascii(self):
        art = render.ASCII["diagram"](OPlusDiagram.from_rows(2, 5, ["+0+", "00"]))
        assert art.splitlines() == ["+ 0 +", "0 0"]

    def test_svg_smoke(self):
        svg = render.SVG["diagram"](TEN)
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    @given(diagrams())
    def test_round_trips(self, d):
        assert OPlusDiagram.from_json(d.to_json()) == d
