import hashlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import render
from positroids.diagrams import (
    OPlusDiagram,
    enumerate_diagrams,
    is_le_diagram,
    le_normalize,
    pipe_dream_permutation,
)
from positroids.errors import (
    BadAttachment,
    BadBoundary,
    BadRange,
    MissingVariable,
    NonLollipopFixedPoint,
    NotLe,
)
from positroids.permutations import BLACK, WHITE, DecoratedPermutation
from positroids.plabic import (
    Network,
    PlabicGraph,
    _hooks,
    base_bridge,
    base_square,
    bcfw_permutations,
    blow_up,
    build_network,
    enumerate_bcfw_graphs,
    graph_from_le,
    k_statistic,
    split,
    trip_permutation,
)

TEN = OPlusDiagram.from_rows(4, 10, ["0+0+0", "+++++", "000", "++"])
ELEVEN = OPlusDiagram.from_rows(4, 11, ["+00000+", "+00+", "+0+", "++"])


def narayana(a: int, b: int) -> int:
    return math.comb(a, b) * math.comb(a, b - 1) // a


def fold(colors):
    """Chain of splits at the last boundary, one vertex per color."""
    g = base_bridge()
    for c in colors:
        g = split(g, g.n, c)
    return g


class TestTrips:
    def test_bridge(self):
        pi = trip_permutation(base_bridge())
        assert pi.images == (2, 1)
        assert k_statistic(base_bridge()) == 1

    def test_square(self):
        pi = trip_permutation(base_square())
        assert pi.images == (3, 4, 1, 2)
        assert k_statistic(base_square()) == 2

    def test_single_lollipops(self):
        black = PlabicGraph(1, {-1: BLACK}, ((1, -1),), {1: (0,), -1: (1,)})
        pi = trip_permutation(black)
        assert pi.images == (1,) and pi.color_of(1) == BLACK
        white = PlabicGraph(1, {-1: WHITE}, ((1, -1),), {1: (0,), -1: (1,)})
        assert trip_permutation(white).color_of(1) == WHITE

    def test_fixed_point_needs_lollipop(self):
        # boundary 1 -- white(deg 2) -- black(deg 1): the wire bounces home
        g = PlabicGraph(
            1,
            {-1: WHITE, -2: BLACK},
            ((1, -1), (-1, -2)),
            {1: (0,), -1: (1, 2), -2: (3,)},
        )
        with pytest.raises(NonLollipopFixedPoint):
            trip_permutation(g)

    def test_three_point_star(self):
        (g,) = enumerate_bcfw_graphs(3, 1, 2)
        assert trip_permutation(g).images == (2, 3, 1)

    def test_empty_graph_is_refused_by_its_permutation(self):
        # a graph with no half-edges has no lowest owner to scan for
        with pytest.raises(ValueError, match="n must be positive"):
            trip_permutation(PlabicGraph(0, {}, (), {}))


class TestSurgeries:
    def test_split_bounds(self):
        with pytest.raises(BadBoundary):
            split(base_bridge(), 0, WHITE)
        with pytest.raises(BadBoundary):
            split(base_bridge(), 3, WHITE)

    def test_split_color_statistic(self):
        g = fold([WHITE, BLACK, WHITE])
        assert k_statistic(split(g, 2, WHITE)) == k_statistic(g)
        assert k_statistic(split(g, 2, BLACK)) == k_statistic(g) + 1

    def test_split_relabels(self):
        g = split(base_bridge(), 1, WHITE)
        # old boundary 2 moves to 3; the new vertex feeds 1 and 2
        assert trip_permutation(g).images == (2, 3, 1)

    def test_four_point_color_table(self):
        for colors, k in [
            ((WHITE, WHITE), 1),
            ((WHITE, BLACK), 2),
            ((BLACK, WHITE), 2),
            ((BLACK, BLACK), 3),
        ]:
            assert k_statistic(fold(colors)) == k

    def test_blow_up_statistic(self):
        for K in (2, 3):
            for g in enumerate_bcfw_graphs(5, K, 4):
                for i in range(2, 5):
                    v = g.boundary_neighbor(i)
                    if v > 0 or g.degree(v) != 3:
                        continue
                    grown = blow_up(g, i)
                    expect = K if g.colors[v] == BLACK else K + 1
                    assert k_statistic(grown) == expect

    def test_blow_up_rejects_bad_attachment(self):
        with pytest.raises(BadAttachment):
            blow_up(base_bridge(), 1)  # neighbor is a boundary vertex
        lolli = PlabicGraph(1, {-1: BLACK}, ((1, -1),), {1: (0,), -1: (1,)})
        with pytest.raises(BadAttachment):
            blow_up(lolli, 1)  # neighbor has degree one
        with pytest.raises(BadBoundary):
            blow_up(base_square(), 9)

    @given(st.lists(st.sampled_from([BLACK, WHITE]), max_size=7))
    def test_fold_statistic(self, colors):
        g = fold(colors)
        assert g.n == len(colors) + 2
        assert k_statistic(g) == 1 + sum(1 for c in colors if c == BLACK)
        pi = trip_permutation(g)
        assert pi.anti_excedance_count() == k_statistic(g)


class TestFamilies:
    def test_m2_counts(self):
        for n in range(2, 9):
            for k in range(1, n):
                got = len(enumerate_bcfw_graphs(n, k, 2))
                assert got == math.comb(n - 2, k - 1)

    def test_m4_counts(self):
        for n in range(4, 9):
            counts = [len(enumerate_bcfw_graphs(n, K, 4)) for K in range(2, n - 1)]
            assert counts == [narayana(n - 3, K - 1) for K in range(2, n - 1)]

    def test_m4_total_is_catalan(self):
        for n in range(4, 9):
            total = sum(len(enumerate_bcfw_graphs(n, K, 4)) for K in range(2, n - 1))
            assert total == math.comb(2 * (n - 3), n - 3) // (n - 2)

    def test_no_duplicates(self):
        graphs = enumerate_bcfw_graphs(11, 5, 2)
        assert len(graphs) == len(set(graphs)) == math.comb(9, 4)
        graphs = enumerate_bcfw_graphs(8, 4, 4)
        assert len(graphs) == len(set(graphs))

    def test_bad_ranges(self):
        for n, k, m in [(2, 0, 2), (4, 4, 2), (4, 1, 4), (4, 3, 4), (5, 2, 3), (6, 2, 1)]:
            with pytest.raises(BadRange):
                enumerate_bcfw_graphs(n, k, m)
        with pytest.raises(BadRange):
            bcfw_permutations(6, 3, 4)
        with pytest.raises(BadRange):
            bcfw_permutations(6, 2, 3)

    def test_caterpillar_matches_eleven_point_fixture(self):
        g = fold([BLACK, WHITE, WHITE, WHITE, BLACK, WHITE, BLACK, WHITE, BLACK])
        pi = trip_permutation(g)
        assert pi.images == (3, 1, 4, 5, 7, 2, 9, 6, 11, 8, 10)
        assert pi.left_shift(1) == pipe_dream_permutation(ELEVEN)
        assert g in enumerate_bcfw_graphs(11, 5, 2)

    def test_m4_trips_avoid_near_fixed_points(self):
        for n in range(4, 8):
            for K in range(2, n - 1):
                for g in enumerate_bcfw_graphs(n, K, 4):
                    pi = trip_permutation(g)
                    for i in range(1, n + 1):
                        assert pi(i) != i
                        assert pi(i) != i % n + 1

    def test_permutation_families_match_diagrams(self):
        for n in range(2, 8):
            for k in range(0, n - 1):
                perms = set(bcfw_permutations(n, k, 2))
                assert len(perms) == len(bcfw_permutations(n, k, 2))
                assert perms == {
                    pipe_dream_permutation(D) for D in enumerate_diagrams(n, k, 2)
                }
        for n in range(4, 8):
            for k in range(0, n - 3):
                perms = set(bcfw_permutations(n, k, 4))
                assert perms == {
                    pipe_dream_permutation(D) for D in enumerate_diagrams(n, k, 4)
                }

    def test_permutation_families_statistics(self):
        for n, k, m in [(6, 2, 2), (7, 3, 2), (7, 2, 4), (8, 3, 4)]:
            for pi in bcfw_permutations(n, k, m):
                assert pi.anti_excedance_count() == k
                for i in pi.fixed_points:
                    assert pi.color_of(i) == BLACK


class TestGraphFromDiagram:
    def test_requires_sorted_diagram(self):
        bad = OPlusDiagram.from_rows(2, 4, ["++", "+0"])
        assert not is_le_diagram(bad)
        with pytest.raises(NotLe):
            graph_from_le(bad)

    def test_ten_point_census(self):
        g = graph_from_le(TEN)
        blacks = sum(1 for c in g.colors.values() if c == BLACK)
        whites = sum(1 for c in g.colors.values() if c == WHITE)
        assert (len(g.edges), blacks, whites) == (21, 5, 7)
        assert k_statistic(g) == 4
        assert trip_permutation(g) == pipe_dream_permutation(TEN)
        assert str(trip_permutation(g)) == "1_ 5 4 9 7 6^ 2 10 3 8"

    def test_eleven_point_trips(self):
        g = graph_from_le(ELEVEN)
        assert trip_permutation(g) == pipe_dream_permutation(ELEVEN)

    def test_single_box_is_bridge(self):
        g = graph_from_le(OPlusDiagram.from_rows(1, 2, ["+"]))
        assert g == base_bridge()

    def test_empty_diagram_is_all_lollipops(self):
        g = graph_from_le(OPlusDiagram.from_rows(0, 4, []))
        pi = trip_permutation(g)
        assert pi.images == (1, 2, 3, 4)
        assert all(pi.color_of(i) == BLACK for i in range(1, 5))

    def test_exhaustive_small_diagrams(self):
        checked = 0
        for shape in [(2,), (3,), (2, 2), (3, 2), (3, 3), (3, 2, 1), (2, 2, 2)]:
            k, width = len(shape), shape[0]
            n = k + width
            for fills in product("0+", repeat=sum(shape)):
                rows, at = [], 0
                for w in shape:
                    rows.append("".join(fills[at : at + w]))
                    at += w
                D = OPlusDiagram.from_rows(k, n, rows)
                if not is_le_diagram(D):
                    continue
                checked += 1
                assert trip_permutation(graph_from_le(D)) == pipe_dream_permutation(D)
        assert checked > 200

    def test_family_trips(self):
        for n in range(2, 7):
            for k in range(0, n - 1):
                for D in enumerate_diagrams(n, k, 2):
                    g = graph_from_le(D)
                    assert trip_permutation(g) == pipe_dream_permutation(D)
                    assert k_statistic(g) == k
        for n in range(4, 8):
            for k in range(0, n - 3):
                for D in enumerate_diagrams(n, k, 4):
                    g = graph_from_le(le_normalize(D))
                    assert trip_permutation(g) == pipe_dream_permutation(D)
                    assert k_statistic(g) == k


class TestNetworks:
    def test_requires_sorted_diagram(self):
        with pytest.raises(NotLe):
            build_network(OPlusDiagram.from_rows(2, 4, ["++", "+0"]))

    def test_ten_point_matrix_at_ones(self):
        net = build_network(TEN)
        assert net.sources == (2, 3, 6, 8)
        assert len(net.variables) == 9
        A = net.matrix(net.ones())
        assert A == [
            [0, 1, 0, 0, -1, 0, 1, 0, -2, -4],
            [0, 0, 1, 1, 1, 0, -1, 0, 1, 2],
            [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 1, 1],
        ]

    def test_six_point_symbolic_matrix(self):
        D = OPlusDiagram.from_rows(3, 6, ["+0+", "+0+", "++"])
        assert D in enumerate_diagrams(6, 3, 2)
        net = build_network(D)
        rng = random.Random(7)
        for _ in range(5):
            a = {
                f"a{i}": Fraction(rng.randint(1, 40), rng.randint(1, 40))
                for i in range(1, 7)
            }
            a1, a2, a3, a4, a5, a6 = (a[f"a{i}"] for i in range(1, 7))
            assert net.matrix(a) == [
                [1, 0, -a1, 0, 0, a1 * (a2 + a4)],
                [0, 1, a3, 0, 0, -a3 * a4],
                [0, 0, 0, 1, a5, a5 * a6],
            ]

    def test_empty_diagram_gives_empty_matrix(self):
        net = build_network(OPlusDiagram.from_rows(0, 5, []))
        assert net.matrix({}) == []

    def test_missing_variable(self):
        net = build_network(TEN)
        values = net.ones()
        del values["a7"]
        with pytest.raises(MissingVariable):
            net.matrix(values)

    def test_float_weight_is_refused(self):
        net = build_network(TEN)
        values = {**net.ones(), "a7": 0.1}
        with pytest.raises(TypeError):
            net.matrix(values)

    def test_empty_row_gives_unit_row(self):
        A = build_network(TEN).matrix(build_network(TEN).ones())
        assert A[2] == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0]

    def test_json(self):
        data = build_network(TEN).to_json()
        assert data["sources"] == [2, 3, 6, 8]
        assert data["sinks"]["6"] == 1
        assert len(data["variables"]) == 9
        assert len(data["vertical"]) == 9  # one per + box


# ----------------------------------------------------------------------
# the hook sweep against the rescans it replaced


def _old_is_le_diagram(diagram):
    """Rescans the row and the column of every 0 box."""
    for r, c in diagram.boxes():
        if diagram.fill(r, c) != "0":
            continue
        above = any(diagram.fill(rr, c) == "+" for rr in range(1, r))
        left = any(diagram.fill(r, cc) == "+" for cc in range(1, c))
        if above and left:
            return False
    return True


def _old_hook_targets(diagram):
    """Per + box: next + east, next + south, and west/north presence."""
    pluses = set(diagram.plus_boxes())
    info = {}
    for r, c in sorted(pluses):
        east = next(
            ((r, cc) for cc in range(c + 1, diagram.shape[r - 1] + 1) if (r, cc) in pluses),
            None,
        )
        south = next(
            (
                (rr, c)
                for rr in range(r + 1, diagram.k + 1)
                if diagram.shape[rr - 1] >= c and (rr, c) in pluses
            ),
            None,
        )
        west = any((r, cc) in pluses for cc in range(1, c))
        north = any((rr, c) in pluses for rr in range(1, r))
        info[(r, c)] = (east, south, west, north)
    return info


def _old_build_network(diagram):
    """``build_network`` with its own east chains and south scans."""
    sources, columns = diagram.border_labels()
    pluses = set(diagram.plus_boxes())
    variables, horizontal = [], []
    for r in range(1, diagram.k + 1):
        row_cols = sorted((c for rr, c in pluses if rr == r), reverse=True)
        if not row_cols:
            continue
        chain = [("source", sources[r - 1])] + [(r, c) for c in row_cols]
        for tail, head in zip(chain, chain[1:]):
            name = f"a{len(variables) + 1}"
            variables.append(name)
            horizontal.append((name, tail, head))
    vertical = []
    for (r, c) in sorted(pluses):
        below = next(
            (
                (rr, c)
                for rr in range(r + 1, diagram.k + 1)
                if diagram.shape[rr - 1] >= c and (rr, c) in pluses
            ),
            None,
        )
        vertical.append(((r, c), below if below else ("sink", columns[c])))
    return Network(diagram.k, diagram.n, sources, dict(columns), tuple(variables),
                   tuple(horizontal), tuple(vertical))


def _fillings(n_max, box_max):
    """Every {0, +} filling of every shape with 1 <= n <= n_max, at most box_max boxes."""

    def shapes(k, width, room):
        if k == 0:
            yield ()
            return
        for lam in range(min(width, room), -1, -1):
            for rest in shapes(k - 1, lam, room - lam):
                yield (lam, *rest)

    for n in range(1, n_max + 1):
        for k in range(n + 1):
            for shape in shapes(k, n - k, box_max):
                ends = list(accumulate(shape))
                for fills in product("0+", repeat=sum(shape)):
                    rows = tuple("".join(fills[e - w : e]) for w, e in zip(shape, ends))
                    yield OPlusDiagram(k, n, shape, rows)


# sha256 of the graph_from_le JSON of every Le-diagram among _fillings(7, 9),
# one json.dumps per line, recorded while graph_from_le read _old_hook_targets
GRAPH_FROM_LE_SHA256 = "25819c9df2b537d5b4c2477852879c69e650401338ff0bde87bc590162c4e2ec"


class TestHookSweep:
    def test_against_the_rescans(self):
        fillings, sorted_ones = 0, 0
        digest = hashlib.sha256()
        for d in _fillings(7, 9):
            fillings += 1
            assert is_le_diagram(d) == _old_is_le_diagram(d), d
            if not is_le_diagram(d):
                with pytest.raises(NotLe):
                    build_network(d)
                with pytest.raises(NotLe):
                    graph_from_le(d)
                continue
            sorted_ones += 1
            hooks, old = _hooks(d), _old_hook_targets(d)
            easts = {east for east, _ in hooks.values()}
            souths = {south for _, south in hooks.values()}
            assert {box: (box in easts, box in souths, *hook) for box, hook in hooks.items()} == {
                box: (west, north, east, south) for box, (east, south, west, north) in old.items()
            }, d
            assert build_network(d).to_json() == _old_build_network(d).to_json(), d
            digest.update(json.dumps(graph_from_le(d).to_json()).encode() + b"\n")
        assert (fillings, sorted_ones) == (14069, 9671)
        assert digest.hexdigest() == GRAPH_FROM_LE_SHA256


class TestSerialization:
    def test_canonical_ignores_internal_names(self):
        sq = base_square()
        m = {-1: -10, -3: -33}
        relabeled = PlabicGraph(
            4,
            {m.get(v, v): c for v, c in sq.colors.items()},
            tuple((m.get(a, a), m.get(b, b)) for a, b in sq.edges),
            {m.get(v, v): h for v, h in sq.rotation.items()},
        )
        assert relabeled == sq
        assert hash(relabeled) == hash(sq)

    def test_json_ids_far_apart_round_trip(self):
        # the layout is sized by the edge count, never by how large an id is:
        # a one-line input naming -10**12 must not allocate by that size
        far = -(10**12)
        text = json.dumps({
            "n": 3,
            "internal": [{"id": -7, "color": WHITE}, {"id": far, "color": BLACK}],
            "edges": [[1, -7], [-7, 2], [-7, far], [far, 3]],
            "rotation": {"1": [0], "2": [3], "3": [7], "-7": [1, 2, 4], str(far): [5, 6]},
        })
        start = time.perf_counter()
        g = PlabicGraph.from_json(json.loads(text))
        assert json.dumps(g.to_json()) == text
        assert g.colors == {-7: WHITE, far: BLACK} and trip_permutation(g).images == (2, 3, 1)
        assert time.perf_counter() - start < 1.0

    def test_distinct_graphs_differ(self):
        a, b = enumerate_bcfw_graphs(5, 2, 2)[:2]
        assert a != b

    def test_json_round_trip(self):
        for g in (base_square(), graph_from_le(TEN), fold([BLACK, WHITE])):
            assert PlabicGraph.from_json(g.to_json()) == g

    @pytest.mark.parametrize("rotation", [[], [[0]], "01", None])
    def test_json_rotation_must_be_an_object(self, rotation):
        data = {**base_square().to_json(), "rotation": rotation}
        with pytest.raises(TypeError):
            PlabicGraph.from_json(data)

    def test_canonical_form_is_flat(self):
        # per vertex in breadth-first order: color, degree, then the
        # neighbors' numbers clockwise from the arrival half-edge
        assert base_bridge().canonical_form() == (2, (None, 1, 2, None, 1, 1))
        assert base_square().canonical_form() == (4, (
            None, 1, 5, WHITE, 3, 1, 6, 7, BLACK, 3, 5, 2, 8, BLACK, 3, 5, 8, 4,
            None, 1, 6, WHITE, 3, 6, 3, 7, None, 1, 7, None, 1, 8,
        ))

    def test_validation(self):
        with pytest.raises(ValueError):
            PlabicGraph(2, {}, ((1, 2), (1, 2)), {1: (0,), 2: (1, 3)})
        with pytest.raises(ValueError):
            PlabicGraph(1, {-1: "red"}, ((1, -1),), {1: (0,), -1: (1,)})

    @pytest.mark.parametrize("edges", [((1, 2, 3),), ((1,),), ((1, 2, 3), (4,))])
    def test_edge_must_be_a_pair(self, edges):
        with pytest.raises(ValueError, match="two ends"):
            PlabicGraph(2, {}, edges, {1: (0,), 2: (1,)})

    def test_rotation_must_list_each_half_at_its_vertex(self):
        # half-edges 1 and 0 listed again at a vertex, bare or colored,
        # that owns neither
        with pytest.raises(ValueError):
            PlabicGraph.from_json(
                {"n": 2, "internal": [], "edges": [[1, 2]],
                 "rotation": {"1": [0], "2": [1], "5": [1, 0]}}
            )
        with pytest.raises(ValueError):
            PlabicGraph(2, {-1: BLACK}, ((1, 2),), {1: (0,), 2: (1,), -1: (1, 0)})
        path = ((1, -1), (-1, 2))
        # swapped between the ends of an edge
        with pytest.raises(ValueError):
            PlabicGraph(2, {-1: WHITE}, path, {1: (0,), -1: (1, 3), 2: (2,)})
        # listed twice
        with pytest.raises(ValueError):
            PlabicGraph(2, {-1: WHITE}, path, {1: (0,), -1: (1, 2, 1), 2: (3,)})
        # never listed
        with pytest.raises(ValueError):
            PlabicGraph(2, {-1: WHITE}, path, {1: (0,), -1: (1,), 2: (3,)})
        # no such half-edge
        with pytest.raises(ValueError):
            PlabicGraph(2, {-1: WHITE}, path, {1: (0,), -1: (1, 2), 2: (7,)})
        # an internal vertex without a color
        with pytest.raises(ValueError):
            PlabicGraph(2, {}, path, {1: (0,), -1: (1, 2), 2: (3,)})
        # a colored vertex listed with no half-edge has no first half: isolated
        with pytest.raises(ValueError, match="isolated"):
            PlabicGraph(2, {-1: WHITE}, ((1, 2),), {1: (0,), 2: (1,), -1: ()})

    @pytest.mark.parametrize("i", [0, -1, 5])
    def test_boundary_neighbor_needs_a_boundary_label(self, i):
        with pytest.raises(BadBoundary):
            base_square().boundary_neighbor(i)

    def test_svg_smoke(self):
        svg = render.SVG["graph"](graph_from_le(TEN))
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<circle") >= 12
