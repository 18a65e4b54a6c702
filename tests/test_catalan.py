import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from positroids import catalan, render
from positroids.catalan import (
    BinaryTree,
    DyckPath,
    NoncrossingPathTuple,
    PathPair,
    PlanePartition,
    dyck_step_labels,
    enumerate_dyck_paths,
    enumerate_path_pairs,
    enumerate_path_tuples,
    enumerate_trees,
    graph_to_tree,
    macmahon,
    omega_LP,
    omega_PL,
    omega_TL,
    paths_to_plane_partition,
    plane_partition_to_paths,
    shadow_touch,
    tree_to_graph,
)
from positroids.diagrams import _shapes, omega_LD, pipe_dream_permutation
from positroids.errors import BadRange, Crossing, NotBCFWGraph
from positroids.permutations import BLACK, WHITE
from positroids.plabic import (
    base_bridge,
    base_square,
    blow_up,
    enumerate_bcfw_graphs,
    trip_permutation,
)

LEAF = BinaryTree()

# n=6, k=1: both children of the root are cherries
TREE_6 = BinaryTree(BinaryTree(LEAF, LEAF), BinaryTree(LEAF, LEAF))

# n=9, k=2: a cherry, then a two-cherry fork hanging off the vertical side
TREE_9 = BinaryTree(
    BinaryTree(LEAF, LEAF),
    BinaryTree(
        BinaryTree(BinaryTree(LEAF, LEAF), BinaryTree(LEAF, LEAF)),
        LEAF,
    ),
)

A5 = "+++--++-+--+--+-+-"


def narayana(a: int, b: int) -> int:
    return math.comb(a, b) * math.comb(a, b - 1) // a


def catalan_number(a: int) -> int:
    return math.comb(2 * a, a) // (a + 1)


def all_trees(leaves: int) -> list:
    """Every tree shape: split point, then horizontal, then vertical shape."""
    if leaves == 1:
        return [LEAF]
    return [
        BinaryTree(h, v)
        for left in range(1, leaves)
        for h in all_trees(left)
        for v in all_trees(leaves - left)
    ]


def all_dyck_words(length: int) -> list:
    """Every Dyck word "+" a "-" b: length of a, then a, then b."""
    if length == 0:
        return [""]
    return [
        "+" + a + "-" + b
        for inner in range(0, length - 1, 2)
        for a in all_dyck_words(inner)
        for b in all_dyck_words(length - 2 - inner)
    ]


def tree_word(t: BinaryTree) -> str:
    """The Dyck word of a tree: "+", horizontal child, "-", vertical child."""
    if t.is_leaf:
        return ""
    return "+" + tree_word(t.horizontal) + "-" + tree_word(t.vertical)


def horizontal_leaves(t: BinaryTree) -> int:
    """Leaves that are the horizontal child of their parent."""
    if t.is_leaf:
        return 0
    return (
        (1 if t.horizontal.is_leaf else horizontal_leaves(t.horizontal))
        + (0 if t.vertical.is_leaf else horizontal_leaves(t.vertical))
    )


def subpartitions(outer: tuple, cap=None):
    """The shapes inside ``outer``, lex-decreasing: the former generator."""
    if not outer:
        yield ()
        return
    top = outer[0] if cap is None else min(outer[0], cap)
    for first in range(top, -1, -1):
        for rest in subpartitions(outer[1:], first):
            yield (first,) + rest


def fraction_macmahon(a: int, b: int, c: int) -> Fraction:
    """MacMahon's triple product over Fractions, the former closed form."""
    total = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                total *= Fraction(i + j + k - 1, i + j + k - 2)
    return total


def reference_path_tuples(a: int, b: int, c: int):
    """The path-tuple generator without memoisation: every chain of c
    nested shapes in the a x b box, largest first, each shape's word built
    anew, the tuple built through the validating constructor."""

    def word_from_rows(rows: tuple, width: int) -> str:
        prev = width
        parts = []
        for x in rows:
            parts.append("H" * (prev - x))
            parts.append("V")
            prev = x
        parts.append("H" * prev)
        return "".join(parts)

    def chains(outer: tuple, depth: int):
        if depth == 0:
            yield ()
            return
        for shape in subpartitions(outer):
            for rest in chains(shape, depth - 1):
                yield (shape,) + rest

    for chain in chains((b,) * a, c):
        yield NoncrossingPathTuple(
            tuple(word_from_rows(shape, b) for shape in reversed(chain))
        )


def words_readoff(tree: BinaryTree) -> tuple[str, str]:
    """The tree's word pair read off directly, without recursion on pairs.

    Upper word: internal edges in preorder, horizontal child first.  Lower
    word: leaves in label order, first and last dropped; a leaf gives V
    when it is a horizontal child, H when vertical.
    """
    upper: list[str] = []

    def walk(t: BinaryTree) -> None:
        if not t.horizontal.is_leaf:
            upper.append("H")
            walk(t.horizontal)
        if not t.vertical.is_leaf:
            upper.append("V")
            walk(t.vertical)

    lower: list[str] = []

    def leaves(t: BinaryTree) -> None:
        for child, letter in ((t.horizontal, "V"), (t.vertical, "H")):
            if child.is_leaf:
                lower.append(letter)
            else:
                leaves(child)

    walk(tree)
    leaves(tree)
    return "".join(upper), "".join(lower[1:-1])


class TestTrees:
    def test_single_child_rejected(self):
        with pytest.raises(ValueError):
            BinaryTree(LEAF, None)

    def test_statistics(self):
        assert TREE_6.n == 6 and TREE_6.k == 1
        assert TREE_9.n == 9 and TREE_9.k == 2

    @pytest.mark.parametrize("n", range(4, 10))
    def test_counts(self, n):
        total = 0
        for k in range(0, n - 3):
            trees = enumerate_trees(n, k)
            assert len(trees) == narayana(n - 3, k + 1)
            total += len(trees)
        assert total == catalan_number(n - 3)

    @pytest.mark.parametrize("n,k", [(3, 0), (5, -1), (5, 2), (4, 1)])
    def test_bad_range(self, n, k):
        with pytest.raises(BadRange):
            enumerate_trees(n, k)

    def test_order_matches_filtered_shapes(self):
        for n in range(4, 14):
            shapes = all_trees(n - 2)
            for k in range(0, n - 3):
                expected = [t for t in shapes if horizontal_leaves(t) == k + 1]
                assert enumerate_trees(n, k) == expected

    def test_words_are_the_dyck_words_at_the_complementary_k(self):
        # peaks are horizontal leaves: k+1 of them for a tree, n-3-k' for a path
        for n in range(4, 14):
            for k in range(0, n - 3):
                words = [tree_word(t) for t in enumerate_trees(n, k)]
                assert words == [p.steps for p in enumerate_dyck_paths(n, n - 4 - k)]
                assert all(w.count("+-") == k + 1 for w in words)

    def test_json_round_trip(self):
        for k in range(0, 4):
            for t in enumerate_trees(7, k):
                assert BinaryTree.from_json(t.to_json()) == t

    def test_reflect(self):
        for n in range(4, 8):
            for k in range(0, n - 3):
                for t in enumerate_trees(n, k):
                    r = t.reflect()
                    assert r.reflect() == t
                    assert r.k == n - 4 - k

    def test_str(self):
        assert str(TREE_6) == "((* *) (* *))"


def collapse_first(tree: BinaryTree) -> tuple[BinaryTree, int]:
    """Leaf the first internal node (depth-first, horizontal child first)
    whose children are both leaves; return the new tree and the label of
    the collapsed node's horizontal leaf.  The former tree_to_graph step."""

    def rec(t: BinaryTree, counter: int) -> tuple[BinaryTree, int]:
        if t.horizontal.is_leaf and t.vertical.is_leaf:
            return LEAF, counter
        if not t.horizontal.is_leaf:
            sub, i = rec(t.horizontal, counter)
            return BinaryTree(sub, t.vertical), i
        # horizontal child is a leaf and eats one label
        sub, i = rec(t.vertical, counter + 1)
        return BinaryTree(t.horizontal, sub), i

    return rec(tree, 2)


def collapse_tree_to_graph(tree: BinaryTree):
    ops = []
    while not (tree.horizontal.is_leaf and tree.vertical.is_leaf):
        tree, i = collapse_first(tree)
        ops.append(i)
    g = base_square()
    for i in reversed(ops):
        g = blow_up(g, i)
    return g


def linked(word: str) -> tuple:
    """The tree of a Dyck word as nested (horizontal, vertical) pairs, () a leaf:
    "+" a "-" b is (linked(a), linked(b)).  The former linked build of a tree."""
    height = 0
    for at, step in enumerate(word):
        height += 1 if step == "+" else -1
        if not height:
            return linked(word[1:at]), linked(word[at + 1:])
    return ()


def linked_tree(t: tuple) -> BinaryTree:
    return BinaryTree(linked_tree(t[0]), linked_tree(t[1])) if t else BinaryTree()


def linked_json(t: tuple):
    return {"horizontal": linked_json(t[0]), "vertical": linked_json(t[1])} if t else "leaf"


def linked_str(t: tuple) -> str:
    return f"({linked_str(t[0])} {linked_str(t[1])})" if t else "*"


def linked_reflect(t: tuple) -> tuple:
    return (linked_reflect(t[1]), linked_reflect(t[0])) if t else ()


def linked_leaves(t: tuple, horizontal: bool = False) -> tuple[int, int]:
    """Leaves, and the leaves that are horizontal children."""
    if not t:
        return 1, int(horizontal)
    (a, b), (c, d) = linked_leaves(t[0], True), linked_leaves(t[1])
    return a + c, b + d


def linked_pair(t: tuple) -> tuple[str, str]:
    """The word pair by recursion on the two subtrees: the former omega_TL."""
    h, v = t
    if not h and not v:
        return "", ""
    if h and not v:
        wu, wl = linked_pair(h)
        return "H" + wu, wl + "H"
    if not h and v:
        wu, wl = linked_pair(v)
        return "V" + wu, "V" + wl
    (au, al), (bu, bl) = linked_pair(h), linked_pair(v)
    return "H" + au + "V" + bu, al + "H" + "V" + bl


def test_word_walks_match_the_linked_reference():
    trees = [t for n in range(4, 11) for k in range(n - 3) for t in enumerate_trees(n, k)]
    assert len(trees) == sum(catalan_number(a) for a in range(1, 8))
    for t in trees:
        ref = linked(t.word)
        assert json.dumps(t.to_json()) == json.dumps(linked_json(ref))
        assert str(t) == linked_str(ref)
        assert linked(t.reflect().word) == linked_reflect(ref)
        pair = omega_TL(t)
        assert (pair.wu, pair.wl) == linked_pair(ref)
        leaves, horizontal = linked_leaves(ref)
        assert (t.leaf_count(), t.horizontal_leaf_count(), t.n, t.k) == (
            leaves, horizontal, leaves + 2, horizontal - 1)
        assert tree_to_graph(t).to_json() == collapse_tree_to_graph(linked_tree(ref)).to_json()
        checked = BinaryTree.from_json(t.to_json())
        assert checked == t and checked.word == t.word
        assert hash(checked) == hash(t) and repr(checked) == repr(t)


def test_hashing_trees_fills_no_memo():
    # the hash folds over the word, so no child view is made and memoised
    trees = [t for n in range(4, 12) for k in range(n - 3) for t in enumerate_trees(n, k)]
    before = catalan._tree_shapes.cache_info().currsize
    assert len({hash(t) for t in trees}) == len(trees) == 2055
    assert catalan._tree_shapes.cache_info().currsize == before


class TestTreeToGraph:
    def test_matches_the_tree_collapse(self):
        # the blow-ups read off the Dyck word against the recursion on nodes
        trees = [t for n in range(4, 12) for k in range(n - 3) for t in enumerate_trees(n, k)]
        assert len(trees) == 2055
        for t in trees:
            assert tree_to_graph(t).to_json() == collapse_tree_to_graph(t).to_json()

    def test_base(self):
        assert tree_to_graph(BinaryTree(LEAF, LEAF)) == base_square()

    def test_leaf_rejected(self):
        with pytest.raises(BadRange):
            tree_to_graph(LEAF)

    def test_middle_graph(self):
        # the n=6 two-cherry tree lands on the one graph reachable both
        # through a black attachment and through a white one
        g = tree_to_graph(TREE_6)
        assert g in set(enumerate_bcfw_graphs(6, 3, 4))
        routes = set()
        for want, parents in ((BLACK, enumerate_bcfw_graphs(5, 3, 4)),
                              (WHITE, enumerate_bcfw_graphs(5, 2, 4))):
            for parent in parents:
                for i in range(2, parent.n):
                    anchor = parent.boundary_neighbor(i)
                    if anchor < 0 and parent.colors[anchor] == want:
                        if blow_up(parent, i) == g:
                            routes.add(want)
        assert routes == {BLACK, WHITE}

    @pytest.mark.parametrize("n", range(4, 9))
    def test_image_sets(self, n):
        for k in range(0, n - 3):
            trees = enumerate_trees(n, k)
            images = {tree_to_graph(t) for t in trees}
            assert len(images) == len(trees)
            assert images == set(enumerate_bcfw_graphs(n, k + 2, 4))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_round_trip(self, n):
        for k in range(0, n - 3):
            for t in enumerate_trees(n, k):
                assert graph_to_tree(tree_to_graph(t)) == t

    def test_square_to_base(self):
        assert graph_to_tree(base_square()) == BinaryTree(LEAF, LEAF)

    def test_not_bcfw(self):
        with pytest.raises(NotBCFWGraph):
            graph_to_tree(base_bridge())
        # right statistics, wrong recursion
        stranger = enumerate_bcfw_graphs(6, 2, 2)[0]
        with pytest.raises(NotBCFWGraph):
            graph_to_tree(stranger)


class TestOmegaTL:
    def test_base(self):
        pair = omega_TL(BinaryTree(LEAF, LEAF))
        assert (pair.wu, pair.wl) == ("", "")

    def test_two_cherry_tree(self):
        pair = omega_TL(TREE_6)
        assert (pair.wu, pair.wl) == ("HV", "HV")

    def test_nine_point_tree(self):
        pair = omega_TL(TREE_9)
        assert (pair.wu, pair.wl) == ("HVHHV", "HVHVH")

    @pytest.mark.parametrize("n", range(4, 9))
    def test_bijection(self, n):
        for k in range(0, n - 3):
            trees = enumerate_trees(n, k)
            pairs = {(p.wu, p.wl) for p in map(omega_TL, trees)}
            assert len(pairs) == len(trees)
            assert pairs == {(p.wu, p.wl) for p in enumerate_path_pairs(n, k)}

    def test_k_carried_over(self):
        for t in enumerate_trees(8, 2):
            assert omega_TL(t).k == 2

    def test_recursion_matches_readoff(self):
        for leaves in range(2, 11):
            for t in all_trees(leaves):
                pair = omega_TL(t)
                assert (pair.wu, pair.wl) == words_readoff(t)


class TestMasterIdentity:
    @pytest.mark.parametrize("n", range(4, 8))
    def test_graph_and_diagram_trips_agree(self, n):
        for k in range(0, n - 3):
            for t in enumerate_trees(n, k):
                from_diagram = pipe_dream_permutation(omega_LD(omega_TL(t)))
                from_graph = trip_permutation(tree_to_graph(t)).left_shift(2)
                assert from_diagram == from_graph

    @pytest.mark.parametrize("n", range(4, 8))
    def test_reflection_conjugates(self, n):
        for k in range(0, n - 3):
            for t in enumerate_trees(n, k):
                mirrored = trip_permutation(tree_to_graph(t.reflect()))
                assert mirrored == trip_permutation(tree_to_graph(t)).parity_involution(0)


class TestPathPairs:
    def test_crossing(self):
        with pytest.raises(Crossing):
            PathPair("VH", "HV")

    @pytest.mark.parametrize("wu,wl", [("HV", "VV"), ("HV", "H"), ("XY", "HV"), ("VH", "VHH")])
    def test_malformed(self, wu, wl):
        with pytest.raises(ValueError):
            PathPair(wu, wl)

    @pytest.mark.parametrize("wu,wl", [({}, {}), (["H"], ["H"]), ("H", ["H"])])
    def test_words_must_be_strings(self, wu, wl):
        with pytest.raises(TypeError):
            PathPair.from_json({"wu": wu, "wl": wl})

    def test_statistics(self):
        pair = PathPair("HVV", "VHV")
        assert pair.k == 2 and pair.b == 1 and pair.n == 7

    @pytest.mark.parametrize("n", range(4, 10))
    def test_counts(self, n):
        for k in range(0, n - 3):
            count = sum(1 for _ in enumerate_path_pairs(n, k))
            assert count == narayana(n - 3, k + 1)

    def test_bad_range(self):
        with pytest.raises(BadRange):
            list(enumerate_path_pairs(6, 3))

    def test_generated_pairs_pass_the_checked_constructor(self):
        for n in range(4, 13):
            for k in range(0, n - 3):
                for pair in enumerate_path_pairs(n, k):
                    checked = PathPair(pair.wu, pair.wl)
                    assert checked == pair and vars(checked) == vars(pair)

    def test_json_round_trip(self):
        pair = PathPair("HVHHV", "HVHVH")
        assert PathPair.from_json(pair.to_json()) == pair

    def test_svg(self):
        art = render.SVG["paths"](PathPair("HVHHV", "HVHVH"))
        assert art.startswith("<svg") and "polyline" in art


class TestDyckPaths:
    @pytest.mark.parametrize("word", ["+-+", "-+", "ab"])
    def test_malformed(self, word):
        with pytest.raises(ValueError):
            DyckPath(word)

    @pytest.mark.parametrize("data", [42, None, ["U", "D"], {"steps": "UD"}])
    def test_json_must_be_a_string(self, data):
        with pytest.raises(TypeError):
            DyckPath.from_json(data)

    def test_statistics(self):
        path = DyckPath(A5)
        assert path.n == 12 and path.peaks == 6 and path.k == 3
        assert path.heights[:6] == (0, 1, 2, 3, 2, 1)

    @pytest.mark.parametrize("n", range(4, 10))
    def test_counts(self, n):
        for k in range(0, n - 3):
            assert len(enumerate_dyck_paths(n, k)) == narayana(n - 3, k + 1)

    def test_bad_range(self):
        with pytest.raises(BadRange):
            enumerate_dyck_paths(3, 0)

    def test_order_matches_filtered_words(self):
        for n in range(4, 14):
            words = all_dyck_words(2 * (n - 3))
            for k in range(0, n - 3):
                expected = [w for w in words if w.count("+-") == n - 3 - k]
                assert [p.steps for p in enumerate_dyck_paths(n, k)] == expected

    def test_generated_paths_pass_the_checked_constructor(self):
        for n in range(4, 13):
            for k in range(0, n - 3):
                for path in enumerate_dyck_paths(n, k):
                    checked = DyckPath(path.steps)
                    assert checked == path and vars(checked) == vars(path)

    def test_json_round_trip(self):
        path = DyckPath(A5)
        word = path.to_json()
        assert word.startswith("UUU") and set(word) <= {"U", "D"}
        assert DyckPath.from_json(word) == path

    def test_ascii(self):
        assert render.ASCII["dyck"](DyckPath("+-")) == "/\\"
        assert "/" in render.ASCII["dyck"](DyckPath(A5))


class TestOmegaLP:
    def test_base(self):
        assert omega_LP(PathPair("", "")).steps == "+-"

    def test_small_pair(self):
        assert omega_LP(PathPair("HVHHV", "HVHVH")).steps == "+-++-++--+--"

    def test_wide_pair(self):
        assert omega_LP(PathPair("HHVHHVVH", "VVHVHHHH")).steps == A5

    @pytest.mark.parametrize("n", range(4, 9))
    def test_bijection_and_peaks(self, n):
        for k in range(0, n - 3):
            paths = {omega_LP(p).steps for p in enumerate_path_pairs(n, k)}
            assert len(paths) == narayana(n - 3, k + 1)
            assert paths == {p.steps for p in enumerate_dyck_paths(n, k)}


class TestOmegaPL:
    def test_base(self):
        pair = omega_PL(DyckPath("+-"))
        assert (pair.wu, pair.wl) == ("", "")

    def test_empty_path_is_out_of_range(self):
        # it would share the pair ("", "") with "+-" and break the round trip
        with pytest.raises(BadRange):
            omega_PL(DyckPath(""))

    def test_wide_path(self):
        pair = omega_PL(DyckPath(A5))
        assert (pair.wu, pair.wl) == ("HHVHHVVH", "VVHVHHHH")

    @pytest.mark.parametrize("n", range(4, 9))
    def test_round_trips(self, n):
        for k in range(0, n - 3):
            for pair in enumerate_path_pairs(n, k):
                assert omega_PL(omega_LP(pair)) == pair
            for path in enumerate_dyck_paths(n, k):
                assert omega_LP(omega_PL(path)) == path


class TestShadowTouch:
    def test_marked_points(self):
        path = DyckPath(A5)
        assert [shadow_touch(path, x) for x in (0, 1, 5)] == [3, 5, 4]

    def test_adjacent_points_differ_by_one(self):
        path = DyckPath(A5)
        assert shadow_touch(path, 1) == 1 + shadow_touch(path, 5)

    def test_one_arch(self):
        assert shadow_touch(DyckPath("+++---"), 0) == 1

    def test_terminal_point(self):
        assert shadow_touch(DyckPath("+-"), 2) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            shadow_touch(DyckPath("+-"), 3)


class TestStepLabels:
    def test_wide_path(self):
        ups, downs, up_i, down_i = dyck_step_labels(DyckPath(A5))
        assert ups == tuple(range(1, 10))
        assert downs == (4, 4, 6, 7, 7, 8, 8, 9, 10)
        assert up_i == (1, 2, 4)
        assert down_i == (8, 4, 7)

    def test_staircase(self):
        ups, downs, up_i, down_i = dyck_step_labels(DyckPath("+-+-+-"))
        assert ups == (1, 2, 3)
        assert downs == (2, 3, 4)
        assert up_i == () and down_i == ()

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matched_pairs_bound_balanced_subwords(self, n):
        for k in range(0, n - 3):
            for path in enumerate_dyck_paths(n, k):
                steps = path.steps
                ups, downs, up_i, down_i = dyck_step_labels(path)
                stack = []
                partner = {}
                for x, ch in enumerate(steps):
                    if ch == "+":
                        stack.append(x)
                    else:
                        partner[stack.pop()] = x
                up_pos = [x for x, ch in enumerate(steps) if ch == "+"]
                down_label = dict(
                    zip((x for x, ch in enumerate(steps) if ch == "-"), downs)
                )
                for u, d in zip(up_i, down_i):
                    start = up_pos[u - 1]
                    end = partner[start]
                    assert down_label[end] == d
                    inner = steps[start + 1 : end]
                    assert inner.count("+") == inner.count("-")


class TestPlanePartitions:
    WORDS = ("HHVHHV", "VHHHHV", "VHVHHH")

    def test_fill(self):
        pp = paths_to_plane_partition(self.WORDS)
        assert (pp.a, pp.b, pp.c) == (2, 4, 3)
        assert pp.rows == ((3, 3, 2, 2), (1, 1, 1, 0))
        assert pp.entry(1, 3) == 2

    def test_json_drops_empty(self):
        pp = paths_to_plane_partition(self.WORDS)
        data = pp.to_json()
        assert data["rows"] == [[3, 3, 2, 2], [1, 1, 1]]
        assert PlanePartition.from_json(data) == pp

    def test_round_trips(self):
        pp = paths_to_plane_partition(self.WORDS)
        assert plane_partition_to_paths(pp).words == self.WORDS
        for tup in enumerate_path_tuples(2, 2, 2):
            assert plane_partition_to_paths(paths_to_plane_partition(tup)) == tup

    def test_crossing(self):
        with pytest.raises(Crossing):
            paths_to_plane_partition(("VHHHHV", "HHVHHV"))

    def test_border_hugging(self):
        pp = paths_to_plane_partition(("HHHHVV",) * 3)
        assert pp.rows == ((0, 0, 0, 0), (0, 0, 0, 0))
        assert pp.to_json()["rows"] == []

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            PlanePartition(1, 2, 3, ((1, 2),))
        with pytest.raises(ValueError):
            PlanePartition(2, 1, 3, ((1,), (2,)))
        with pytest.raises(ValueError):
            PlanePartition(1, 1, 2, ((3,),))
        with pytest.raises(ValueError):
            PlanePartition(2, 2, 1, ((1, 1),))

    def test_macmahon_small(self):
        assert macmahon(3, 5, 0) == 1
        assert macmahon(1, 1, 1) == 2
        assert macmahon(1, 1, 2) == 3

    def test_macmahon_matches_the_fraction_product(self):
        for a, b, c in itertools.product(range(8), repeat=3):
            assert macmahon(a, b, c) == fraction_macmahon(a, b, c)

    def test_shapes_inside_match_subpartitions(self):
        outers = [(b,) * a for a in range(5) for b in range(5)]
        outers += [(5, 3, 3, 1), (4, 4, 0), (6, 2, 1, 1, 0), (3, 3, 2, 2, 1, 1)]
        for outer in outers:
            assert list(_shapes((0,) * len(outer), outer)) == list(subpartitions(outer))

    def test_macmahon_symmetry(self):
        for a in range(0, 7):
            for b in range(a, 7):
                for c in range(b, 7):
                    values = {
                        macmahon(*perm) for perm in itertools.permutations((a, b, c))
                    }
                    assert len(values) == 1

    def test_macmahon_matches_narayana(self):
        for n in range(4, 13):
            for k in range(0, n - 3):
                assert macmahon(k, n - k - 4, 2) == narayana(n - 3, k + 1)

    def test_tuple_counts(self):
        for a in range(0, 4):
            for b in range(0, 4):
                for c in range(0, 4):
                    count = sum(1 for _ in enumerate_path_tuples(a, b, c))
                    assert count == macmahon(a, b, c)

    @pytest.mark.parametrize(
        "box", [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
        + [(4, 4, 3)] + [(a, b, c) for a in range(4) for b in range(4) for c in (4, 5)],
    )
    def test_tuples_match_unmemoised_reference(self, box):
        got = list(enumerate_path_tuples(*box))
        assert [t.words for t in got] == [t.words for t in reference_path_tuples(*box)]
        # the generator builds its tuples without the public check
        assert all(t == NoncrossingPathTuple(t.words) for t in got)

    def test_tuples_are_made_lazily(self):
        # the first of the (7, 7, 7) tuples needs the shapes of one chain, not the chains
        tracemalloc.start()
        try:
            first = next(enumerate_path_tuples(7, 7, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.words == ("V" * 7 + "H" * 7,) * 7
        assert peak < 8 * 2**20, peak

    def test_tuple_validation(self):
        with pytest.raises(ValueError):
            NoncrossingPathTuple(("HV", "VHV"))
        # each word is checked in order: letters, then the first word's rectangle
        with pytest.raises(ValueError, match="only H and V"):
            NoncrossingPathTuple(("HV", "VH", "HX"))
        with pytest.raises(ValueError, match="one rectangle"):
            NoncrossingPathTuple(("HV", "VVH", "X"))
        with pytest.raises(ValueError, match="only H and V"):
            NoncrossingPathTuple(("X", "VVH"))
        with pytest.raises(BadRange):
            list(enumerate_path_tuples(-1, 2, 2))
