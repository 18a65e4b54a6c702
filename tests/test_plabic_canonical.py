"""The plabic canonical form against an independent reference form.

The reference is the earlier serialization: the same breadth-first
numbering, then sorted colors, sorted edges and every internal vertex's
neighbor cycle at its least rotation.  Two graphs must agree under the
canonical form exactly when they agree under the reference.
"""

import gc
import hashlib
import json
import random
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import catalan, plabic
from positroids.catalan import BinaryTree, enumerate_trees, tree_to_graph
from positroids.errors import BadAttachment, NotReduced
from positroids.permutations import BLACK, WHITE, DecoratedPermutation
from positroids.plabic import (
    PlabicGraph,
    base_bridge,
    base_square,
    bcfw_permutations,
    blow_up,
    enumerate_bcfw_graphs,
    split,
    trip_permutation,
)

# sha256 of the family bytes (see test_family_bytes_are_pinned), recorded
# with the sorted reference form as the canonical form
FAMILY_SHA256 = "472195f5466a38ef421fdeaa9f79bd7aa90390bb26a2562053317c2f75cfea0a"
# the m=4 graph and permutation bytes for n = 11 and 12, recorded while the
# family still built every blow-up and deduplicated afterwards
FAMILY_SHA256_11_12 = "fcf59bfc6d4dcd6e5d4f47144b2bee2df6eb1a2136bea2c87b9c46ed0258c1e8"


def reference_form(g: PlabicGraph) -> tuple:
    canon: dict[int, int] = {}
    arrival: dict[int, int] = {}
    next_id = g.n
    for b in range(1, g.n + 1):
        if b in canon:
            continue
        canon[b] = b
        arrival[b] = g.rotation[b][0]
        queue = [b]
        while queue:
            v = queue.pop(0)
            halves = tuple(g.rotation[v])
            at = halves.index(arrival[v])
            for h in halves[at:] + halves[:at]:
                u = g.vertex_of(h ^ 1)
                if u not in canon:
                    if u < 0:
                        next_id += 1
                        canon[u] = next_id
                    else:
                        canon[u] = u
                    arrival[u] = h ^ 1
                    queue.append(u)
    colors = tuple(sorted((canon[v], c) for v, c in g.colors.items()))
    edges = tuple(sorted(tuple(sorted((canon[a], canon[b]))) for a, b in g.edges))
    rotations = []
    for v in g.colors:
        cycle = tuple(canon[g.vertex_of(h ^ 1)] for h in g.rotation[v])
        least = min(cycle[i:] + cycle[:i] for i in range(len(cycle)))
        rotations.append((canon[v], least))
    return (g.n, colors, edges, tuple(sorted(rotations)))


def raw_children(n: int) -> list[PlabicGraph]:
    """Every child the m=2 and m=4 recursions build at n, before dedupe."""
    out = []
    for k in range(1, n):
        if k <= n - 2:
            out += [split(g, n - 1, WHITE) for g in enumerate_bcfw_graphs(n - 1, k, 2)]
        if k >= 2:
            out += [split(g, n - 1, BLACK) for g in enumerate_bcfw_graphs(n - 1, k - 1, 2)]
    if n >= 5:
        for k in range(2, n - 1):
            parents = []
            if k <= n - 3:
                parents += [(g, BLACK) for g in enumerate_bcfw_graphs(n - 1, k, 4)]
            if k >= 3:
                parents += [(g, WHITE) for g in enumerate_bcfw_graphs(n - 1, k - 1, 4)]
            for g, want in parents:
                for i in range(2, n - 1):
                    anchor = g.boundary_neighbor(i)
                    if anchor < 0 and g.colors[anchor] == want:
                        out.append(blow_up(g, i))
    return out


def test_equality_matches_reference_on_raw_children():
    duplicates = 0
    for n in range(3, 11):
        children = raw_children(n)
        assert children
        by_reference: dict[tuple, set] = {}
        by_form: dict[tuple, set] = {}
        for g in children:
            ref, form = reference_form(g), g.canonical_form()
            by_reference.setdefault(ref, set()).add(form)
            by_form.setdefault(form, set()).add(ref)
        assert all(len(forms) == 1 for forms in by_reference.values())
        assert all(len(refs) == 1 for refs in by_form.values())
        duplicates += len(children) - len(by_form)
    # commuting blow-ups do rebuild graphs, so real collisions are compared
    assert duplicates > 0


def layout(g: PlabicGraph) -> tuple:
    """The stored half-edge tuples: owners, clockwise successors, each
    vertex's first half-edge and each boundary's half-edge."""
    return g._ends, g._next, g._firsts, g._bound


def assert_checked(child: PlabicGraph) -> None:
    checked = PlabicGraph(child.n, child.colors, child.edges, child.rotation)
    assert layout(checked) == layout(child)  # and so the same form, edges and rotation


def test_surgery_output_passes_the_public_check():
    # split and blow_up build their children without validating them; the
    # validating constructor must accept every one and derive the same
    # half-edge tuples
    families = [(n, k, 2) for n in range(2, 12) for k in range(1, n)]
    families += [(n, k, 4) for n in range(4, 12) for k in range(2, n - 1)]
    for family in families:
        for g in enumerate_bcfw_graphs(*family):
            assert_checked(g)


def renumbering_split(graph: PlabicGraph, i: int, color: str) -> tuple[PlabicGraph, dict]:
    """`split` as first written, kept as an oracle: append the three new
    edges, then renumber every later half-edge in every rotation.  Returns
    the checked build and the color dict it was built from."""
    edges, rotation = list(graph.edges), graph.rotation
    for b in range(i + 1, graph.n + 1):
        h = rotation[b][0]
        x, y = edges[h >> 1]
        edges[h >> 1] = (x, b + 1) if h & 1 else (b + 1, y)
    h_i = rotation[i][0]
    rotation = {v + (v > i): h for v, h in rotation.items()}
    colors = dict(graph.colors)
    old_edge = h_i // 2
    v_new = min([0, *colors]) - 1
    colors[v_new] = color
    far = edges[old_edge][1 - h_i % 2]
    base = len(edges)
    edges += [(far, v_new), (v_new, i), (v_new, i + 1)]
    rotation[far] = tuple(2 * base if h == h_i ^ 1 else h for h in rotation[far])
    rotation[v_new] = (2 * base + 1, 2 * (base + 1), 2 * (base + 2))
    rotation[i] = (2 * (base + 1) + 1,)
    rotation[i + 1] = (2 * (base + 2) + 1,)
    del edges[old_edge]
    rotation = {v: tuple(h - 2 if h > 2 * old_edge else h for h in halves)
                for v, halves in rotation.items()}
    return PlabicGraph(graph.n + 1, colors, tuple(edges), rotation), colors


def reference_blow_up(graph: PlabicGraph, i: int) -> tuple[PlabicGraph, dict]:
    """`blow_up` on edge pairs, kept as an oracle: the old vertex's three
    edges end at the square's corners instead, the square's five edges are
    appended, and the checked constructor derives the half-edge owners.
    Returns the checked build and the color dict it was built from."""
    edges, rotation = list(graph.edges), graph.rotation
    for b in range(i + 1, graph.n + 1):
        h = rotation[b][0]
        x, y = edges[h >> 1]
        edges[h >> 1] = (x, b + 1) if h & 1 else (b + 1, y)
    h_i = rotation[i][0]
    rotation = {v + (v > i): h for v, h in rotation.items()}
    colors = dict(graph.colors)
    v = graph.boundary_neighbor(i)
    halves = rotation[v]
    at = halves.index(h_i ^ 1)
    h_e, h_f = halves[(at + 1) % 3], halves[(at + 2) % 3]
    del colors[v], rotation[v]
    low = min([0, *colors]) - 1
    a, b, c, d = low, low - 1, low - 2, low - 3
    colors.update({a: BLACK, b: WHITE, c: BLACK, d: WHITE})
    for h, w in ((h_e, a), (h_f, b), (h_i ^ 1, c)):
        x, y = edges[h >> 1]
        edges[h >> 1] = (x, w) if h & 1 else (w, y)
    square = [(a, b), (b, c), (c, d), (d, a), (d, i + 1)]
    half = {}  # half[x, y]: the half-edge of edge xy at x
    for j, (x, y) in enumerate(square, len(edges)):
        half[x, y], half[y, x] = 2 * j, 2 * j + 1
    edges += square
    # clockwise: a toward e, b toward f, c at boundary i, d at boundary i+1
    rotation[a] = (h_e, half[a, b], half[a, d])
    rotation[b] = (h_f, half[b, c], half[b, a])
    rotation[c] = (half[c, b], h_i ^ 1, half[c, d])
    rotation[d] = (half[d, a], half[d, c], half[d, i + 1])
    rotation[i + 1] = (half[i + 1, d],)
    return PlabicGraph(graph.n + 1, colors, tuple(edges), rotation), colors


def vertex_colors(g: PlabicGraph) -> dict:
    """Each internal vertex's color read at every half-edge it owns, which
    must agree; the boundary's half-edges must read "."."""
    seen: dict = {}
    for v, c in zip(g._ends, g._hue):
        assert seen.setdefault(v, c) == c and (c == ".") == (v > 0), (v, c)
    return {v: {"b": BLACK, "w": WHITE}[c] for v, c in seen.items() if v < 0}


def test_surgeries_at_every_boundary_match_the_checked_constructor():
    # the family splits only at n-1, where the deleted edge is the last one;
    # every other boundary moves later half-edges down, and base_bridge's
    # far end is itself a boundary.  Each oracle is a checked build from dicts,
    # so equal tuples also show the child passing the checked constructor
    graphs = [base_bridge()] + [g for family in families_up_to(10)
                                for g in enumerate_bcfw_graphs(*family)]
    splits = blow_ups = 0
    for g in graphs:
        before = g.to_json(), layout(g)
        for i in range(1, g.n + 1):
            for color in (WHITE, BLACK):
                child = split(g, i, color)
                oracle, colors = renumbering_split(g, i, color)
                assert layout(child) == layout(oracle) and vertex_colors(child) == colors
                splits += 1
            v = g.boundary_neighbor(i)
            if v < 0 and g.degree(v) == 3:
                child = blow_up(g, i)
                oracle, colors = reference_blow_up(g, i)
                assert layout(child) == layout(oracle) and vertex_colors(child) == colors
                blow_ups += 1
            else:
                with pytest.raises(BadAttachment):
                    blow_up(g, i)
        assert (g.to_json(), layout(g)) == before
    assert splits > 2 * len(graphs) and blow_ups > len(graphs)


def test_cached_members_hold_untracked_tuples():
    # a tuple of ints leaves the collector's tracked set the first time it
    # survives a collection; a list never does, and every gen-1 and full
    # collection would walk the cached members' lists again
    graphs = enumerate_bcfw_graphs(9, 4, 4) + enumerate_bcfw_graphs(9, 4, 2)
    gc.collect()
    for g in graphs:
        assert not any(map(gc.is_tracked, layout(g)))
        assert not any(map(gc.is_tracked, vars(g).values()))


def test_degree_and_neighbors_read_the_rotation():
    for family in families_up_to(9):
        for g in enumerate_bcfw_graphs(*family):
            rotation = g.rotation
            for v, halves in rotation.items():
                assert g.degree(v) == len(halves)
                assert g.neighbors(v) == tuple(g._ends[h ^ 1] for h in halves)
            for v in (0, g.n + 1, min(rotation) - 1):
                with pytest.raises(KeyError):
                    g.degree(v)
                with pytest.raises(KeyError):
                    g.neighbors(v)


def test_cached_members_are_rotation_systems():
    # _next is sigma: a permutation of the half-edges whose cycles are the
    # vertices; _firsts names each vertex once, in rotation (to_json) key
    # order; _bound[b-1] is boundary b's half-edge; _hue[h] is the color of
    # h's owner, "." on the boundary; no rotation or color dict is kept
    for family in families_up_to(11):
        for g in enumerate_bcfw_graphs(*family):
            rotation = g.rotation  # each first half's sigma-cycle
            assert sorted(g._next) == list(range(len(g._ends)))
            owners = [g._ends[h] for h in g._firsts]
            assert owners == list(rotation) == [int(v) for v in g.to_json()["rotation"]]
            assert sorted(owners) == sorted([*range(1, g.n + 1), *g.colors])
            for v, cycle in rotation.items():
                assert {g._ends[h] for h in cycle} == {v}
            assert sorted(h for cycle in rotation.values() for h in cycle) == sorted(g._next)
            assert [g._ends[h] for h in g._bound] == list(range(1, g.n + 1))
            assert all(type(x) is int for t in layout(g) for x in t)
            assert not [k for k, v in vars(g).items() if isinstance(v, dict)]
            assert type(g._hue) is str and len(g._hue) == len(g._ends)
            assert [h for h, c in enumerate(g._hue) if c == "."] == [
                h for h, v in enumerate(g._ends) if v > 0]


def test_cached_members_store_no_edge_pairs():
    # the half-edge owners are the only edge store; `edges` is read off them
    def is_pairs(x):
        return isinstance(x, tuple) and x != () and all(
            isinstance(e, tuple) and len(e) == 2 for e in x)

    graphs = enumerate_bcfw_graphs(9, 4, 4) + enumerate_bcfw_graphs(9, 4, 2)
    for g in graphs:
        assert not any(map(is_pairs, gc.get_referents(g)))
        assert not any(map(is_pairs, vars(g).values()))
        assert g.edges == PlabicGraph.from_json(g.to_json()).edges


def test_shared_graphs_cannot_be_changed():
    # enumerate_bcfw_graphs returns the cached members themselves, and every
    # tree_to_graph starts from the one base_square(): a write through the
    # colors view or to an attribute must not reach later calls
    trees = enumerate_trees(6, 1)
    requests = {
        (4, 2): lambda: [g.to_json() for g in enumerate_bcfw_graphs(4, 2, 4)],
        (6, 3): lambda: [g.to_json() for g in enumerate_bcfw_graphs(6, 3, 4)],
        "trees": lambda: [tree_to_graph(t).to_json() for t in trees],
    }
    before = {name: request() for name, request in requests.items()}
    for g in (enumerate_bcfw_graphs(4, 2, 4)[0], base_square()):
        for v in g.internal_vertices():
            g.colors[v] = WHITE if g.colors[v] == BLACK else BLACK
        g.colors.clear()
        for name in ("colors", "_hue", "_ends"):
            with pytest.raises(AttributeError):
                setattr(g, name, getattr(g, name))
    assert {name: request() for name, request in requests.items()} == before


def renamed(g: PlabicGraph, rng: random.Random) -> PlabicGraph:
    """Same embedding with new internal ids, edge order and directions, and
    each rotation starting at a random half-edge."""
    ids = rng.sample(range(-10 * len(g.colors) - 10, 0), len(g.colors))
    name = dict(zip(g.colors, ids))
    name.update({b: b for b in range(1, g.n + 1)})
    order = list(range(len(g.edges)))
    rng.shuffle(order)
    flip = [rng.random() < 0.5 for _ in order]
    half = {}
    edges = []
    for new, old in enumerate(order):
        a, b = g.edges[old]
        if flip[new]:
            a, b = b, a
        edges.append((name[a], name[b]))
        half[2 * old] = 2 * new + flip[new]
        half[2 * old + 1] = 2 * new + 1 - flip[new]
    rotation = {}
    for v, hs in g.rotation.items():
        at = rng.randrange(len(hs))
        rotation[name[v]] = tuple(half[h] for h in hs[at:] + hs[:at])
    return PlabicGraph(
        g.n, {name[v]: c for v, c in g.colors.items()}, tuple(edges), rotation
    )


FAMILIES = [(n, k, 2) for n in range(2, 9) for k in range(1, n)] + [
    (n, k, 4) for n in range(4, 9) for k in range(2, n - 1)
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(min_value=0), st.randoms())
def test_form_ignores_internal_names(family, index, rng):
    graphs = enumerate_bcfw_graphs(*family)
    g = graphs[index % len(graphs)]
    h = renamed(g, rng)
    assert h.canonical_form() == g.canonical_form()
    assert h == g and hash(h) == hash(g)
    assert reference_form(h) == reference_form(g)


def test_family_bytes_are_pinned():
    digest = hashlib.sha256()
    for m in (2, 4):
        for n in range(m, 11):
            for k in range(m // 2, n - m // 2 + 1):
                graphs = enumerate_bcfw_graphs(n, k, m)
                digest.update(json.dumps([g.to_json() for g in graphs]).encode())
            for k in range(0, n - m + 1):
                perms = bcfw_permutations(n, k, m)
                digest.update(json.dumps([p.to_json() for p in perms]).encode())
    assert digest.hexdigest() == FAMILY_SHA256


def test_larger_m4_family_bytes_are_pinned():
    digest = hashlib.sha256()
    for n in (11, 12):
        for k in range(2, n - 1):
            graphs = enumerate_bcfw_graphs(n, k, 4)
            digest.update(json.dumps([g.to_json() for g in graphs]).encode())
        for k in range(0, n - 3):
            perms = bcfw_permutations(n, k, 4)
            digest.update(json.dumps([p.to_json() for p in perms]).encode())
    assert digest.hexdigest() == FAMILY_SHA256_11_12


# ----------------------------------------------------------------------
# the m=4 family keys blow-ups by tree word before building them

M4_FAMILIES = [(n, k) for n in range(4, 13) for k in range(2, n - 1)]
_REFERENCE: dict[tuple[int, int], tuple[PlabicGraph, ...]] = {}


def reference_family(n: int, k: int) -> tuple[PlabicGraph, ...]:
    """The m=4 family as first built: every anchored blow-up of every
    parent, deduplicated by canonical form afterwards."""
    if (n, k) not in _REFERENCE:
        out, seen = [], set()
        if n == 4:
            out = [base_square()] if k == 2 else []
        else:
            parents = []
            if k <= n - 3:
                parents += [(g, BLACK) for g in reference_family(n - 1, k)]
            if k >= 3:
                parents += [(g, WHITE) for g in reference_family(n - 1, k - 1)]
            for g, want in parents:
                for i in range(2, n - 1):
                    anchor = g.boundary_neighbor(i)
                    if anchor < 0 and g.colors[anchor] == want:
                        child = blow_up(g, i)
                        if child not in seen:
                            seen.add(child)
                            out.append(child)
        _REFERENCE[(n, k)] = tuple(out)
    return _REFERENCE[(n, k)]


def encode(tree: BinaryTree) -> str:
    """The tree's Dyck word: "+", horizontal child, "-", vertical child."""
    if tree.is_leaf:
        return ""
    return "+" + encode(tree.horizontal) + "-" + encode(tree.vertical)


def decode(word: str) -> BinaryTree:
    # the word and one more "-" are the preorder of the nodes: "+" internal, "-" leaf
    steps = iter(word + "-")

    def node() -> BinaryTree:
        if next(steps) == "-":
            return BinaryTree()
        horizontal = node()
        return BinaryTree(horizontal, node())

    tree = node()
    assert next(steps, None) is None
    return tree


@pytest.fixture
def cold_families(monkeypatch):
    """Empty family caches and a cold catalan family plan for one test."""
    monkeypatch.setattr(plabic, "_FAMILY_CACHE", {})
    monkeypatch.setattr(plabic, "_TRIPS", {})
    monkeypatch.setattr(catalan, "_family_plan", lru_cache(maxsize=None)(
        catalan._family_plan.__wrapped__))


def test_family_matches_build_then_dedupe():
    for n, k in M4_FAMILIES:
        graphs = enumerate_bcfw_graphs(n, k, 4)
        reference = reference_family(n, k)
        assert [g.to_json() for g in graphs] == [g.to_json() for g in reference]


def test_words_are_the_family_trees():
    for n, k in M4_FAMILIES:
        graphs = enumerate_bcfw_graphs(n, k, 4)
        words = catalan._family_plan(n, k)[0]
        assert len(words) == len(graphs)
        assert sorted(words) == sorted(encode(t) for t in enumerate_trees(n, k - 2))
        if n <= 10:
            for g, word in zip(graphs, words):
                assert tree_to_graph(decode(word)) == g


def test_anchor_colour_is_read_off_the_tree_word():
    # the rule the family plan rests on: boundary i hangs on a black vertex
    # exactly when leaf i is a peak (a horizontal leaf), else on a white one
    boundaries = 0
    for n, k in M4_FAMILIES:
        if n > 11:
            continue
        for g, word in zip(enumerate_bcfw_graphs(n, k, 4), catalan._family_plan(n, k)[0]):
            leaves = [p for p, step in enumerate(word) if step == "-"] + [len(word)]
            for i, p in enumerate(leaves, 2):
                anchor = g.boundary_neighbor(i)
                assert anchor < 0 and g.degree(anchor) == 3, (n, k, word, i)
                assert g.colors[anchor] == (BLACK if word[p - 1] == "+" else WHITE), (word, i)
                boundaries += 1
    assert boundaries == 17_576


def test_one_blow_up_per_kept_child(monkeypatch, cold_families):
    calls = []
    real = plabic.blow_up
    monkeypatch.setattr(plabic, "blow_up", lambda g, i: calls.append(i) or real(g, i))
    for n, k in M4_FAMILIES:
        calls.clear()
        graphs = plabic._family(n, k, 4)
        assert len(calls) == (len(graphs) if n > 4 else 0)


# ----------------------------------------------------------------------
# family members are distinct by construction: nothing is deduplicated

_REFERENCE_M2: dict[tuple[int, int], tuple[PlabicGraph, ...]] = {}


def reference_m2_family(n: int, k: int) -> tuple[PlabicGraph, ...]:
    """The m=2 family as first built: every parent split at its last
    boundary, deduplicated by canonical form afterwards."""
    if (n, k) not in _REFERENCE_M2:
        children = []
        if n == 2:
            children = [base_bridge()] if k == 1 else []
        else:
            if k <= n - 2:
                children += [split(g, n - 1, WHITE) for g in reference_m2_family(n - 1, k)]
            if k >= 2:
                children += [split(g, n - 1, BLACK) for g in reference_m2_family(n - 1, k - 1)]
        out, seen = [], set()
        for g in children:
            if g not in seen:
                seen.add(g)
                out.append(g)
        _REFERENCE_M2[(n, k)] = tuple(out)
    return _REFERENCE_M2[(n, k)]


def test_m2_family_matches_split_then_dedupe():
    for n in range(2, 12):
        for k in range(1, n):
            graphs = enumerate_bcfw_graphs(n, k, 2)
            reference = reference_m2_family(n, k)
            assert [g.to_json() for g in graphs] == [g.to_json() for g in reference]


def families_up_to(n_max: int) -> list[tuple[int, int, int]]:
    return [(n, k, 2) for n in range(2, n_max + 1) for k in range(1, n)] + [
        (n, k, 4) for n in range(4, n_max + 1) for k in range(2, n - 1)
    ]


def cell_count(n: int, k: int, m: int) -> int:
    """C(n-2, k-1) split words for m=2, Narayana N(n-3, k-1) trees for m=4."""
    if m == 2:
        return comb(n - 2, k - 1)
    a, b = n - 3, k - 1
    return comb(a, b) * comb(a, b - 1) // a


def test_families_have_distinct_trip_permutations():
    # isomorphic graphs share a trip permutation, so pairwise distinct
    # permutations show the members pairwise distinct with no canonical form
    for n, k, m in families_up_to(12):
        graphs = enumerate_bcfw_graphs(n, k, m)
        perms = {trip_permutation(g) for g in graphs}
        assert len(graphs) == len(perms) == cell_count(n, k, m), (n, k, m)


def test_families_are_built_without_canonical_forms(monkeypatch, cold_families):
    def refuse(self):
        raise AssertionError("a family build computed a canonical form")

    monkeypatch.setattr(PlabicGraph, "canonical_form", refuse)
    for n, k, m in families_up_to(10):
        assert len(enumerate_bcfw_graphs(n, k, m)) == cell_count(n, k, m)


# ----------------------------------------------------------------------
# trip permutations are carried through the recursion, not traced


def test_carried_permutations_equal_traced_ones_in_order():
    for n, k, m in families_up_to(12):
        shift = m // 2
        traced = [trip_permutation(g).left_shift(shift) for g in enumerate_bcfw_graphs(n, k, m)]
        assert bcfw_permutations(n, k - shift, m) == traced, (n, k, m)


def test_permutation_families_are_built_without_tracing(monkeypatch, cold_families):
    def refuse(graph):
        raise AssertionError("a permutation family traced a graph")

    monkeypatch.setattr(plabic, "trip_permutation", refuse)
    for n, k, m in families_up_to(10):
        perms = bcfw_permutations(n, k - m // 2, m)
        assert len(set(perms)) == cell_count(n, k, m), (n, k, m)


def test_carried_permutations_equal_their_checked_rebuilds():
    # bcfw_permutations builds its members without the public check
    for n, k, m in families_up_to(10):
        for p in bcfw_permutations(n, k - m // 2, m):
            checked = DecoratedPermutation(p.n, p.images, p.white_fixed)
            assert checked == p and vars(checked) == vars(p), (n, k, m)


def test_base_trips_are_the_traced_ones():
    enumerate_bcfw_graphs(2, 1, 2), enumerate_bcfw_graphs(4, 2, 4)
    assert plabic._TRIPS[2, 1, 2] == (trip_permutation(base_bridge()).images,)
    assert plabic._TRIPS[4, 2, 4] == (trip_permutation(base_square()).images,)


def test_blow_up_rule_refuses_a_trip_through_the_square_twice():
    # a real blow-up, its parent's images crafted so that the trip into i
    # starts where the trip the square cuts starts: only in a graph that is
    # not reduced can one trip pass the anchor twice like that
    g, images = enumerate_bcfw_graphs(7, 3, 4)[0], plabic._TRIPS[7, 3, 4][0]
    i = next(i for i in range(2, 8) if g.degree(g.boundary_neighbor(i)) == 3)
    color = g.colors[g.boundary_neighbor(i)]
    child = blow_up(g, i)
    assert plabic._child_trips(images, i, color, child) == trip_permutation(child).images
    s = plabic._trip_end(child, i if color == WHITE else i + 1, back=True)
    crafted = list(images)
    p, q = images.index(i), s - (s > i) - 1  # P and r^-1(s), counted from 0
    crafted[p], crafted[q] = crafted[q], crafted[p]
    with pytest.raises(NotReduced):
        plabic._child_trips(tuple(crafted), i, color, child)
