"""Planar bicolored graphs in a disk: trips, surgeries, recursive families.

A graph is stored as a rotation system.  Boundary vertices are 1..n
clockwise around the disk and always have degree one; internal vertices
are negative integers carrying a color.  Edge j owns half-edges 2j and
2j+1.  Four flat tuples of ints and a string are the whole graph: the owner
of each half-edge (``_ends``), its clockwise successor at that vertex
(``_next``, the permutation sigma of a combinatorial map), the first
half-edge of each vertex in ``to_json()`` key order (``_firsts``), the
half-edge of each boundary vertex (``_bound``), and the color of each
half-edge's owner (``_hue``: "b", "w", or "." on the boundary).  ``colors``,
``edges`` and ``rotation`` are fresh views on each read, never kept.

A layout is the tuple ``(n, hue, ends, next, firsts, bound, low)``: the stored
names (``PlabicGraph._stored``), then the lowest vertex id (0 if none), below
which a surgery takes fresh ids.  The family caches keep layouts, not records:
CPython's collector untracks a tuple of ints and strs, then a tuple of such
tuples, one level per collection, and then never walks a cached member again.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .diagrams import OPlusDiagram, is_le_diagram
from .errors import (
    BadAttachment,
    BadBoundary,
    BadRange,
    MissingVariable,
    NonLollipopFixedPoint,
    NotLe,
    NotReduced,
    _int,
    _list,
)
from .permutations import BLACK, WHITE, DecoratedPermutation
from .records import Record


class PlabicGraph(Record):
    """The four half-edge tuples and the ``_hue`` string of the module docstring,
    made per request from a layout (``_from_layouts``): no view writes through to it."""

    _fields = ("n", "colors")
    _stored = ("n", "_hue", "_ends", "_next", "_firsts", "_bound")
    _canon = None  # the canonical form, stored on first use
    _NAME = {"b": BLACK, "w": WHITE}  # a ``_hue`` character's color; "." has none

    def __init__(self, n, colors, edges, rotation) -> None:
        """Checked: edge j joins edges[j][0] (half-edge 2j) to edges[j][1] (half-edge 2j+1)."""
        for b in range(1, n + 1):
            if len(rotation.get(b, ())) != 1:
                raise ValueError(f"boundary vertex {b} must have degree one")
        for v, color in colors.items():
            if v >= 0:
                raise ValueError("internal vertices must use negative ids")
            if color not in (BLACK, WHITE):
                raise ValueError(f"bad color {color!r}")
        ends = tuple(v for e in edges if len(e) == 2 for v in e)
        size = len(ends)
        if size != 2 * len(edges):
            raise ValueError("every edge must join exactly two ends")
        nxt = [-1] * size  # the clockwise successor of each half-edge (-1 = unlisted)
        for v, halves in rotation.items():
            if not (1 <= v <= n or v in colors):
                raise ValueError(f"vertex {v} is neither boundary nor colored")
            for h, succ in zip(halves, (*halves[1:], *halves[:1])):
                if not 0 <= h < size or nxt[h] >= 0 or ends[h] != v:
                    raise ValueError(f"rotation at {v} does not match its half-edges")
                nxt[h] = succ
        if -1 in nxt:
            raise ValueError(f"rotation at {ends[nxt.index(-1)]} does not match its half-edges")
        for v in colors:
            if not rotation.get(v):
                raise ValueError(f"internal vertex {v} is isolated")
        hue = "".join(colors[v][0] if v < 0 else "." for v in ends)  # every owner is checked
        firsts = tuple(halves[0] for halves in rotation.values())
        bound = tuple(rotation[b][0] for b in range(1, n + 1))
        for name, value in zip(self._stored, (n, hue, ends, tuple(nxt), firsts, bound)):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_layouts(cls, *layouts) -> list["PlabicGraph"]:
        """Unchecked records of package-built layouts, one column per stored name."""
        return cls._built_many(*zip(*layouts))

    @property
    def _layout(self) -> tuple:
        """The graph as a layout (module docstring), its ``low`` found by a scan."""
        return (*map(self.__getattribute__, self._stored), min((0, *self._ends)))

    @property
    def colors(self) -> dict[int, str]:
        """Each internal vertex's color, read off ``_hue``: a new dict per read."""
        ends, hue, name = self._ends, self._hue, self._NAME
        return {ends[h]: name[hue[h]] for h in self._firsts if ends[h] < 0}

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edge j as the owners of half-edges 2j and 2j+1: read off ``_ends``, never kept."""
        ends = self._ends
        return tuple(zip(ends[::2], ends[1::2]))

    @property
    def rotation(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's half-edges clockwise by ``_next`` from its first: a new dict per read."""
        return {self._ends[h]: tuple(cycle) for h, cycle in self._cycles()}

    def _cycles(self, firsts=()):
        """Each first half-edge (all of ``_firsts`` by default) and its sigma-cycle as a list."""
        nxt = self._next
        for h in firsts or self._firsts:
            cycle, x = [h], nxt[h]
            while x != h:
                cycle.append(x)
                x = nxt[x]
            yield h, cycle

    # ------------------------------------------------------------------
    # structure

    def vertex_of(self, half: int) -> int:
        return self._ends[half]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        """In ``rotation[v]`` order, walking v's sigma-cycle only."""
        for h in self._firsts:
            if self._ends[h] == v:
                return tuple(self._ends[x ^ 1] for x in next(self._cycles((h,)))[1])
        raise KeyError(v)

    def boundary_neighbor(self, i: int) -> int:
        """The unique vertex attached to boundary i."""
        if not 1 <= i <= self.n:
            raise BadBoundary(f"no boundary vertex {i}")
        return self._ends[self._bound[i - 1] ^ 1]

    def internal_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.colors, reverse=True))

    # ------------------------------------------------------------------
    # canonical form and equality

    def canonical_form(self) -> tuple:
        """Serialization invariant under renaming of internal vertices.

        Breadth-first from each unvisited boundary vertex in label
        order; internal vertices are numbered n+1, n+2, ... as they are
        discovered.  The form is (n, flat): per vertex in visiting order,
        ``flat`` holds its color (None on the boundary), its degree d and
        the d numbers of its neighbors, clockwise from the half-edge it was
        reached by.  The degree marks where each vertex ends, so the layout
        is unambiguous, and isomorphic embeddings give identical forms.
        """
        if self._canon is not None:
            return self._canon
        ends, nxt, hue, color = self._ends, self._next, self._hue, self._NAME.get
        canon: dict[int, int] = {}
        flat: list = []
        next_id = self.n
        for b in range(1, self.n + 1):
            if b in canon:
                continue
            canon[b] = b
            queue = deque([self._bound[b - 1]])
            while queue:
                h = arrival = queue.popleft()
                at = len(flat) + 1  # the degree's slot, filled once the cycle is walked
                flat += (color(hue[h]), 0)
                while True:  # clockwise by sigma, from the arrival
                    u = ends[h ^ 1]
                    c = canon.get(u)
                    if c is None:
                        if u < 0:
                            next_id += 1
                            c = next_id
                        else:
                            c = u
                        canon[u] = c
                        queue.append(h ^ 1)
                    flat.append(c)
                    h = nxt[h]
                    if h == arrival:
                        break
                flat[at] = len(flat) - at - 1
        if len(canon) < len(self._firsts):
            raise ValueError("graph has a component without boundary vertices")
        form = (self.n, tuple(flat))
        object.__setattr__(self, "_canon", form)
        return form

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlabicGraph):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    # ------------------------------------------------------------------
    # construction and serialization

    @classmethod
    def from_neighbors(
        cls,
        n: int,
        colors: Mapping[int, str],
        adjacency: Mapping[int, Sequence[int]],
    ) -> "PlabicGraph":
        """Build from clockwise neighbor lists.  No parallel edges."""
        edges: list[tuple[int, int]] = []
        half: dict[tuple[int, int], int] = {}  # half[v, u]: v's half-edge of the edge vu
        for v in sorted(adjacency):
            for u in adjacency[v]:
                if (v, u) not in half:
                    half[v, u], half[u, v] = 2 * len(edges), 2 * len(edges) + 1
                    edges.append((v, u))
        rotation = {v: tuple(half[v, u] for u in nbrs) for v, nbrs in adjacency.items()}
        return cls(n, colors, tuple(edges), rotation)

    def to_json(self) -> dict:
        """One walk of sigma's cycles; internal vertices in descending id order."""
        ends, hue, internal, rotation = self._ends, self._hue, [], {}
        for h, cycle in self._cycles():
            rotation[str(v := ends[h])] = cycle
            if v < 0:
                internal.append((v, self._NAME[hue[h]]))
        internal.sort(reverse=True)
        return {"n": self.n, "internal": [{"id": v, "color": c} for v, c in internal],
                "edges": [[a, b] for a, b in zip(ends[::2], ends[1::2])], "rotation": rotation}

    @classmethod
    def from_json(cls, data: Mapping) -> "PlabicGraph":
        n = _int(data["n"])
        colors = {_int(item["id"]): item["color"] for item in _list(data["internal"])}
        edges = tuple((_int(a), _int(b)) for a, b in _list(data["edges"]))
        if not isinstance(data["rotation"], Mapping):
            raise TypeError("rotation must map each vertex to its half-edges")
        rotation = {int(v): tuple(map(_int, _list(hs))) for v, hs in data["rotation"].items()}
        if [str(v) for v in rotation] != list(data["rotation"]):
            raise ValueError("rotation keys must be vertex ids in plain decimal, each once")
        return cls(n, colors, edges, rotation)


# ----------------------------------------------------------------------
# trips


def trip_permutation(graph: PlabicGraph) -> DecoratedPermutation:
    """Follow each boundary wire through the graph.

    Arriving at a black vertex the wire leaves through the clockwise
    predecessor of its arrival half-edge, at a white vertex through the
    successor.  A wire returning to its start must come from a lollipop,
    whose color decorates the fixed point.
    """
    layout = n, hue, ends, nxt, _, bound, _ = graph._layout
    images, white = [], set()
    for i in range(1, n + 1):
        images.append(end := _trip_end(layout, i))
        if end == i:
            h = bound[i - 1] ^ 1
            if ends[h] > 0 or nxt[h] != h:  # a lollipop is its own sigma-cycle
                raise NonLollipopFixedPoint(f"boundary {i} returns to itself without a lollipop")
            if hue[h] == "w":
                white.add(i)
    return DecoratedPermutation(n, tuple(images), frozenset(white))


def _trip_end(layout: tuple, b: int, back: bool = False) -> int:
    """Where the trip from boundary b ends, or with ``back`` where the one into b starts.
    Forward is sigma; back walks sigma's cycle round to the arrival (sigma twice if trivalent)."""
    _, hue, ends, nxt, _, bound, _ = layout
    cur = bound[b - 1]
    while True:
        arriving = cur ^ 1
        end = ends[arriving]
        if end > 0:
            return end
        cur = nxt[arriving]
        if (hue[arriving] == "b") != back:
            while nxt[cur] != arriving:
                cur = nxt[cur]


def k_statistic(graph: PlabicGraph) -> int:
    """Edge count minus black vertices minus white excess degree."""
    hue = graph._hue
    vertices = "".join(map(hue.__getitem__, graph._firsts))  # one character per vertex
    white_excess = hue.count("w") - vertices.count("w")  # degrees minus one
    return len(hue) // 2 - vertices.count("b") - white_excess


# ----------------------------------------------------------------------
# boundary surgeries


def split(graph: PlabicGraph, i: int, color: str) -> PlabicGraph:
    """Insert a colored vertex on the edge of boundary i, feeding two
    boundaries.

    The new vertex has clockwise rotation (far end, i, i+1); boundary
    labels above i shift up by one.
    """
    return PlabicGraph._from_layouts(_split(graph._layout, i, color))[0]


def _split(layout: tuple, i: int, color: str) -> tuple:
    """``split`` on a layout: the new vertex takes the id below ``low``."""
    n, hue, ends, old, firsts, bound, low = layout
    if not 1 <= i <= n:
        raise BadBoundary(f"no boundary vertex {i}")
    if color not in (BLACK, WHITE):
        raise ValueError(f"bad color {color!r}")
    h_i = bound[i - 1]
    h_far, cut = h_i ^ 1, h_i & ~1
    ends = list(ends)
    for label, h in enumerate(bound[i:], i + 2):  # the labels' only store: their owners
        ends[h] = label
    far, v_new = ends[h_far], low - 1
    # the old boundary edge goes and three edges are appended: later halves
    # move down by two, and the old edge's halves become the far end's and
    # boundary i's halves of the new edges
    t = len(ends) - 2
    moved = [*range(cut), 0, 0, *range(cut, t)]
    moved[h_far], moved[h_i] = t, t + 3
    nxt = (*map(moved.__getitem__, old[:cut] + old[cut + 2:]),
           moved[old[h_far]], t + 2, t + 4, t + 3, t + 1, t + 5)
    bound = (*map(moved.__getitem__, bound),)
    del ends[cut:cut + 2]
    ends += (far, v_new, v_new, i, v_new, i + 1)
    c = color[0]
    hue = f"{hue[:cut]}{hue[cut + 2:]}{hue[h_far]}{c}{c}.{c}."
    return (n + 1, hue, tuple(ends), nxt, (*map(moved.__getitem__, firsts), t + 1, t + 5),
            (*bound[:i], t + 5, *bound[i:]), v_new)


def blow_up(graph: PlabicGraph, i: int) -> PlabicGraph:
    """Replace the trivalent vertex at boundary i by an alternating
    square spanning boundaries i and i+1.

    Reading the old vertex clockwise from the boundary as (i, e, f), the
    square corner toward e is black, toward f white, at boundary i
    black, and at the new boundary i+1 white.
    """
    return PlabicGraph._from_layouts(_blow_up(graph._layout, i))[0]


def _blow_up(layout: tuple, i: int) -> tuple:
    """``blow_up`` on a layout: fresh ids below ``low``, or below the rest if v was the lowest."""
    n, hue, ends, nxt, firsts, bound, low = layout
    if not 1 <= i <= n:
        raise BadBoundary(f"no boundary vertex {i}")
    h_v = bound[i - 1] ^ 1
    v = ends[h_v]
    h_to_e = nxt[h_v]
    h_to_f = nxt[h_to_e]
    if v > 0 or nxt[h_to_f] != h_v or h_v in (h_to_e, h_to_f):
        raise BadAttachment(f"boundary {i} is not attached to a trivalent vertex")

    ends = list(ends)
    for label, h in enumerate(bound[i:], i + 2):  # the labels' only store: their owners
        ends[h] = label
    if v == low:  # v goes, so the fresh ids start below the rest
        ends[h_to_e] = ends[h_to_f] = ends[h_v] = 0
        low = min(0, *ends)
    a, b, c, d = low - 1, low - 2, low - 3, low - 4

    # the old vertex's three edges get new ends in place, so half-edge ids
    # are kept and no edge is renumbered; the square's five edges are
    # appended, clockwise a: (e, b, d), b: (f, c, a), c: (b, i, d), d: (a, c, i+1)
    t = len(ends)
    ends[h_to_e], ends[h_to_f], ends[h_v] = a, b, c
    ends += (a, b, b, c, c, d, d, a, d, i + 1)
    hue = bytearray(hue, "ascii") + b"bwwbbwwbw."
    hue[h_to_e], hue[h_to_f], hue[h_v] = b"bwb"
    nxt = list(nxt)
    nxt[h_to_e], nxt[h_to_f], nxt[h_v] = t, t + 2, t + 4
    nxt += (t + 7, h_to_f, t + 1, h_v, t + 3, t + 8, t + 5, h_to_e, t + 6, t + 9)
    firsts = list(firsts)  # v's first half goes: a scan for each candidate beats a set
    firsts.remove(h_v if h_v in firsts else h_to_e if h_to_e in firsts else h_to_f)
    firsts += (h_to_e, h_to_f, t + 3, t + 6, t + 9)
    return (n + 1, hue.decode(), tuple(ends), tuple(nxt), tuple(firsts),
            (*bound[:i], t + 9, *bound[i:]), d)


# ----------------------------------------------------------------------
# recursive families


def base_bridge() -> PlabicGraph:
    """The two-point graph: a single boundary-to-boundary edge, checked on each call."""
    return PlabicGraph(2, {}, ((1, 2),), {1: (0,), 2: (1,)})


def base_square() -> PlabicGraph:
    """The four-point square with alternating colors, checked on each call."""
    adjacency = {b: (-b,) for b in range(1, 5)}  # then each corner's neighbors clockwise
    adjacency.update({-1: (1, -2, -4), -2: (-1, 2, -3), -3: (-4, -2, 3), -4: (4, -1, -3)})
    return PlabicGraph.from_neighbors(4, {-1: WHITE, -2: BLACK, -3: WHITE, -4: BLACK}, adjacency)


# each family's members as layouts, and their unshifted trip images, in family order
_FAMILY_CACHE: dict[tuple[int, int, int], tuple[tuple, ...]] = {}
_TRIPS: dict[tuple[int, int, int], tuple[tuple[int, ...], ...]] = {}


def enumerate_bcfw_graphs(n: int, k: int, m: int) -> list[PlabicGraph]:
    """All graphs of the recursive family, one per cell.

    Members are distinct by construction (see `_family`); the trip
    permutation and build-then-dedupe tests in test_plabic_canonical.py
    and a CI guard for n = 13, 14 check it.  Each call makes new records.
    """
    if m == 2:
        if n < 2 or not 1 <= k <= n - 1:
            raise BadRange(f"no m=2 graph family for n={n}, k={k}")
    elif m == 4:
        if n < 4 or not 2 <= k <= n - 2:
            raise BadRange(f"no m=4 graph family for n={n}, k={k}")
    else:
        raise BadRange(f"graph families exist for m in {{2, 4}}, not m={m}")
    return PlabicGraph._from_layouts(*_family(n, k, m))


def _family(n: int, k: int, m: int) -> tuple[tuple, ...]:
    # No graph is compared here: members are distinct by construction.  An
    # m=2 member is named by its split word (boundary n sits on the last
    # split's vertex, which folds back to the parent; Pascal's rule on the
    # C(n-2, k-1) words).  An m=4 member is the blow-up that catalan's
    # `_family_plan` hands over for its tree word: parent and boundary.  Its
    # trips come from its parent's by the surgery's rule (`bcfw_permutations`).
    key = (n, k, m)
    if key not in _FAMILY_CACHE:
        out, trips = [], []  # members, trip images
        if m == 2:
            if n == 2 and k == 1:
                out, trips = [base_bridge()._layout], [(2, 1)]
            for kk, color in ((k, WHITE), (k - 1, BLACK)):
                if 1 <= kk <= n - 2:
                    out += [_split(g, n - 1, color) for g in _family(n - 1, kk, 2)]
                    trips += [_child_trips(t, n - 1, color) for t in _TRIPS[n - 1, kk, 2]]
        else:
            from .catalan import _family_plan  # on first use: only m=4 needs it
            if n == 4 and k == 2:
                out, trips = [base_square()._layout], [(3, 4, 1, 2)]
            parents = {kk: (_family(n - 1, kk, 4), _TRIPS[n - 1, kk, 4])
                       for kk in (k, k - 1) if 2 <= kk <= n - 3}
            for kk, j, i in _family_plan(n, k)[1]:
                graphs, images = parents[kk]
                out.append(child := _blow_up(graphs[j], i))
                trips.append(_child_trips(images[j], i, BLACK if kk == k else WHITE, child))
        _FAMILY_CACHE[key], _TRIPS[key] = tuple(out), tuple(trips)
    return _FAMILY_CACHE[key]


def _child_trips(images, i: int, color: str, child=None) -> tuple[int, ...]:
    """Trip images after a ``color`` split at i, or the blow-up ``child`` at a ``color`` anchor."""
    sigma = [0] + [x + (x > i) for x in images]  # from 1: r(pi(j)) at r(j)
    sigma.insert(i + 1, 0)  # r skips i+1
    rp = sigma.index(i)  # r(P), as only r(P) -> r(i) = i
    if child is None:
        if color == WHITE:
            sigma[i], sigma[i + 1], sigma[rp] = i + 1, sigma[i], i
        else:
            sigma[i + 1], sigma[rp] = i, i + 1
        return tuple(sigma[1:])
    t, b = (i + 1, i) if color == WHITE else (i, i + 1)
    if color == BLACK:
        sigma[i + 1] = sigma[i]
    sigma[rp] = t
    s = _trip_end(child, b, back=True)
    if s in (i, i + 1, rp):
        raise NotReduced(f"the trip from {s} passes the blown-up vertex at {i} twice")
    sigma[t], sigma[s] = sigma[s], b
    return tuple(sigma[1:])


def bcfw_permutations(n: int, k: int, m: int) -> list[DecoratedPermutation]:
    """Shifted trip permutations of the graph family, fixed points black.

    Trips are carried from parent to child, not traced.  With r(x) = x + (x > i)
    and P the trip into i, a surgery at i keeps r(j) -> r(pi(j)) for other j.  A
    split's new vertex turns i, i+1: white i -> i+1, i+1 -> r(pi(i)), r(P) -> i;
    black i+1 -> i, r(P) -> i+1.  A blow-up's square sends i, i+1 out along e, f
    and arrivals along e, f to i, i+1.  White anchor: r(P) -> i+1, and the trip s
    into i (traced back in the child) ends at i, its old end going to i+1.  Black:
    i+1 -> r(pi(i)), r(P) -> i, and s into i+1 ends there, its old end going to i.
    Past the new vertices a trip runs as in the parent, for a reduced graph's trip
    passes each vertex once (checked: s not in {i, i+1, r(P)}).  Traced trips check
    every family, in order: test_plabic_canonical.py for n <= 12, CI n = 13, 14.
    They are built by the trusted ``_built_many``: test_plabic_canonical.py holds
    each equal to its checked rebuild for n <= 10.
    """
    if m not in (2, 4):
        raise BadRange(f"permutation families exist for m in {{2, 4}}, not m={m}")
    if k < 0 or k > n - m:
        raise BadRange(f"no permutation family for n={n}, k={k}, m={m}")
    shift = m // 2
    _family(n, k + shift, m)
    moved = [(v - shift - 1) % n + 1 for v in range(n + 1)]
    images = [tuple(map(moved.__getitem__, t)) for t in _TRIPS[n, k + shift, m]]
    return DecoratedPermutation._built_many([n] * len(images), images, [frozenset()] * len(images))


# ----------------------------------------------------------------------
# graphs from diagrams


def _hooks(diagram: OPlusDiagram) -> dict:
    """Each + box's hooks: the nearest + to its east and to its south, or None
    at the border.  One sweep, bottom row to top and east to west."""
    out: dict[tuple[int, int], tuple] = {}
    south: dict[int, tuple[int, int]] = {}
    for r in range(diagram.k, 0, -1):
        east = None
        for c in range(diagram.shape[r - 1], 0, -1):
            if diagram.rows[r - 1][c - 1] == "+":
                out[r, c] = (east, south.get(c))
                east = south[c] = (r, c)
    return out


def graph_from_le(diagram: OPlusDiagram) -> PlabicGraph:
    """The bicolored graph whose trips reproduce the diagram's wiring.

    Each + box is wired to its hooks in the ``_hooks`` table.  A box that
    is no box's hook is a bare wire; a box that is some box's east hook (a +
    to its west) gains a white vertex, some box's south hook (a + above) a
    black one, and both a black/white pair joined by an edge.  Empty rows
    and columns become white and black lollipops.
    """
    if not is_le_diagram(diagram):
        raise NotLe("diagram must satisfy the row-column sorting property")
    sources, columns = diagram.border_labels()
    hooks = _hooks(diagram)
    boxes = sorted(hooks)
    west = {east for east, _ in hooks.values()}  # the boxes with a + to the west
    north = {south for _, south in hooks.values()}  # the boxes with a + above

    colors: dict[int, str] = {}
    ports: dict[tuple[tuple[int, int], str], int] = {}
    spokes: dict[int, tuple] = {}  # each box vertex's ports, clockwise

    def new_vertex(color: str, box=None, *clockwise: str) -> int:
        v = -len(colors) - 1
        colors[v] = color
        if clockwise:
            spokes[v] = tuple((box, d) for d in clockwise)
            ports.update(dict.fromkeys(spokes[v], v))
        return v

    for box in boxes:  # with both, a black/white pair joined by the edge DB-DW
        if box in north:
            new_vertex(BLACK, box, "N", "E", "DB" if box in west else "S")
        if box in west:
            new_vertex(WHITE, box, "DW" if box in north else "E", "S", "W")

    def east_port(box):
        east = hooks[box][0]
        if east is None:
            return ("boundary", sources[box[0] - 1])
        return (east, "W")

    def south_port(box):
        south = hooks[box][1]
        if south is None:
            return ("boundary", columns[box[1]])
        return (south, "N")

    links: list[tuple] = []
    for box in boxes:
        if box not in west and box not in north:  # a bare wire
            links.append((east_port(box), south_port(box)))
        else:
            links.append(((box, "E"), east_port(box)))
            links.append(((box, "S"), south_port(box)))
            if box in west and box in north:
                links.append(((box, "DB"), (box, "DW")))
    for r in range(1, diagram.k + 1):
        if "+" not in diagram.rows[r - 1]:
            links.append(
                (("lollipop", new_vertex(WHITE)), ("boundary", sources[r - 1]))
            )
    plus_columns = {c for _, c in boxes}
    for c in range(1, diagram.n - diagram.k + 1):
        if c not in plus_columns:
            links.append((("lollipop", new_vertex(BLACK)), ("boundary", columns[c])))

    def owner(port) -> int:
        return port[1] if port[0] in ("boundary", "lollipop") else ports[port]

    half_at: dict[tuple, int] = {}
    edges: list[tuple[int, int]] = []
    for pa, pb in links:
        j = len(edges)
        edges.append((owner(pa), owner(pb)))
        half_at[pa] = 2 * j
        half_at[pb] = 2 * j + 1

    rotation = {b: (half_at[("boundary", b)],) for b in range(1, diagram.n + 1)}
    rotation.update((port[1], (h,)) for port, h in half_at.items() if port[0] == "lollipop")
    rotation.update((v, tuple(map(half_at.__getitem__, spoke))) for v, spoke in spokes.items())
    return PlabicGraph(diagram.n, colors, tuple(edges), rotation)


# ----------------------------------------------------------------------
# weighted networks from diagrams


_ZERO = Fraction(0)


def _over(ints, den) -> tuple[Fraction, ...]:
    """Each int over ``den``, a zero as ``_ZERO``: package-built integers as Fractions."""
    return tuple(Fraction(x, den) if x else _ZERO for x in ints)


def _frac(value) -> Fraction:  # the float ban, for every module above this one
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):  # JSON true is not the number 1
        raise TypeError(f"{type(value).__name__}s are not allowed; pass int, Fraction, or 'p/q'")
    if isinstance(value, str):  # Fraction builds 10**exponent: cap it as int() caps literals
        _, e, exponent = value.upper().rpartition("E")
        digits = exponent.strip().lstrip("+-").replace("_", "")
        if e and digits.isdecimal() and int(digits) > 4300:  # default_max_str_digits
            raise ValueError(f"decimal exponent beyond ±4300: {exponent.strip()!r}")
    return Fraction(value)


class Network(Record):
    """Edge-weighted planar network read off a sorted diagram.

    Horizontal edges carry the variables, numbered row by row starting
    at the east border of each row; vertical edges have weight one.  Each
    + box's edges run to its hooks (``_hooks``): the nearest + to the east
    and to the south, else its row's source and its column's sink.
    Sources index the matrix rows, every boundary label a column.
    ``matrix`` sums the paths on integers, the weights written over one
    common denominator, and divides once per entry; the value-free part of
    that sum is worked out once per network, in ``_plan``.  Sampled weights
    enter as int pairs at ``_pair_rows``, the core that ``_int_rows`` feeds.
    """

    _fields = ("k", "n", "sources", "sinks", "variables", "horizontal", "vertical")

    def __init__(self, k: int, n: int, sources: tuple[int, ...], sinks: Mapping[int, int],
                 variables: tuple[str, ...], horizontal: tuple[tuple[str, tuple, tuple], ...],
                 vertical: tuple[tuple[tuple, tuple], ...]) -> None:
        self._set(k, n, sources, sinks, variables, horizontal, vertical)

    def matrix(self, values: Mapping[str, object]) -> list[list[Fraction]]:
        """Boundary measurements: signed path sums, one row per source."""
        rows = self._int_rows(values)
        return [list(_over(row, row[s - 1])) for row, s in zip(rows, self.sources)]

    @cached_property
    def _plan(self) -> tuple[tuple, tuple]:
        """The value-free part of ``_int_rows``: the boxes in path order with
        their heads and west edges; each source's first edge and path signs."""
        out_h, entry = {}, {}  # the horizontal edges by tail: a box, or a source label
        for name, tail, head in self.horizontal:
            if tail[0] == "source":
                entry[tail[1]] = (name, head)
            else:
                out_h[tail] = (name, head)
        out_v = dict(self.vertical)
        boxes = tuple((box, out_v[box], out_h.get(box))
                      for box in sorted(out_v, key=lambda box: (box[1], -box[0])))
        starts = tuple(
            (s, entry.get(s), {label: (-1) ** sum(1 for t in self.sources if s < t < label)
                               for label in self.sinks.values()})
            for s in self.sources)
        return boxes, starts

    def _int_rows(self, values: Mapping[str, object]) -> list[list[int]]:
        """``matrix`` on integers: each row times its one positive denominator,
        which is then the row's entry at its own source."""
        missing = [name for name in self.variables if name not in values]
        if missing:
            raise MissingVariable(f"no value for {', '.join(missing)}")
        return self._pair_rows([_frac(values[name]).as_integer_ratio() for name in self.variables])

    def _pair_rows(self, pairs) -> list[list[int]]:
        """The integer core of ``_int_rows``: one weight p/q per variable, as ints (p, q)."""
        # integer weights over one common denominator D; a path sum taking at
        # most h horizontal edges is kept as an integer numerator over D**h
        scale = math.lcm(*(q for _, q in pairs))
        weight = {name: p * (scale // q) for name, (p, q) in zip(self.variables, pairs)}
        boxes, starts = self._plan

        paths: dict[tuple, tuple[int, dict[int, int]]] = {}
        for box, head, edge in boxes:
            if head[0] == "sink":
                depth, total = 0, {head[1]: 1}
            else:
                depth, below = paths[head]
                total = dict(below)
            if edge is not None:
                name, west = edge
                west_depth, sums = paths[west]
                west_depth += 1
                if west_depth > depth:
                    lift = scale ** (west_depth - depth)
                    total = {label: lift * x for label, x in total.items()}
                    depth = west_depth
                factor = weight[name] * scale ** (depth - west_depth)
                for label, x in sums.items():
                    total[label] = total.get(label, 0) + factor * x
            paths[box] = (depth, total)

        rows = []
        for s, edge, sign in starts:
            row = [0] * (self.n + 1)
            row[s] = 1
            if edge is not None:
                name, head = edge
                depth, sums = paths[head]
                row[s] = scale ** (depth + 1)
                for label, x in sums.items():
                    row[label] = sign[label] * weight[name] * x
            rows.append(row[1:])
        return rows

    def ones(self) -> dict[str, int]:
        """A value for every variable, all equal to one."""
        return {name: 1 for name in self.variables}

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "sources": list(self.sources),
            "sinks": {str(c): label for c, label in sorted(self.sinks.items())},
            "variables": list(self.variables),
            "horizontal": [
                {"name": name, "from": list(tail), "to": list(head)}
                for name, tail, head in self.horizontal
            ],
            "vertical": [
                {"from": list(tail), "to": list(head)} for tail, head in self.vertical
            ],
        }


def build_network(diagram: OPlusDiagram) -> Network:
    """Hook the + boxes of a sorted diagram into a weighted network: each
    box's edges run to its entries in the ``_hooks`` table."""
    if not is_le_diagram(diagram):
        raise NotLe("diagram must satisfy the row-column sorting property")
    sources, columns = diagram.border_labels()
    hooks = _hooks(diagram)
    horizontal = tuple(
        (f"a{i}", hooks[box][0] or ("source", sources[box[0] - 1]), box)
        for i, box in enumerate(sorted(hooks, key=lambda box: (box[0], -box[1])), 1))
    vertical = tuple((box, hooks[box][1] or ("sink", columns[box[1]])) for box in sorted(hooks))
    return Network(
        k=diagram.k,
        n=diagram.n,
        sources=sources,
        sinks=dict(columns),
        variables=tuple(name for name, _, _ in horizontal),
        horizontal=horizontal,
        vertical=vertical,
    )
