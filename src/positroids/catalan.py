"""Binary trees, lattice-path pairs, Dyck paths, and plane partitions.

Four Catalan-family indexings of the same cell collection, with the
bijections among them and down to plabic graphs and diagrams.  Trees,
Dyck paths and the order of the m=4 graph family come from one Dyck-word
recursion, and a tree is its word: "+", its horizontal child's word, "-",
its vertical child's; its peaks are its horizontal leaves.  The generator
builds only the words with the peak count asked for, and the family plan
says which blow-up of which parent makes each member's word.  Path words are read
from the northeast corner: H steps west, V steps south; their shapes come
from ``diagrams``.  The closed forms that count the families (Narayana,
MacMahon) are computed on integers only.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import accumulate, repeat
from math import comb, prod
from typing import TYPE_CHECKING, Iterator, Optional

from .diagrams import _pair_words, _pairs_by_upper, _rectangle, _shapes, _word_from_rows, \
    _young_rows
from .errors import BadRange, InvariantViolated, NotBCFWGraph, _int, _list
from .records import Record

if TYPE_CHECKING:
    from .plabic import PlabicGraph


# ----------------------------------------------------------------------
# binary trees


class BinaryTree(Record):
    """Complete rooted binary tree with ordered (horizontal, vertical) children.

    A tree is its Dyck word ``word``: "+", the horizontal child's word, "-", the vertical
    child's, "" for a leaf.  Leaves are labeled 2..n-1 by a depth-first search taking
    horizontal children first, so the label-2 leaf hangs off the all-horizontal spine.
    A package-built tree stores only its word and makes its children on first read.
    """

    _fields = ("horizontal", "vertical")
    _stored = ("word",)

    def __init__(self, horizontal: Optional[BinaryTree] = None,
                 vertical: Optional[BinaryTree] = None) -> None:
        if (horizontal is None) != (vertical is None):
            raise ValueError("a node has either two children or none")
        self._set(horizontal, vertical)
        object.__setattr__(self, "word", "" if horizontal is None
                           else f"+{horizontal.word}-{vertical.word}")

    @cached_property
    def horizontal(self) -> Optional[BinaryTree]:
        return _tree_shapes(self.word[1:_close(self.word)]) if self.word else None

    @cached_property
    def vertical(self) -> Optional[BinaryTree]:
        return _tree_shapes(self.word[_close(self.word) + 1:]) if self.word else None

    def __eq__(self, other):
        return self.word == other.word if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:  # the fields' hash, as for every record: __eq__ drops it
        # hash((horizontal, vertical)) folded over the word: no child is made
        return _fold(self.word, _Hashed(hash((None, None))), lambda h, v: _Hashed(hash((h, v))))

    @property
    def is_leaf(self) -> bool:
        return not self.word

    def leaf_count(self) -> int:
        return self.word.count("-") + 1

    def horizontal_leaf_count(self) -> int:
        """Number of leaves that are horizontal children: its Dyck word's peaks."""
        return self.word.count("+-")

    @property
    def n(self) -> int:
        return self.leaf_count() + 2

    @property
    def k(self) -> int:
        return self.horizontal_leaf_count() - 1

    def reflect(self) -> "BinaryTree":
        """Swap the two children of every internal node."""
        return BinaryTree._built(word=_fold(self.word, "", lambda h, v: f"+{v}-{h}"))

    def to_json(self):
        return _fold(self.word, "leaf", lambda h, v: {"horizontal": h, "vertical": v})

    @classmethod
    def from_json(cls, data) -> "BinaryTree":
        if data == "leaf":
            return cls()
        return cls(
            cls.from_json(data["horizontal"]),
            cls.from_json(data["vertical"]),
        )

    def __str__(self) -> str:
        return _fold(self.word, "*", "({} {})".format)


def _close(word: str) -> int:
    """Where the "-" closing a nonempty word's first "+" stands: its first return to 0."""
    return list(accumulate(map({"+": 1, "-": -1}.get, word))).index(0)


def _fold(word: str, leaf, node):
    """A tree's value built bottom-up, ``leaf`` at each leaf and ``node(h, v)`` at each inner
    node: ``word + "-"`` lists the nodes in preorder ("+" inner), so read from the end."""
    values = []
    for step in reversed(word + "-"):
        values.append(node(values.pop(), values.pop()) if step == "+" else leaf)
    return values[0]


class _Hashed(int):
    """A subtree's hash in ``BinaryTree.__hash__``'s fold, which hashes to itself."""
    __hash__ = int.__index__  # a plain int would not: hash(h) != h beyond 2**61 - 1


@lru_cache(maxsize=None)
def _tree_shapes(word: str) -> BinaryTree:
    """The package-built tree of a word, which the two child views share."""
    return BinaryTree._built(word=word)


def enumerate_trees(n: int, k: int) -> list[BinaryTree]:
    """All trees with n-2 leaves of which exactly k+1 are horizontal children."""
    if n < 4 or k < 0 or k > n - 4:
        raise BadRange(f"need n >= 4 and 0 <= k <= n-4, got n={n}, k={k}")
    return BinaryTree._built_many(_dyck_words(n - 3, frozenset((k + 1,)))[0])


def tree_to_graph(tree: BinaryTree) -> PlabicGraph:
    """Build the plabic graph of a tree by undoing leaf collapses as blow-ups."""
    # plabic on first use: only the two graph arrows need it, so other requests skip it
    from .plabic import PlabicGraph, _blow_up, _family
    if tree.is_leaf:
        raise BadRange("a bare leaf corresponds to no graph")
    # collapse the first cherry, a "+-" not followed by "+", until one is
    # left; its horizontal leaf is the boundary 2 + (leaves before it)
    word, ops = tree.word, []
    while word != "+-":
        at = word.find("+-")
        while word.startswith("+", at + 2):
            at = word.find("+-", at + 2)
        ops.append(2 + word.count("-", 0, at))
        word = word[:at] + word[at + 2:]
    # the blow-ups run on layouts from the cached square's, and one record is made at the end
    return PlabicGraph._from_layouts(reduce(_blow_up, reversed(ops), _family(4, 2, 4)[0]))[0]


@lru_cache(maxsize=None)
def _tree_by_graph(n: int, k: int) -> dict[PlabicGraph, BinaryTree]:
    return {tree_to_graph(t): t for t in enumerate_trees(n, k)}


def graph_to_tree(graph: PlabicGraph) -> BinaryTree:
    """Inverse of tree_to_graph."""
    from .plabic import k_statistic
    n = graph.n
    k = k_statistic(graph) - 2
    if n < 4 or k < 0 or k > n - 4:
        raise NotBCFWGraph(f"no tree family matches n={n}, k={k + 2}")
    tree = _tree_by_graph(n, k).get(graph)
    if tree is None:
        raise NotBCFWGraph("graph is not produced by the recursion")
    return tree


# ----------------------------------------------------------------------
# path pairs


class PathPair(Record):
    """Noncrossing pair of lattice paths, upper weakly northeast of lower.

    Words start at the northeast corner of the k x b rectangle; H steps
    west and V steps south.  The helicity m is recorded but does not
    affect the words themselves.
    """

    _fields = ("wu", "wl", "m")

    def __init__(self, wu: str, wl: str, m: int = 4) -> None:
        self._set(wu, wl, m)
        _rectangle((wu, wl))

    @property
    def k(self) -> int:
        return self.wu.count("V")

    @property
    def b(self) -> int:
        return self.wu.count("H")

    @property
    def n(self) -> int:
        return self.k + self.b + self.m

    def to_json(self) -> dict:
        return {"wu": self.wu, "wl": self.wl}

    @classmethod
    def from_json(cls, data: dict, m: int = 4) -> "PathPair":
        return cls(data["wu"], data["wl"], m)


def enumerate_path_pairs(n: int, k: int) -> Iterator[PathPair]:
    """All noncrossing pairs with k V steps and n-k-4 H steps."""
    b = n - k - 4
    if n < 4 or k < 0 or b < 0:
        raise BadRange(f"need n >= 4 and 0 <= k <= n-4, got n={n}, k={k}")
    for wu, lower in _pairs_by_upper(k, b):
        yield from PathPair._built_many([wu] * len(lower), lower, repeat(4))


# ----------------------------------------------------------------------
# tree -> path pair


def omega_TL(tree: BinaryTree) -> PathPair:
    """Word pair of a tree, read off its word: past the root, each inner node "+"
    is an upper H if a horizontal child (after a "+"), else a V; each leaf "-"
    past the first is a lower H if a vertical child (after a "-"), else a V."""
    if tree.is_leaf:
        raise BadRange("a bare leaf corresponds to no path pair")
    word, upper, lower = tree.word, [], []
    for before, step in zip(word, word[1:]):
        (upper if step == "+" else lower).append("H" if before == step else "V")
    return PathPair("".join(upper), "".join(lower[1:]))


# ----------------------------------------------------------------------
# Dyck paths


class DyckPath(Record):
    """Balanced word over + (up) and - (down) staying weakly above the axis."""

    _fields = ("steps",)

    def __init__(self, steps: str) -> None:
        self._set(steps)
        if set(steps) - {"+", "-"}:
            raise ValueError("steps use only + and -")
        height = 0
        for ch in steps:
            height += 1 if ch == "+" else -1
            if height < 0:
                raise ValueError("path dips below the axis")
        if height != 0:
            raise ValueError("path must end on the axis")

    @property
    def n(self) -> int:
        return len(self.steps) // 2 + 3

    @property
    def peaks(self) -> int:
        return self.steps.count("+-")

    @property
    def k(self) -> int:
        return self.n - 3 - self.peaks

    @property
    def heights(self) -> tuple[int, ...]:
        return (0, *accumulate(1 if ch == "+" else -1 for ch in self.steps))

    def to_json(self) -> str:
        return self.steps.replace("+", "U").replace("-", "D")

    @classmethod
    def from_json(cls, word: str) -> "DyckPath":
        if not isinstance(word, str):
            raise TypeError("a Dyck path is a string of U and D steps")
        return cls(word.replace("U", "+").replace("D", "-"))


@lru_cache(maxsize=None)
def _dyck_words(semilength: int,
                peaks: frozenset[int]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Words "+" a "-" b with a peak count in ``peaks``, and their counts, by
    len(a), then a, then b; each side gets only counts the other can complete."""
    if semilength == 0:
        return (("",), (0,)) if 0 in peaks else ((), ())
    words, counts = [], []
    for inner in range(semilength):
        rest = semilength - 1 - inner
        lift = inner == 0  # the "+-" of an empty a is a peak
        tails = frozenset(range(rest > 0, rest + 1))  # every peak count b can have
        heads = {p - q - lift for p in peaks for q in tails}
        for a, pa in zip(*_dyck_words(inner, frozenset(range(inner > 0, inner + 1)) & heads)):
            for b, pb in zip(*_dyck_words(rest, tails & {p - pa - lift for p in peaks})):
                words.append("+" + a + "-" + b)
                counts.append(pa + lift + pb)
    return tuple(words), tuple(counts)


@lru_cache(maxsize=None)
def _family_plan(n: int, k: int) -> tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]:
    """The m=4 graph family's tree words in family order, and the blow-up
    (parent k, parent index, boundary i) that makes each past the base.

    Blowing up i puts "+-" before leaf i: the (i-1)-th "-", or the end.  A
    parent from k blows up its peaks (their boundaries hang on black
    vertices), one from k-1 its other leaves (on white); of the commuting
    blow-ups that reach one word, only the first is kept."""
    if n == 4:
        return ("+-",) if k == 2 else (), ()
    words, steps, known = [], [], set()
    for kk, peak in ((k, True), (k - 1, False)):
        if 2 <= kk <= n - 3:
            for j, word in enumerate(_family_plan(n - 1, kk)[0]):
                leaves = [p for p, step in enumerate(word) if step == "-"] + [len(word)]
                for i, p in enumerate(leaves, 2):
                    if (word[p - 1] == "+") == peak:
                        child = word[:p] + "+-" + word[p:]
                        if child not in known:
                            known.add(child)
                            words.append(child)
                            steps.append((kk, j, i))
    return tuple(words), tuple(steps)


def enumerate_dyck_paths(n: int, k: int) -> list[DyckPath]:
    """All Dyck paths of length 2(n-3) with n-3-k peaks."""
    if n < 4 or k < 0 or k > n - 4:
        raise BadRange(f"need n >= 4 and 0 <= k <= n-4, got n={n}, k={k}")
    return DyckPath._built_many(_dyck_words(n - 3, frozenset((n - 3 - k,)))[0])


def _lp(wu: str, wl: str) -> str:
    if not wu:
        return "+-"
    if wu[0] == "V":
        return "+" + _lp(wu[1:], wl[1:]) + "-"
    # upper word starts west; look for the first vertical step the two
    # paths traverse at the same distance from the east wall
    vu = [p for p, ch in enumerate(wu) if ch == "V"]
    vl = [p for p, ch in enumerate(wl) if ch == "V"]
    for pu, pl in zip(vu, vl):
        if pu == pl:
            # the character before the shared V in the lower word is an H
            return _lp(wu[1:pu], wl[: pl - 1]) + _lp(wu[pu:], wl[pl:])
    # no overlap: the lower word must end in H
    return _lp(wu[1:], wl[:-1]) + "+-"


def omega_LP(paths) -> DyckPath:
    """Dyck path of a noncrossing pair via the three-case recursion."""
    return DyckPath(_lp(*_pair_words(paths)))


def shadow_touch(path: DyckPath, x: int) -> int:
    """Down-steps landing on the water-fill profile right of point x.

    The profile starts at the height of x and only falls; a down-step
    counts when its right endpoint lies on the profile and its left
    endpoint does not.
    """
    steps = path.steps
    heights = path.heights
    if not 0 <= x <= len(steps):
        raise ValueError(f"point index {x} outside 0..{len(steps)}")
    count = 0
    level = heights[x]
    for t in range(x + 1, len(steps) + 1):
        new_level = min(level, heights[t])
        if steps[t - 1] == "-" and heights[t] == new_level and heights[t - 1] > level:
            count += 1
        level = new_level
    return count


def omega_PL(path: DyckPath) -> PathPair:
    """Noncrossing pair of a Dyck path; inverse of omega_LP."""
    if path.n < 4:
        raise BadRange("the empty Dyck path (n=3) corresponds to no path pair")
    steps = path.steps
    ups = [x for x, ch in enumerate(steps) if ch == "+"]
    letters = [
        "V" if x + 1 < len(steps) and steps[x + 1] == "+" else "H" for x in ups
    ]
    wl = "".join(letters[:-1])
    b = wl.count("H")
    # one marked point per double up-step, and one row of the upper shape
    points = [x for x in ups if x + 1 < len(steps) and steps[x + 1] == "+"]
    rows = []
    seen_h = 0
    for letter in wl:
        if letter == "V":
            rows.append(b + 1 - seen_h - shadow_touch(path, points[len(rows)]))
        else:
            seen_h += 1
    return PathPair(_word_from_rows(tuple(rows), b), wl)


def dyck_step_labels(path: DyckPath):
    """Label steps and match double-up steps with their partner downs.

    Up-steps are labeled 1..n-3 left to right; every down-step takes the
    label of the next up-step, or n-2 past the last one.  Returns the up
    labels, the down labels, the labels up_i of up-steps followed by
    up-steps, and the labels down_i of their stack-matched down-steps.
    """
    steps = path.steps
    labels = [0] * len(steps)
    upnum = 0
    for x, ch in enumerate(steps):
        if ch == "+":
            upnum += 1
            labels[x] = upnum
    nxt = upnum + 1
    for x in reversed(range(len(steps))):
        if steps[x] == "+":
            nxt = labels[x]
        else:
            labels[x] = nxt
    matched = {}
    stack: list[int] = []
    for x, ch in enumerate(steps):
        if ch == "+":
            stack.append(labels[x])
        else:
            matched[stack.pop()] = labels[x]
    up_labels = tuple(labels[x] for x, ch in enumerate(steps) if ch == "+")
    down_labels = tuple(labels[x] for x, ch in enumerate(steps) if ch == "-")
    up_i = tuple(
        labels[x]
        for x, ch in enumerate(steps)
        if ch == "+" and x + 1 < len(steps) and steps[x + 1] == "+"
    )
    down_i = tuple(matched[u] for u in up_i)
    return up_labels, down_labels, up_i, down_i


# ----------------------------------------------------------------------
# plane partitions


class NoncrossingPathTuple(Record):
    """Paths in a common rectangle, each weakly northeast of the next."""

    _fields = ("words",)

    def __init__(self, words: tuple[str, ...]) -> None:
        self._set(tuple(words))
        _rectangle(self.words)

    @property
    def c(self) -> int:
        return len(self.words)

    @property
    def a(self) -> int:
        return self.words[0].count("V") if self.words else 0

    @property
    def b(self) -> int:
        return self.words[0].count("H") if self.words else 0

    def to_json(self) -> dict:
        return {"paths": list(self.words)}

    @classmethod
    def from_json(cls, data: dict) -> "NoncrossingPathTuple":
        return cls(tuple(_list(data["paths"])))


# the largest a x b x c box (each side counted at least once) read from JSON
_MAX_BOX_CELLS = 100_000


class PlanePartition(Record):
    """Array in an a x b box, entries <= c, weakly decreasing both ways."""

    _fields = ("a", "b", "c", "rows")

    def __init__(self, a: int, b: int, c: int, rows: tuple[tuple[int, ...], ...]) -> None:
        self._set(a, b, c, tuple(tuple(r) for r in rows))
        if min(self.a, self.b, self.c) < 0:
            raise ValueError("box dimensions must be nonnegative")
        if len(self.rows) != self.a or any(len(r) != self.b for r in self.rows):
            raise ValueError(f"need a full {self.a}x{self.b} array")
        for row in self.rows:
            for e in row:
                if not 0 <= e <= self.c:
                    raise ValueError(f"entry {e} outside 0..{self.c}")
            if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("rows must weakly decrease")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if any(u < l for u, l in zip(upper, lower)):
                raise ValueError("columns must weakly decrease")

    def entry(self, r: int, col: int) -> int:
        return self.rows[r - 1][col - 1]

    def to_json(self) -> dict:
        # rows weakly decrease from the top left, so their zeros trail and zero rows follow
        trimmed = [cut for row in self.rows if (cut := [e for e in row if e])]
        return {"a": self.a, "b": self.b, "c": self.c, "rows": trimmed}

    @classmethod
    def from_json(cls, data: dict) -> "PlanePartition":
        a, b, c = _int(data["a"]), _int(data["b"]), _int(data["c"])
        # checked before padding, which allocates the whole a x b array
        if min(a, b, c) < 0:
            raise BadRange(f"box dimensions must be nonnegative, got {(a, b, c)}")
        if max(a, 1) * max(b, 1) * max(c, 1) > _MAX_BOX_CELLS:
            raise BadRange(f"box {(a, b, c)} has more than {_MAX_BOX_CELLS} cells")
        given = [_list(r) for r in _list(data["rows"])]
        if len(given) > a or any(len(r) > b for r in given):
            raise BadRange(f"rows do not fit in the {a}x{b} array")
        rows = [tuple(map(_int, r)) + (0,) * (b - len(r)) for r in given]
        rows += [(0,) * b] * (a - len(rows))
        return cls(a, b, c, tuple(rows))


def paths_to_plane_partition(paths) -> PlanePartition:
    """Fill each box with the number of paths passing below it."""
    if not isinstance(paths, NoncrossingPathTuple):
        paths = NoncrossingPathTuple(tuple(paths))
    if not paths.words:
        raise ValueError("cannot infer a rectangle from zero paths")
    shapes = [_young_rows(w) for w in paths.words]
    rows = tuple(
        tuple(sum(1 for s in shapes if s[r] >= col) for col in range(1, paths.b + 1))
        for r in range(paths.a)
    )
    return PlanePartition(paths.a, paths.b, paths.c, rows)


def plane_partition_to_paths(partition: PlanePartition) -> NoncrossingPathTuple:
    """Inverse of paths_to_plane_partition: level curves, upper first."""
    words = []
    for j in range(partition.c, 0, -1):
        shape = tuple(sum(1 for e in row if e >= j) for row in partition.rows)
        words.append(_word_from_rows(shape, partition.b))
    return NoncrossingPathTuple(tuple(words))


def enumerate_path_tuples(a: int, b: int, c: int) -> Iterator[NoncrossingPathTuple]:
    """All c-tuples of noncrossing paths in the a x b rectangle, lazily: what is
    kept grows with the shapes, not the chains.  Tuples that differ only in the
    innermost shape are built together by the trusted ``_built_many``;
    test_catalan.py holds them to an unmemoised reference and checked rebuilds."""
    if min(a, b, c) < 0:
        raise BadRange(f"box dimensions must be nonnegative, got {(a, b, c)}")
    built, empty, full = NoncrossingPathTuple._built_many, (0,) * a, (b,) * a
    if c == 0:
        yield from built(((),))
        return
    # per call: each shape's word as a 1-tuple (a chain of one), the shapes inside each
    ones = {shape: (_word_from_rows(shape, b),) for shape in _shapes(empty, full)}
    inner: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}

    def chains(outer: tuple[int, ...], depth: int):
        # each chain of depth - 1 shapes below outer as words, and the shapes inside it
        if outer not in inner:
            inner[outer] = tuple(_shapes(empty, outer))
        if depth == 1:
            yield inner[outer], ()
            return
        for shape in inner[outer]:
            for firsts, words in chains(shape, depth - 1):
                yield firsts, words + ones[shape]

    for firsts, words in chains(full, c):
        yield from built([ones[shape] + words for shape in firsts])


# ----------------------------------------------------------------------
# closed forms


def narayana(a: int, b: int) -> int:
    """Number of size-``a`` triangulation classes with ``b`` distinguished parts."""
    if not 1 <= b <= a:
        return 0
    return comb(a, b) * comb(a, b - 1) // a


def macmahon(a: int, b: int, c: int) -> int:
    """Number of plane partitions in an a x b x c box: MacMahon's product,
    telescoped in c to that of (i+j+c-1)/(i+j-1) over the a x b cells."""
    if min(a, b, c) < 0:
        raise ValueError("box dimensions must be nonnegative")
    sums = [i + j for i in range(1, a + 1) for j in range(1, b + 1)]
    total, remainder = divmod(prod(s + c - 1 for s in sums), prod(s - 1 for s in sums))
    if remainder:
        raise InvariantViolated("the triple product must be an integer")
    return total
