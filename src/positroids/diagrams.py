"""Fillings of Young diagrams and their wiring combinatorics.

The central type is :class:`OPlusDiagram`, a Young diagram inside a
k x (n-k) rectangle whose boxes carry ``0`` or ``+``.  Tracing wires
through the boxes turns a filling into a decorated permutation, and a
local rectangle move sorts any reduced filling into the unique
row-and-column sorted representative of the same cell.

Boxes are addressed as (row, column), both 1-indexed, row 1 at the top.
A filling is stored as one string per row over the alphabet ``0+``.

The lattice geometry of every path family lives here too: a path in a
k x b rectangle is a Young shape, or a word read from the northeast corner
(H west, V south), and a path pair or tuple is a chain of nested shapes.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Mapping

from .errors import BadRange, Crossing, NotReduced, _int, _list
from .permutations import DecoratedPermutation
from .records import Record


_MAX_N = 100_000  # the largest n read from JSON: labels, wiring and drawings walk it all


class OPlusDiagram(Record):
    """A {0, +} filling of a Young diagram inside a k x (n-k) rectangle.

    ``shape`` always has exactly k entries; trailing zero rows are
    meaningful and kept.

    >>> d = OPlusDiagram.from_rows(2, 4, ["+0", "+"])
    >>> d.plus_count()
    2
    """

    _fields = ("k", "n", "shape", "rows")

    def __init__(self, k: int, n: int, shape: tuple[int, ...], rows: tuple[str, ...]) -> None:
        self._set(k, n, shape, rows)
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")
        if len(self.shape) != self.k or len(self.rows) != self.k:
            raise ValueError("shape and rows must have exactly k entries")
        width = self.n - self.k
        prev = width
        for lam, row in zip(self.shape, self.rows):
            if not 0 <= lam <= prev:
                raise ValueError("shape must be weakly decreasing within the rectangle")
            if len(row) != lam or set(row) - {"0", "+"}:
                raise ValueError("rows must match the shape and use only 0 and +")
            prev = lam

    @classmethod
    def from_rows(cls, k: int, n: int, rows: Iterable[str]) -> "OPlusDiagram":
        rows = tuple(rows)
        if len(rows) < k:
            rows = rows + ("",) * (k - len(rows))
        return cls(k, n, tuple(len(r) for r in rows), rows)

    # ------------------------------------------------------------------
    # box access

    def fill(self, r: int, c: int) -> str:
        return self.rows[r - 1][c - 1]

    def boxes(self) -> Iterator[tuple[int, int]]:
        for r, lam in enumerate(self.shape, start=1):
            for c in range(1, lam + 1):
                yield r, c

    def plus_boxes(self) -> list[tuple[int, int]]:
        return [(r, c) for r, c in self.boxes() if self.fill(r, c) == "+"]

    def plus_count(self) -> int:
        """Number of + boxes; this is the dimension of the cell."""
        return sum(row.count("+") for row in self.rows)

    def column_height(self, c: int) -> int:
        """Number of rows whose length reaches column c."""
        return sum(1 for lam in self.shape if lam >= c)

    def with_fill(self, changes: Mapping[tuple[int, int], str]) -> "OPlusDiagram":
        rows = [list(r) for r in self.rows]
        for (r, c), v in changes.items():
            rows[r - 1][c - 1] = v
        return OPlusDiagram(self.k, self.n, self.shape, tuple("".join(r) for r in rows))

    def delete_leftmost_column(self) -> "OPlusDiagram":
        """Drop column 1, shrinking the rectangle to k x (n-1-k)."""
        if self.k and self.shape[-1] == 0:
            raise ValueError("every row must reach column 1")
        return OPlusDiagram(
            self.k,
            self.n - 1,
            tuple(lam - 1 for lam in self.shape),
            tuple(row[1:] for row in self.rows),
        )

    # ------------------------------------------------------------------
    # border labels

    def border_labels(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """Labels 1..n along the southeast border, northeast to southwest.

        Returns (vertical labels by row, horizontal labels by column).
        The vertical labels are the sources of the associated network.
        """
        width = self.n - self.k
        sources: list[int] = []
        columns: dict[int, int] = {}
        label = 1
        prev = width
        for lam in self.shape:
            for c in range(prev, lam, -1):
                columns[c] = label
                label += 1
            sources.append(label)
            label += 1
            prev = lam
        for c in range(prev, 0, -1):
            columns[c] = label
            label += 1
        return tuple(sources), columns

    def sources(self) -> tuple[int, ...]:
        return self.border_labels()[0]

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "shape": list(self.shape),
            "rows": list(self.rows),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "OPlusDiagram":
        k, n = _int(data["k"]), _int(data["n"])
        if n > _MAX_N:
            raise BadRange(f"need n <= {_MAX_N}, got n={n}")
        shape, rows = tuple(map(_int, _list(data["shape"]))), tuple(_list(data["rows"]))
        if not all(isinstance(r, str) for r in rows):
            raise TypeError("each row must be a string over 0 and +")
        return cls(k, n, shape, rows)


# ----------------------------------------------------------------------
# wiring


class PipeDream(Record):
    """The wiring of a filling: trips, plus every wire crossing.

    ``crossings`` maps each 0 box to the pair (label of the wire passing
    horizontally, label of the wire passing vertically).
    """

    _fields = ("diagram", "sources", "column_labels", "trips", "decorations", "crossings")

    def __init__(self, diagram: OPlusDiagram, sources: tuple[int, ...],
                 column_labels: dict[int, int], trips: dict[int, int], decorations: dict[int, str],
                 crossings: dict[tuple[int, int], tuple[int, int]]) -> None:
        self._set(diagram, sources, column_labels, trips, decorations, crossings)


def pipe_dream(diagram: OPlusDiagram) -> PipeDream:
    """Trace every wire of the filling from the southeast border.

    A ``+`` box turns wires (east-north and south-west); a ``0`` box
    crosses them (east-west and north-south).
    """
    sources, columns = diagram.border_labels()
    shape = diagram.shape
    trips: dict[int, int] = {}
    deco: dict[int, str] = {}
    half_crossings: dict[tuple[int, int], dict[str, int]] = {}

    def walk(label: int, r: int, c: int, heading: str) -> None:
        while True:
            if diagram.fill(r, c) == "0":
                slot = "h" if heading == "W" else "v"
                half_crossings.setdefault((r, c), {})[slot] = label
            else:
                heading = "N" if heading == "W" else "W"
            if heading == "W":
                if c == 1:
                    trips[label] = sources[r - 1]
                    return
                c -= 1
            else:
                if r == 1:
                    trips[label] = columns[c]
                    return
                r -= 1

    for r, label in enumerate(sources, start=1):
        if shape[r - 1] == 0:
            trips[label] = label
            deco[label] = "white"
        else:
            walk(label, r, shape[r - 1], "W")
            if trips[label] == label:
                deco[label] = "white"
    for c, label in columns.items():
        height = diagram.column_height(c)
        if height == 0:
            trips[label] = label
            deco[label] = "black"
        else:
            walk(label, height, c, "N")
            if trips[label] == label:
                deco[label] = "black"

    crossings = {
        box: (slots["h"], slots["v"]) for box, slots in half_crossings.items()
    }
    return PipeDream(diagram, sources, columns, trips, deco, crossings)


def pipe_dream_permutation(diagram: OPlusDiagram) -> DecoratedPermutation:
    """The decorated trip permutation of a filling.

    >>> d = OPlusDiagram.from_rows(1, 3, ["0+"])
    >>> print(pipe_dream_permutation(d))
    2 1 3_
    """
    dream = pipe_dream(diagram)
    images = [0] * diagram.n
    for i, j in dream.trips.items():
        images[i - 1] = j
    white = frozenset(i for i, col in dream.decorations.items() if col == "white")
    return DecoratedPermutation(diagram.n, tuple(images), white)


def is_reduced(diagram: OPlusDiagram) -> bool:
    """True when no two wires cross each other twice."""
    seen: set[frozenset[int]] = set()
    for h, v in pipe_dream(diagram).crossings.values():
        pair = frozenset((h, v))
        if pair in seen:
            return False
        seen.add(pair)
    return True


def is_le_diagram(diagram: OPlusDiagram) -> bool:
    """True when no 0 has a + above it and a + to its left: one row-major
    sweep, with a flag per column for a + above."""
    above = [False] * (diagram.n - diagram.k)
    for row in diagram.rows:
        left = False
        for c, x in enumerate(row):
            if x == "+":
                left = above[c] = True
            elif left and above[c]:
                return False
    return True


# ----------------------------------------------------------------------
# the rectangle move


def find_move(diagram: OPlusDiagram) -> tuple[int, int, int, int] | None:
    """First applicable rectangle move in row-major scan order.

    Returns (r1, c1, r2, c2) where the + at the northwest corner moves
    to the 0 at the southeast corner, or None when sorted.  Each 0 is tried
    with the nearest + above it and the nearest + left of it; the rows above
    are at least as long, so every slice below is a full one.
    """
    rows = diagram.rows
    for r2, row in enumerate(rows):
        c2 = row.find("0")
        while c2 >= 0:
            c1 = row.rfind("+", 0, c2)
            if c1 >= 0:
                r1 = next((r for r in range(r2 - 1, -1, -1) if rows[r][c2] == "+"), -1)
                # row r1's nearest + left of c2 is at c1, and the rows between are clear
                if r1 >= 0 and rows[r1].rfind("+", 0, c2) == c1 \
                        and all("+" not in rows[r][c1:c2] for r in range(r1 + 1, r2)):
                    return r1 + 1, c1 + 1, r2 + 1, c2 + 1
            c2 = row.find("0", c2 + 1)
    return None


def apply_move(diagram: OPlusDiagram, move: tuple[int, int, int, int]) -> OPlusDiagram:
    r1, c1, r2, c2 = move
    return diagram.with_fill({(r1, c1): "0", (r2, c2): "+"})


def le_normalize(diagram: OPlusDiagram) -> OPlusDiagram:
    """Sort a reduced filling by repeated rectangle moves.

    The result is the unique row-and-column sorted filling with the
    same trip permutation.  Raises NotReduced otherwise.
    """
    if not is_reduced(diagram):
        raise NotReduced("filling has a double crossing")
    current = diagram
    while (move := find_move(current)) is not None:
        current = apply_move(current, move)
    if not is_le_diagram(current):
        raise NotReduced("rectangle moves did not sort the filling")
    return current


# ----------------------------------------------------------------------
# lattice shapes and path words


def _shapes(floor: tuple[int, ...], ceiling: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples between two such bounds entrywise, lex-decreasing.

    Between ``(0,)*k`` and ``(b,)*k`` these are the k x b rectangle's paths
    (``_young_rows``), in the lex order of their V steps' positions.
    """
    if any(f > c for f, c in zip(floor, ceiling)):
        return
    shape = list(ceiling)
    last = len(shape) - 1
    while True:
        yield tuple(shape)
        # the next shape: lower the last entry above its floor, raise the later ones
        i = last
        while i >= 0 and shape[i] == floor[i]:
            i -= 1
        if i < 0:
            return
        shape[i] -= 1
        for j in range(i + 1, last + 1):
            shape[j] = min(ceiling[j], shape[j - 1])


def _young_rows(word: str) -> tuple[int, ...]:
    """Row lengths of the diagram northwest of a path (NE start, H west)."""
    rows = []
    h_after = 0
    for ch in reversed(word):
        if ch == "H":
            h_after += 1
        else:
            rows.append(h_after)
    return tuple(reversed(rows))


def _word_from_rows(rows: tuple[int, ...], width: int) -> str:
    """Inverse of _young_rows: the path of a shape in a rectangle ``width`` wide."""
    prev = width
    parts = []
    for x in rows:
        parts.append("H" * (prev - x))
        parts.append("V")
        prev = x
    parts.append("H" * prev)
    return "".join(parts)


def _pair_words(paths) -> tuple[str, str]:
    """The words of an object with ``wu``/``wl`` attributes, or of a pair of words."""
    wu, wl = (paths.wu, paths.wl) if hasattr(paths, "wu") else paths
    return wu, wl


def is_noncrossing(wu: str, wl: str) -> bool:
    """Upper path weakly northeast of the lower path."""
    vu = vl = 0
    for a, b in zip(wu, wl):
        vu += a == "V"
        vl += b == "V"
        if vl < vu:
            return False
    return True


def _rectangle(words) -> tuple[int, int] | None:
    """The (V, H) step counts shared by path words, each weakly northeast of
    the next; each word is checked in turn, letters before rectangle."""
    rectangle = None
    for word in words:
        if not isinstance(word, str):
            raise TypeError("path words are strings of H and V")
        if set(word) - {"H", "V"}:
            raise ValueError("path words use only H and V")
        if rectangle is None:
            rectangle = word.count("V"), word.count("H")
        elif (word.count("V"), word.count("H")) != rectangle:
            raise ValueError("all paths must share one rectangle")
    for upper, lower in zip(words, words[1:]):
        if not is_noncrossing(upper, lower):
            raise Crossing(f"lower path crosses above upper: {upper!r}, {lower!r}")
    return rectangle


def omega_LD(paths) -> OPlusDiagram:
    """Build the diagram of a noncrossing path pair.

    Accepts any object with ``wu``/``wl`` attributes, or a plain pair
    of words over H and V.  Fills in four stages: frame the rows, plant
    one top-justified 0 column per upper-path column as far right as
    possible, give every row its two rightmost free +, then zero out.
    """
    wu, wl = _pair_words(paths)
    k, b = _rectangle((wu, wl))
    n = k + b + 4
    lower = _young_rows(wl)
    upper = _young_rows(wu)
    shape = tuple(lam + 4 for lam in lower)

    fill: dict[tuple[int, int], str] = {}
    for r in range(1, k + 1):
        fill[(r, 1)] = "+"
        fill[(r, shape[r - 1])] = "+"
    upper_width = upper[0] if upper else 0
    for j in range(1, upper_width + 1):
        height = sum(1 for lam in upper if lam >= j)
        for c in range(shape[height - 1] if height else 0, 0, -1):
            if all(fill.get((r, c), "") == "" for r in range(1, height + 1)):
                for r in range(1, height + 1):
                    fill[(r, c)] = "0"
                break
        else:
            raise Crossing("no column left for a 0 block")
    rows = []
    for r in range(1, k + 1):
        free = [c for c in range(1, shape[r - 1] + 1) if (r, c) not in fill]
        for c in free[-2:]:
            fill[(r, c)] = "+"
        rows.append(
            "".join(fill.get((r, c), "0") for c in range(1, shape[r - 1] + 1))
        )
    return OPlusDiagram(k, n, shape, tuple(rows))


# ----------------------------------------------------------------------
# families


def noncrossing_pairs(k: int, b: int) -> Iterator[tuple[str, str]]:
    """All noncrossing pairs of words with k V steps and b H steps: the
    lower shape contains the upper one, each in the order of ``_shapes``."""
    for wu, lower in _pairs_by_upper(k, b):
        yield from zip(repeat(wu), lower)


def _pairs_by_upper(k: int, b: int) -> Iterator[tuple[str, list[str]]]:
    """``noncrossing_pairs`` grouped: each upper word with its lower words."""
    full = (b,) * k
    words = {shape: _word_from_rows(shape, b) for shape in _shapes((0,) * k, full)}
    for upper, wu in words.items():
        yield wu, list(map(words.__getitem__, _shapes(upper, full)))


def enumerate_diagrams(n: int, k: int, m: int) -> list[OPlusDiagram]:
    """The recursive diagram family for amplituhedron dimension m.

    An m=2 member is built by the trusted ``OPlusDiagram._built_many``;
    test_diagrams.py holds each equal to its checked rebuild for n <= 10.

    >>> len(enumerate_diagrams(6, 1, 4))
    3
    """
    if m not in (1, 2, 3, 4) or k < 0 or k > n - m:
        raise BadRange(f"no family for n={n}, k={k}, m={m}")
    if m == 2:
        shapes = list(_shapes((2,) * k, (n - k,) * k))
        return OPlusDiagram._built_many([k] * len(shapes), repeat(n), shapes, [
            tuple("+" + "0" * (lam - 2) + "+" for lam in shape) for shape in shapes])
    if m == 4:
        return [omega_LD(pair) for pair in noncrossing_pairs(k, n - k - 4)]
    if m == 1:
        return [d.delete_leftmost_column() for d in enumerate_diagrams(n + 1, k, 2)]
    return [d.delete_leftmost_column() for d in enumerate_diagrams(n + 1, k, 4)]
