"""Decorated permutations of [n].

A decorated permutation is a bijection of {1, ..., n} together with a
color (black or white) on every fixed point.  These objects index the
cells we work with everywhere else, so the type is deliberately small:
a tuple of images and a frozen set of white fixed points.

>>> p = DecoratedPermutation.from_one_line([1, 5, 4, 9, 7, 6, 2, 10, 3, 8],
...                                        white_fixed=[6])
>>> p.anti_excedance_count()
4
>>> print(p)
1_ 5 4 9 7 6^ 2 10 3 8
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import _int, _list
from .records import Record


BLACK = "black"
WHITE = "white"


class DecoratedPermutation(Record):
    """A permutation of [n] with colored fixed points.

    ``images[i-1]`` is the image of ``i``.  Fixed points not listed in
    ``white_fixed`` are black.
    """

    _fields = ("n", "images", "white_fixed")

    def __init__(self, n: int, images: tuple[int, ...],
                 white_fixed: frozenset[int] = frozenset()) -> None:
        store = object.__setattr__  # _set unrolled: the families build thousands
        store(self, "n", n)
        store(self, "images", images)
        store(self, "white_fixed", white_fixed)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if len(self.images) != self.n or sorted(self.images) != list(range(1, self.n + 1)):
            raise ValueError("images must be a bijection of [n]")
        fixed = {i for i in range(1, self.n + 1) if self.images[i - 1] == i}
        if not set(self.white_fixed) <= fixed:
            raise ValueError("white_fixed must be a subset of the fixed points")

    @classmethod
    def from_one_line(
        cls, images: Iterable[int], white_fixed: Iterable[int] = ()
    ) -> "DecoratedPermutation":
        imgs = tuple(images)
        return cls(len(imgs), imgs, frozenset(white_fixed))

    # ------------------------------------------------------------------
    # basic structure

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse_image(self, j: int) -> int:
        return self.images.index(j) + 1

    @property
    def fixed_points(self) -> frozenset[int]:
        return frozenset(i for i in range(1, self.n + 1) if self(i) == i)

    def color_of(self, i: int) -> str:
        """Color of the fixed point i."""
        if self(i) != i:
            raise ValueError(f"{i} is not a fixed point")
        return WHITE if i in self.white_fixed else BLACK

    # ------------------------------------------------------------------
    # statistics and operations

    def anti_excedance_count(self) -> int:
        """Number of i with inverse image above i, plus white fixed points.

        >>> DecoratedPermutation.from_one_line([2, 11, 3, 4, 6, 1, 8, 5, 10, 7, 9]).anti_excedance_count()
        4
        """
        inv = {self.images[i - 1]: i for i in range(1, self.n + 1)}
        count = sum(1 for i in range(1, self.n + 1) if inv[i] > i)
        return count + len(self.white_fixed)

    def left_shift(self, r: int) -> "DecoratedPermutation":
        """Compose with the r-th power of the shift i -> i-1 (mod n).

        r = 0 returns the permutation unchanged.  For r >= 1 every fixed
        point of the result is colored black.
        """
        if r < 0:
            raise ValueError("r must be nonnegative")
        if r == 0:
            return self
        shifted = tuple((v - r - 1) % self.n + 1 for v in self.images)
        return DecoratedPermutation(self.n, shifted, frozenset())

    def parity_involution(self, m: int) -> "DecoratedPermutation":
        """The map sending this permutation to shift^m . w . self . w.

        Here w is the order-reversing involution i -> n+1-i.  Intended
        for even m; odd m is allowed for counterexample exploration.
        With m >= 1 all fixed points of the result are black; with m = 0
        colors follow the conjugation.
        """
        if m < 0:
            raise ValueError("m must be nonnegative")
        n = self.n
        conj = tuple(n + 1 - self(n + 1 - i) for i in range(1, n + 1))
        if m == 0:
            white = frozenset(n + 1 - i for i in self.white_fixed)
            return DecoratedPermutation(n, conj, white)
        shifted = tuple((v - m - 1) % n + 1 for v in conj)
        return DecoratedPermutation(n, shifted, frozenset())

    # ------------------------------------------------------------------
    # serialization

    def __str__(self) -> str:
        parts = []
        for i in range(1, self.n + 1):
            v = self(i)
            if v == i:
                parts.append(f"{v}^" if i in self.white_fixed else f"{v}_")
            else:
                parts.append(str(v))
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "images": list(self.images),
            "white_fixed": sorted(self.white_fixed),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "DecoratedPermutation":
        return cls(
            _int(data["n"]),
            tuple(_int(v) for v in _list(data["images"])),
            frozenset(_int(v) for v in _list(data.get("white_fixed", []))),
        )

    @classmethod
    def parse(cls, text: str) -> "DecoratedPermutation":
        """Inverse of str(): ``"1_ 5 4 ... 6^ ..."``."""
        images = []
        white = []
        for tok in text.split():
            if tok.endswith("^"):
                v = int(tok[:-1])
                white.append(v)
            elif tok.endswith("_"):
                v = int(tok[:-1])
            else:
                v = int(tok)
            images.append(v)
        return cls(len(images), tuple(images), frozenset(white))


def identity(n: int, color: str = BLACK) -> DecoratedPermutation:
    """The identity permutation with all fixed points of one color."""
    white = frozenset(range(1, n + 1)) if color == WHITE else frozenset()
    return DecoratedPermutation(n, tuple(range(1, n + 1)), white)
