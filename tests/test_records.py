"""The package's records against ``dataclasses``, which they replaced.

Each record class has a dataclass twin declared here from its field names,
with the options the class was declared with.  Every check compares what a
record does with what its twin does: ``==``, ``hash``, ``repr`` and set
order, the signature and its defaults, the ``TypeError`` of a bad call, and
the ``AttributeError`` of an assignment or a deletion.  The instances are
real: every tree, Dyck path, path pair and m=4 permutation with n <= 9,
every Le-diagram with n <= 7 and its permutation (the wiring, network and
graph of those with n <= 6), and seeded samples, bases and experiment
reports.  Last, the fields that a package-built record makes on first read
are checked as views.
"""

import inspect
import math
from copy import copy
from dataclasses import MISSING, field, fields, make_dataclass
from functools import cache
from itertools import product

import pytest

from positroids.catalan import BinaryTree, DyckPath, NoncrossingPathTuple, PathPair, \
    PlanePartition, enumerate_dyck_paths, enumerate_path_pairs, enumerate_path_tuples, \
    enumerate_trees, omega_PL, omega_TL, paths_to_plane_partition, plane_partition_to_paths, \
    tree_to_graph
from positroids.diagrams import OPlusDiagram, PipeDream, enumerate_diagrams, le_normalize, \
    pipe_dream, pipe_dream_permutation
from positroids.experiments import ExperimentReport, count_report, disjointness_experiment
from positroids.linalg import CellSample, GrassmannPoint, RationalMatrix, plucker, sample_cell
from positroids.permutations import DecoratedPermutation
from positroids.plabic import Network, PlabicGraph, bcfw_permutations, build_network, \
    graph_from_le
from positroids.signs import Domino, K2Classification, standard_basis_k2

# class -> its fields (name, or name, type, default) and the dataclass options it had
_SPECS = [
    (DecoratedPermutation,
     ["n", "images", ("white_fixed", frozenset, field(default_factory=frozenset))], {}),
    (OPlusDiagram, ["k", "n", "shape", "rows"], {}),
    (PipeDream, ["diagram", "sources", "column_labels", "trips", "decorations", "crossings"], {}),
    (BinaryTree, [("horizontal", object, None), ("vertical", object, None)], {}),
    (PathPair, ["wu", "wl", ("m", int, 4)], {}),
    (DyckPath, ["steps"], {}),
    (NoncrossingPathTuple, ["words"], {}),
    (PlanePartition, ["a", "b", "c", "rows"], {}),
    (RationalMatrix, ["entries", ("cols", object, None)], {}),
    (GrassmannPoint, ["k", "n", "coords"], {}),
    (CellSample, ["diagram", "values", "matrix"], {"eq": False}),
    (PlabicGraph, ["n", "colors"], {"eq": False, "init": False}),
    (Network, ["k", "n", "sources", "sinks", "variables", "horizontal", "vertical"], {}),
    (Domino, ["n", "index", "values"], {}),
    (K2Classification, ["cell_class", "flavor", "d", "e", "dominoes", "indices"], {}),
    (ExperimentReport, ["experiment", "parameters", "verdict", "witnesses", "timing"],
     {"frozen": False}),
]
TWINS = {cls: make_dataclass(cls.__name__, names, **{"frozen": True, **options})
         for cls, names, options in _SPECS}
_ids = [cls.__name__ for cls in TWINS]


def _le_diagrams(k, n, rows=(), above=frozenset()):
    """Every Le-diagram of Gr(k, n): no 0 has a + to its left and a + above it."""
    if len(rows) == k:
        yield OPlusDiagram.from_rows(k, n, rows)
        return
    for width in range(len(rows[-1]) if rows else n - k, -1, -1):
        for row in map("".join, product("0+", repeat=width)):
            plus = {c for c, x in enumerate(row) if x == "+"}
            if all(x == "+" or c not in above or "+" not in row[:c] for c, x in enumerate(row)):
                yield from _le_diagrams(k, n, rows + (row,), above | plus)


@cache
def _instances() -> dict:
    out = {cls: [] for cls in TWINS}
    for n in range(4, 10):
        for k in range(n - 3):
            trees = enumerate_trees(n, k)
            out[BinaryTree] += trees
            out[PathPair] += [*enumerate_path_pairs(n, k), *map(omega_TL, trees)]
            paths = enumerate_dyck_paths(n, k)
            out[DyckPath] += paths
            out[PathPair] += map(omega_PL, paths)
            out[PlabicGraph] += map(tree_to_graph, trees)
            out[DecoratedPermutation] += bcfw_permutations(n, k, 4)
    diagrams = [d for n in range(1, 8) for k in range(n + 1) for d in _le_diagrams(k, n)]
    assert len(diagrams) == sum(math.factorial(n) // math.factorial(j)
                                for n in range(1, 8) for j in range(n + 1))
    out[OPlusDiagram] += diagrams
    out[DecoratedPermutation] += map(pipe_dream_permutation, diagrams)
    smaller = [d for d in diagrams if d.n <= 6]
    out[PipeDream] += map(pipe_dream, smaller)
    out[Network] += map(build_network, smaller)
    out[PlabicGraph] += map(graph_from_le, smaller)
    for ci, diagram in enumerate(enumerate_diagrams(7, 2, 4)):
        sample = sample_cell(le_normalize(diagram), rng=31 * ci)
        out[CellSample].append(sample)
        out[RationalMatrix] += [sample.matrix, RationalMatrix(sample.matrix.entries)]
        point = plucker(sample.matrix)
        out[GrassmannPoint] += [point, GrassmannPoint(point.k, point.n, point.coords)]
        basis = standard_basis_k2(sample.matrix, diagram)
        out[K2Classification].append(basis)
        out[Domino] += basis.dominoes
    for tuples in (enumerate_path_tuples(3, 3, 3), enumerate_path_tuples(2, 4, 2)):
        for paths in tuples:
            partition = paths_to_plane_partition(paths)
            out[NoncrossingPathTuple] += [paths, plane_partition_to_paths(partition)]
            out[PlanePartition].append(partition)
    out[ExperimentReport] += [count_report(6),
                              disjointness_experiment(7, 2, 4, samples=1, seed=3)]
    return out


def _twin(value, memo):
    """The value with every record in it, at any depth, made the twin's way."""
    if isinstance(value, tuple):
        return tuple(_twin(v, memo) for v in value)
    twin = TWINS.get(type(value))
    if twin is None:
        return value
    if id(value) not in memo:  # one twin per record: identity equality compares too
        made = memo[id(value)] = object.__new__(twin)
        for f in fields(twin):
            object.__setattr__(made, f.name, _twin(getattr(value, f.name), memo))
    return memo[id(value)]


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as error:
        return str(error)


@pytest.mark.parametrize("cls", TWINS, ids=_ids)
def test_equality_hash_and_repr(cls):
    records = _instances()[cls]
    assert records, cls
    memo = {}
    twins = [_twin(r, memo) for r in records]
    assert [repr(r) for r in records] == [repr(t) for t in twins]
    assert all(r.__eq__(t) is NotImplemented and r.__eq__(None) is NotImplemented
               for r, t in zip(records, twins))
    if cls is PlabicGraph:  # its own __init__, __eq__ and __hash__ (canonical forms)
        return
    # each record against itself, a copy, and its neighbour in the list
    assert ([(r == r, r == copy(r), r == s, r != s) for r, s in zip(records, records[1:])]
            == [(t == t, t == copy(t), t == u, t != u) for t, u in zip(twins, twins[1:])])
    if cls is CellSample:  # equal only to itself: see the test below
        return
    assert [_hash(r) for r in records] == [_hash(t) for t in twins]
    if isinstance(_hash(records[0]), int):  # set and dict order follow the hashes
        assert [repr(r) for r in set(records)] == [repr(t) for t in set(twins)]
        assert ([repr(r) for r in dict.fromkeys(records)]
                == [repr(t) for t in dict.fromkeys(twins)])


@pytest.mark.parametrize("cls", [cls for cls in TWINS if cls is not PlabicGraph],
                         ids=lambda cls: cls.__name__)
def test_signature_defaults_and_bad_calls(cls):
    twin = TWINS[cls]
    expected = [(f.name, f.default if f.default_factory is MISSING else f.default_factory())
                for f in fields(twin)]
    got = [(p.name, MISSING if p.default is p.empty else p.default)
           for p in inspect.signature(cls).parameters.values()]
    assert got == expected
    args = [getattr(_instances()[cls][0], name) for name, _ in expected]
    # too many, unknown, twice given, and each required one left out (then all of them)
    calls = [((*args, 0), {}), (args, {"unknown": 1}), (args, {expected[0][0]: args[0]})]
    required = [name for name, default in expected if default is MISSING]
    calls += [((), {n: a for (n, _), a in zip(expected, args) if n != name}) for name in required]
    calls += [((), {})] if required else []
    for positional, keywords in calls:
        with pytest.raises(TypeError) as mine:
            cls(*positional, **keywords)
        with pytest.raises(TypeError) as theirs:
            twin(*positional, **keywords)
        assert str(mine.value) == str(theirs.value)


@pytest.mark.parametrize("cls", TWINS, ids=_ids)
def test_assignment_and_deletion(cls):
    record = copy(_instances()[cls][0])  # a copy: ExperimentReport changes in place
    twin = _twin(record, {})
    for name in (fields(twin)[0].name, "unknown"):
        outcomes = []
        for obj in (record, twin):
            for act in (lambda: setattr(obj, name, 1), lambda: delattr(obj, name)):
                try:
                    act()
                    outcomes.append(None)
                except AttributeError as error:
                    outcomes.append(str(error))
        assert outcomes[:2] == outcomes[2:], (cls, name)
        assert (None in outcomes) == (cls is ExperimentReport)
    assert "unknown" not in vars(record)


def test_a_cell_sample_is_equal_only_to_itself():
    sample = _instances()[CellSample][0]
    copy = CellSample(sample.diagram, dict(sample.values), sample.matrix)
    assert sample == sample and sample != copy and len({sample, copy}) == 2
    assert hash(sample) == object.__hash__(sample)


# the fields a package-built record stores in another form and makes on first read
VIEWS = [(RationalMatrix, "entries"), (CellSample, "values"), (K2Classification, "d"),
         (K2Classification, "e"), (K2Classification, "dominoes"), (BinaryTree, "horizontal"),
         (BinaryTree, "vertical")]


def _as_sampled(cls):
    """A record of ``cls`` as the sampling path, or its family, builds it, no field read yet."""
    if cls is BinaryTree:  # a tree stores only its word
        return enumerate_trees(9, 2)[7]
    sample = sample_cell(le_normalize(enumerate_diagrams(7, 2, 4)[5]), rng=11)
    return {CellSample: sample, RationalMatrix: sample.matrix,
            K2Classification: standard_basis_k2(sample.matrix)}[cls]


@pytest.mark.parametrize("cls, name", VIEWS, ids=[f"{c.__name__}.{n}" for c, n in VIEWS])
def test_views_are_made_once_and_never_replace_a_stored_field(cls, name):
    with pytest.raises(AttributeError):  # not RecursionError: a view reads the stored form
        getattr(cls.__new__(cls), name)
    built = _as_sampled(cls)
    assert name not in vars(built)
    value = getattr(built, name)
    assert vars(built)[name] is value is getattr(built, name)
    checked = cls(*(getattr(built, f) for f in cls._fields))
    stored = vars(checked)[name]
    assert stored == value
    # reads every field and view; a sample is equal only to itself
    assert repr(checked) == repr(built) and (checked == built) is (cls is not CellSample)
    for other in (n for c, n in VIEWS if c is cls):
        getattr(checked, other)
    assert getattr(checked, name) is vars(checked)[name] is stored
