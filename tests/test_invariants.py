"""Internal invariants raise InvariantViolated, which survives ``python -O``.

Each guarded property always holds, so every test breaks one helper with
monkeypatch to reach the check.
"""

import pytest

from positroids import catalan, experiments, signs
from positroids.diagrams import enumerate_diagrams, le_normalize
from positroids.errors import InvariantViolated, PositroidError
from positroids.linalg import RationalMatrix, make_tp_matrix, sample_cell
from positroids.signs import Domino


def test_not_a_usage_error():
    assert not issubclass(InvariantViolated, PositroidError)
    assert not issubclass(InvariantViolated, (ValueError, KeyError, TypeError))


def test_domino_sum_bound(monkeypatch):
    monkeypatch.setattr(signs, "var", lambda v: 99)
    with pytest.raises(InvariantViolated, match="variation bound"):
        signs.domino_decompose_sum_bound([Domino(3, 1, (1, 1))])


def test_dom_coefficients_independence(monkeypatch):
    diagram = enumerate_diagrams(8, 2, 4)[0]
    matrix = sample_cell(le_normalize(diagram), 1).matrix
    classification = signs.standard_basis_k2(matrix, diagram)
    assert len(signs.dom_coordinates(classification, matrix.entries[0])) == 4
    monkeypatch.setattr(signs, "_eliminate", lambda grid: ([0, 1, 2], 1, 1))
    with pytest.raises(InvariantViolated, match="independent"):
        signs.dom_coordinates(classification, matrix.entries[0])


def test_alternating_sequence_order(monkeypatch):
    # with every domino covering every place, the search takes them in
    # list order, which here puts index 3 before index 2
    doms = [Domino(5, 3, (1, 1)), Domino(5, 1, (1, 1)), Domino(5, 2, (-3, -3))]
    v = (1, -2, -2, 1, 0)
    monkeypatch.setattr(signs, "_covers", lambda d, place: True)
    with pytest.raises(InvariantViolated, match="weakly increase"):
        signs.alternating_domino_sequence(doms, v, [1, 2])


def test_matching_vector_variation(monkeypatch):
    report = experiments.m3_counterexample(seed=0)
    first = RationalMatrix.from_json(report.witnesses[0]["first_matrix"])
    second = RationalMatrix.from_json(report.witnesses[0]["second_matrix"])
    z = make_tp_matrix(5, 12)
    monkeypatch.setattr(experiments, "var", lambda v: 0)
    with pytest.raises(InvariantViolated, match="kernel variation bound"):
        experiments.matching_vector(z, first, second, first.entries[1])


def test_macmahon_integrality(monkeypatch):
    # sums for products leave a remainder at (1, 2, 1): (2 + 3) divided by (1 + 2)
    monkeypatch.setattr(catalan, "prod", sum)
    with pytest.raises(InvariantViolated, match="integer"):
        catalan.macmahon(1, 2, 1)
