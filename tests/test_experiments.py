"""Experiment reports: closed-form counts, separation sampling, the rank-5
image collision, matching vectors, and the structural sweeps."""

import json

import pytest

from positroids.diagrams import enumerate_diagrams
from positroids.errors import BadRange, NoMatch, RankLoss
from positroids.experiments import (
    ExperimentReport,
    conjecture_sweeps,
    count_report,
    disjointness_experiment,
    m3_counterexample,
    matching_vector,
    narayana,
)
from positroids.linalg import RationalMatrix, make_tp_matrix
from positroids.signs import sign_string, var


class TestNarayana:
    def test_row_five(self):
        assert [narayana(5, b) for b in range(1, 6)] == [1, 10, 20, 10, 1]

    def test_rows_sum_to_catalan(self):
        from math import comb

        for a in range(1, 9):
            total = sum(narayana(a, b) for b in range(1, a + 1))
            assert total == comb(2 * a, a) // (a + 1)

    def test_out_of_range(self):
        assert narayana(4, 0) == 0
        assert narayana(4, 5) == 0


class TestCountReport:
    def test_full_table_passes(self):
        report = count_report(10)
        assert report.verdict == "pass"
        assert all(row["ok"] for row in report.witnesses)
        # one row per (n, k) pair in each regime
        four = [row for row in report.witnesses if row["m"] == 4]
        two = [row for row in report.witnesses if row["m"] == 2]
        assert len(four) == sum(n - 3 for n in range(4, 11))
        assert len(two) == sum(n - 1 for n in range(2, 11))

    def test_known_row(self):
        report = count_report(9)
        row = next(r for r in report.witnesses if r["m"] == 4 and r["n"] == 9 and r["k"] == 2)
        assert row["graphs"] == row["trees"] == row["narayana"] == 50
        assert row["boxed_partitions"] == 50

    def test_m2_rows_are_binomials(self):
        report = count_report(8)
        for row in report.witnesses:
            if row["m"] == 2:
                assert row["graphs"] == row["binomial"]

    def test_bad_range(self):
        with pytest.raises(BadRange):
            count_report(13)
        with pytest.raises(BadRange):
            count_report(3)

    def test_timing_not_serialized(self):
        report = count_report(5)
        assert report.timing > 0
        assert "timing" not in report.to_json()
        assert "timing" not in report.to_tsv()


class TestDisjointness:
    def test_m4_small(self):
        for k in (1, 2):
            report = disjointness_experiment(6, k, 4, samples=3, seed=1)
            assert report.verdict == "pass"
            assert report.witnesses == []
            assert report.parameters == {"n": 6, "k": k, "m": 4, "samples": 3, "seed": 1}

    def test_m2_small(self):
        for k in (1, 2, 3):
            report = disjointness_experiment(5, k, 2, samples=3, seed=0)
            assert report.verdict == "pass"

    def test_preconditions(self):
        with pytest.raises(BadRange):
            disjointness_experiment(6, 1, 3)
        with pytest.raises(BadRange):
            disjointness_experiment(8, 3, 4)
        with pytest.raises(BadRange):
            disjointness_experiment(6, 5, 2)

    def test_nonpositive_samples(self):
        # a "pass" after checking nothing would be vacuous
        for samples in (0, -3):
            with pytest.raises(BadRange):
                disjointness_experiment(8, 2, 4, samples=samples)

    def test_collision_is_a_violation_with_string_witness(self, monkeypatch):
        # a map sending every sample to one point must be caught
        from positroids import experiments
        from positroids.linalg import GrassmannPoint
        point = GrassmannPoint(2, 4, (1, "1/2", 0, 3, 0, "-2/7"))
        monkeypatch.setattr(experiments, "z_map", lambda z, v: point)
        report = disjointness_experiment(6, 1, 4, samples=2, seed=1)
        assert report.verdict == "violation"
        assert [w["first"] for w in report.witnesses] == [{"cell": 0, "sample": 0}] * 5
        assert report.witnesses[0]["second"] == {"cell": 0, "sample": 1}
        assert report.witnesses[0]["image"] == ["1", "1/2", "0", "3", "0", "-2/7"]

    @pytest.mark.parametrize("n, k, m", [(7, 2, 4), (7, 1, 4), (6, 2, 2)])
    def test_equal_samples_of_one_cell_are_one_point(self, n, k, m, monkeypatch):
        # every sample of a cell draws the same values: the images meet, and
        # only the source comparison tells that the points are equal
        from positroids import experiments
        seeds, keys = experiments._sample_seed, experiments._plucker_key
        calls = []
        monkeypatch.setattr(experiments, "_sample_seed", lambda seed, ci, s: seeds(seed, ci, 0))
        monkeypatch.setattr(experiments, "_plucker_key", lambda v: calls.append(v) or keys(v))
        report = disjointness_experiment(n, k, m, samples=3, seed=4)
        assert report.verdict == "pass" and report.witnesses == []
        cells = len(enumerate_diagrams(n, k, m))
        assert len(calls) == 2 * 2 * cells

    def test_rank_deficient_sample_is_a_rank_loss(self, monkeypatch):
        # the source key is computed only where images meet; the rank check
        # it made on every sample is left to the map
        from positroids import experiments
        from positroids.linalg import CellSample
        real = experiments._cell_samples

        def flat(cell, rngs):
            for point in real(cell, rngs):
                zero = RationalMatrix(((0,) * cell.n,) * cell.k)
                yield CellSample(point.diagram, point.values, zero)
        monkeypatch.setattr(experiments, "_cell_samples", flat)
        with pytest.raises(RankLoss):
            disjointness_experiment(6, 1, 4, samples=2, seed=1)

    def test_rank_zero_family_is_trivial(self):
        report = disjointness_experiment(6, 0, 2, samples=3, seed=0)
        assert report.verdict == "pass"

    def test_deterministic_bytes(self):
        a = json.dumps(disjointness_experiment(6, 1, 4, seed=7).to_json(), sort_keys=True)
        b = json.dumps(disjointness_experiment(6, 1, 4, seed=7).to_json(), sort_keys=True)
        assert a == b


class TestM3Counterexample:
    def test_finding(self):
        report = m3_counterexample(seed=0)
        assert report.verdict == "finding"
        checks = report.witnesses[0]["checks"]
        assert all(checks.values())

    def test_equal_points_are_a_violation(self, monkeypatch):
        # every other check still holds, so only distinct_points can fail
        from positroids import experiments
        fixed = experiments.plucker(RationalMatrix(((1, 0) + (0,) * 10, (0, 1) + (0,) * 10)))
        monkeypatch.setattr(experiments, "plucker", lambda matrix: fixed)
        report = m3_counterexample(seed=0)
        checks = report.witnesses[0]["checks"]
        assert checks["distinct_points"] is False
        assert [name for name, ok in checks.items() if not ok] == ["distinct_points"]
        assert report.verdict == "violation"

    def test_vector_off_the_kernel_is_a_violation(self, monkeypatch):
        from positroids import experiments
        real = experiments.find_kernel_vector_with_signs

        def perturbed(z, pattern, seed=0):
            v = list(real(z, pattern, seed=seed))
            v[4] *= 2  # same signs, so both cells are still hit
            return tuple(v)

        monkeypatch.setattr(experiments, "find_kernel_vector_with_signs", perturbed)
        report = m3_counterexample(seed=0)
        checks = report.witnesses[0]["checks"]
        assert checks["difference_in_kernel"] is False
        assert checks["first_membership"] and checks["second_membership"]
        assert report.verdict == "violation"

    def test_kernel_vector_pattern(self):
        report = m3_counterexample(seed=0)
        vals = [RationalMatrix.from_json([report.witnesses[0]["kernel_vector"]]).entries[0]]
        assert sign_string(vals[0]) == "++--++--++--"
        assert var(vals[0]) == 5

    def test_cells_distinct(self):
        report = m3_counterexample(seed=0)
        first = report.witnesses[0]["first_cell"]
        second = report.witnesses[0]["second_cell"]
        assert first != second
        assert first["n"] == second["n"] == 12

    def test_deterministic_bytes(self):
        a = json.dumps(m3_counterexample(seed=3).to_json(), sort_keys=True).encode()
        b = json.dumps(m3_counterexample(seed=3).to_json(), sort_keys=True).encode()
        assert a == b

    def test_seed_changes_witness(self):
        base = m3_counterexample(seed=0).witnesses[0]["kernel_vector"]
        other = m3_counterexample(seed=2).witnesses[0]["kernel_vector"]
        # different seeds may land on the same ray, but the checks must hold anyway
        assert m3_counterexample(seed=2).verdict == "finding"
        assert isinstance(base, list) and isinstance(other, list)


class TestMatchingVector:
    def setup_method(self):
        report = m3_counterexample(seed=0)
        self.z = make_tp_matrix(5, 12)
        self.v1 = RationalMatrix.from_json(report.witnesses[0]["first_matrix"])
        self.v2 = RationalMatrix.from_json(report.witnesses[0]["second_matrix"])

    def test_complementary_rows_match(self):
        got = matching_vector(self.z, self.v1, self.v2, self.v1.entries[1])
        assert got == self.v2.entries[1]
        diff = tuple(a - b for a, b in zip(self.v1.entries[1], got))
        assert var(diff) == 5

    def test_shared_row_is_fixed(self):
        got = matching_vector(self.z, self.v1, self.v2, self.v1.entries[0])
        assert got == self.v1.entries[0]

    def test_vector_outside_first_span(self):
        alien = tuple([1] + [0] * 11)
        with pytest.raises(NoMatch):
            matching_vector(self.z, self.v1, self.v2, alien)

    def test_float_rejected(self):
        z = make_tp_matrix(3, 5)
        first = RationalMatrix([[1, 1, 1, 1, 1]])
        with pytest.raises(TypeError):
            matching_vector(z, first, first, (0.5,) * 5)

    def test_dimension_mismatch(self):
        z = make_tp_matrix(3, 5)
        first = RationalMatrix([[1, 1, 1, 1, 1]])
        second = RationalMatrix([[1, 0, 0, 0, 0]])
        with pytest.raises(NoMatch):
            matching_vector(z, first, second, (1, 1, 1))

    def test_inconsistent_system(self):
        z = make_tp_matrix(3, 5)
        first = RationalMatrix([[1, 1, 1, 1, 1]])
        second = RationalMatrix([[1, 0, 0, 0, 0]])
        with pytest.raises(NoMatch):
            matching_vector(z, first, second, first.entries[0])


class TestConjectureSweeps:
    def test_small_sweep(self):
        report = conjecture_sweeps(6, samples=1, seed=0)
        assert report.verdict == "pass"
        assert report.witnesses == []

    def test_with_open_rank(self):
        report = conjecture_sweeps(7, samples=2, seed=0)
        assert report.verdict in ("pass", "finding")
        for w in report.witnesses:
            assert w["sweep"] == "p-domino-basis"
            assert w["status"] == "unsolved"
            assert w["k"] == 3

    def test_bad_range(self):
        with pytest.raises(BadRange):
            conjecture_sweeps(10)
        with pytest.raises(BadRange):
            conjecture_sweeps(3)

    def test_nonpositive_samples(self):
        for samples in (0, -1):
            with pytest.raises(BadRange):
                conjecture_sweeps(5, samples=samples)

    def test_deterministic_bytes(self):
        a = json.dumps(conjecture_sweeps(5, samples=2, seed=4).to_json(), sort_keys=True)
        b = json.dumps(conjecture_sweeps(5, samples=2, seed=4).to_json(), sort_keys=True)
        assert a == b


class TestReportShape:
    def test_tsv_layout(self):
        report = ExperimentReport("demo", {"n": 5, "seed": 0}, "pass",
                                  [{"a": 1}], 0.25)
        text = report.to_tsv()
        lines = text.splitlines()
        assert lines[0] == "experiment\tdemo"
        assert lines[1] == "verdict\tpass"
        assert "parameter.n\t5" in lines
        assert lines[-1].startswith("witness.0\t")
        assert text.endswith("\n")

    def test_json_roundtrip(self):
        report = ExperimentReport("demo", {"n": 5}, "finding", [], 1.0)
        blob = json.loads(json.dumps(report.to_json()))
        assert blob == {"experiment": "demo", "parameters": {"n": 5},
                        "verdict": "finding", "witnesses": []}
