"""Command-line interface: verbs, exit codes, JSON stdio, SVG validity."""

import io
import json
import os
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from positroids.catalan import (
    DyckPath,
    enumerate_dyck_paths,
    enumerate_path_pairs,
    enumerate_trees,
    omega_TL,
    tree_to_graph,
)
from positroids import cli, experiments
from positroids.cli import run
from positroids.diagrams import OPlusDiagram, enumerate_diagrams, le_normalize
from positroids.errors import InvariantViolated
from positroids.experiments import narayana
from positroids.linalg import RationalMatrix, positroid_membership
from positroids.plabic import bcfw_permutations, enumerate_bcfw_graphs, trip_permutation


def invoke(argv, stdin_text=""):
    out = io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


class TestEnumerate:
    def test_three_dyck_words(self):
        code, text = invoke(["enumerate", "--kind", "dyck",
                             "--n", "6", "--k", "1", "--m", "4"])
        assert code == 0
        words = json.loads(text)
        assert len(words) == 3
        for word in words:
            path = DyckPath.from_json(word)
            assert path.n == 6 and path.k == 1

    def test_tree_count(self):
        code, text = invoke(["enumerate", "--kind", "tree", "--n", "7", "--k", "1"])
        assert code == 0
        assert len(json.loads(text)) == narayana(4, 2)

    @pytest.mark.parametrize("kind, n, k", [("tree", 30, 0), ("dyck", 60, 56)])
    def test_one_member_of_a_large_family(self, kind, n, k):
        # one member each (N(27, 1) = N(57, 57) = 1): the cost follows the output
        code, text = invoke(["enumerate", "--kind", kind, "--n", str(n), "--k", str(k)])
        assert code == 0
        assert len(json.loads(text)) == 1

    @pytest.mark.parametrize("argv, family", [
        ("--kind tree --n 9 --k 2", lambda: enumerate_trees(9, 2)),
        ("--kind dyck --n 9 --k 2", lambda: enumerate_dyck_paths(9, 2)),
        ("--kind graph --n 9 --k 4 --m 4", lambda: enumerate_bcfw_graphs(9, 4, 4)),
        ("--kind diagram --n 8 --k 3 --m 2", lambda: enumerate_diagrams(8, 3, 2)),
    ])
    def test_json_is_one_dumps_of_the_list(self, argv, family):
        # the writer joins one json.dumps per object: the bytes must not move
        code, text = invoke(["enumerate", *argv.split()])
        assert code == 0
        assert text == json.dumps([o.to_json() for o in family()]) + "\n"

    def test_permutation_kind(self):
        code, text = invoke(["enumerate", "--kind", "permutation",
                             "--n", "6", "--k", "1", "--m", "4"])
        assert code == 0
        perms = json.loads(text)
        assert len(perms) == 3
        assert all(p["n"] == 6 for p in perms)

    def test_pathtuple_kind(self):
        code, text = invoke(["enumerate", "--kind", "pathtuple",
                             "--a", "2", "--b", "2", "--c", "2"])
        assert code == 0
        assert len(json.loads(text)) == 20  # M(2,2,2)

    def test_tsv_one_per_line(self):
        code, text = invoke(["enumerate", "--kind", "dyck", "--n", "6", "--k", "1",
                             "--format", "tsv"])
        assert code == 0
        assert len(text.strip().splitlines()) == 3

    def test_ascii_dyck(self):
        code, text = invoke(["enumerate", "--kind", "dyck", "--n", "6", "--k", "0",
                             "--format", "ascii"])
        assert code == 0
        assert "/" in text

    def test_ascii_unsupported_kind(self):
        code, _ = invoke(["enumerate", "--kind", "graph", "--n", "6", "--k", "2",
                          "--format", "ascii"])
        assert code == 2

    def test_missing_parameters(self):
        code, _ = invoke(["enumerate", "--kind", "dyck"])
        assert code == 2
        code, _ = invoke(["enumerate", "--kind", "pathtuple", "--a", "2"])
        assert code == 2


class TestConvert:
    def test_tree_graph_round_trip(self):
        for tree in enumerate_trees(7, 1):
            blob = json.dumps(tree.to_json())
            code, graph_text = invoke(["convert", "--from", "tree", "--to", "graph"],
                                      blob)
            assert code == 0
            code, back = invoke(["convert", "--from", "graph", "--to", "tree"],
                                graph_text)
            assert code == 0
            assert json.loads(back) == tree.to_json()

    def test_paths_dyck_round_trip(self):
        for pair in enumerate_path_pairs(7, 2):
            blob = json.dumps(pair.to_json())
            code, word = invoke(["convert", "--from", "paths", "--to", "dyck"], blob)
            assert code == 0
            code, back = invoke(["convert", "--from", "dyck", "--to", "paths"], word)
            assert code == 0
            assert json.loads(back) == pair.to_json()

    def test_paths_plane_partition_round_trip(self):
        for pair in enumerate_path_pairs(8, 2):
            blob = json.dumps(pair.to_json())
            code, part = invoke(["convert", "--from", "paths",
                                 "--to", "planepartition"], blob)
            assert code == 0
            code, back = invoke(["convert", "--from", "planepartition",
                                 "--to", "paths"], part)
            assert code == 0
            assert json.loads(back) == pair.to_json()

    def test_paths_to_diagram_to_permutation(self):
        pair = list(enumerate_path_pairs(7, 1))[0]
        code, diag_text = invoke(["convert", "--from", "paths", "--to", "diagram"],
                                 json.dumps(pair.to_json()))
        assert code == 0
        code, perm_text = invoke(["convert", "--from", "diagram",
                                  "--to", "permutation"], diag_text)
        assert code == 0
        assert json.loads(perm_text)["n"] == 7

    def test_tree_to_permutation_shift(self):
        tree = enumerate_trees(7, 1)[0]
        expected = trip_permutation(tree_to_graph(tree)).left_shift(2)
        code, text = invoke(["convert", "--from", "tree", "--to", "permutation",
                             "--shift", "2"], json.dumps(tree.to_json()))
        assert code == 0
        assert json.loads(text) == expected.to_json()

    def test_diagram_to_network(self):
        diagram = enumerate_diagrams(6, 2, 2)[0]
        code, text = invoke(["convert", "--from", "diagram", "--to", "network"],
                            json.dumps(diagram.to_json()))
        assert code == 0
        net = json.loads(text)
        assert len(net["variables"]) == sum(r.count("+") for r in diagram.rows)

    def test_non_le_diagram_to_network_fails(self):
        bad = next(d for d in enumerate_diagrams(7, 2, 4)
                   if le_normalize(d) != d)
        code, _ = invoke(["convert", "--from", "diagram", "--to", "network"],
                         json.dumps(bad.to_json()))
        assert code == 2

    def test_unsupported_arrow(self):
        code, _ = invoke(["convert", "--from", "graph", "--to", "dyck"], "{}")
        assert code == 2

    def test_graph_with_misplaced_half_edges_fails(self):
        blob = ('{"n":2,"internal":[],"edges":[[1,2]],'
                '"rotation":{"1":[0],"2":[1],"5":[1,0]}}')
        code, text = invoke(["convert", "--from", "graph", "--to", "permutation"],
                            blob)
        assert code == 2 and text == ""


class TestSample:
    def test_shape_and_membership(self):
        code, text = invoke(["sample", "--n", "6", "--k", "1", "--m", "4",
                             "--count", "2", "--seed", "3"])
        assert code == 0
        blocks = json.loads(text)
        assert len(blocks) == len(enumerate_diagrams(6, 1, 4))
        for block in blocks:
            cell = le_normalize(OPlusDiagram.from_json(block["diagram"]))
            for draw in block["samples"]:
                matrix = RationalMatrix.from_json(draw["matrix"])
                assert matrix.rows == 1 and matrix.cols == 6
                assert positroid_membership(matrix, cell)

    def test_deterministic(self):
        argv = ["sample", "--n", "6", "--k", "2", "--m", "2", "--seed", "5"]
        assert invoke(argv) == invoke(argv)

    def test_single_cell_and_bad_index(self):
        code, text = invoke(["sample", "--n", "6", "--k", "1", "--m", "2",
                             "--cell", "0"])
        assert code == 0
        assert len(json.loads(text)) == 1
        code, _ = invoke(["sample", "--n", "6", "--k", "1", "--m", "2",
                          "--cell", "99"])
        assert code == 2


class TestVerify:
    def test_le_diagram(self):
        good = enumerate_diagrams(6, 2, 2)[0]
        code, text = invoke(["verify", "--kind", "diagram"],
                            json.dumps(good.to_json()))
        assert code == 0 and json.loads(text) == {"le": True}

    def test_non_le_diagram(self):
        bad = next(d for d in enumerate_diagrams(7, 2, 4)
                   if le_normalize(d) != d)
        code, text = invoke(["verify", "--kind", "diagram"],
                            json.dumps(bad.to_json()))
        assert code == 1 and json.loads(text) == {"le": False}

    def test_membership(self):
        code, sample_text = invoke(["sample", "--n", "6", "--k", "1", "--m", "4",
                                    "--cell", "1", "--seed", "2"])
        assert code == 0
        block = json.loads(sample_text)[0]
        payload = json.dumps({"matrix": block["samples"][0]["matrix"],
                              "diagram": block["diagram"]})
        code, text = invoke(["verify", "--kind", "membership"], payload)
        assert code == 0 and json.loads(text) == {"member": True}

    def test_membership_wrong_cell(self):
        code, sample_text = invoke(["sample", "--n", "6", "--k", "1", "--m", "4",
                                    "--cell", "1", "--seed", "2"])
        blocks = json.loads(sample_text)
        other = enumerate_diagrams(6, 1, 4)[0]
        payload = json.dumps({"matrix": blocks[0]["samples"][0]["matrix"],
                              "diagram": other.to_json()})
        code, text = invoke(["verify", "--kind", "membership"], payload)
        assert code == 1 and json.loads(text) == {"member": False}

    ROW = {"k": 1, "n": 3, "shape": [2], "rows": ["++"]}

    def test_membership_float_entry_is_usage_error(self):
        payload = json.dumps({"matrix": [[1.5, 1, 1]], "diagram": self.ROW})
        code, text = invoke(["verify", "--kind", "membership"], payload)
        assert code == 2 and text == ""
        payload = json.dumps({"matrix": [["3/2", 1, 1]], "diagram": self.ROW})
        assert invoke(["verify", "--kind", "membership"], payload) == (0, '{"member": true}\n')

    def test_membership_wrong_shape_is_usage_error(self):
        for matrix in ([[1, 1]], [[1, 1, 1], [0, 1, 2]], []):
            payload = json.dumps({"matrix": matrix, "diagram": self.ROW})
            code, text = invoke(["verify", "--kind", "membership"], payload)
            assert code == 2 and text == ""

    def test_membership_of_a_rank_zero_sample(self):
        code, sample_text = invoke(["sample", "--n", "6", "--k", "0", "--m", "4"])
        block = json.loads(sample_text)[0]
        assert block["samples"][0]["matrix"] == []
        payload = json.dumps({"matrix": [], "diagram": block["diagram"]})
        code, text = invoke(["verify", "--kind", "membership"], payload)
        assert code == 0 and json.loads(text) == {"member": True}


class TestExperiment:
    def test_counts(self):
        code, text = invoke(["experiment", "counts", "--n-max", "6"])
        assert code == 0
        assert json.loads(text)["verdict"] == "pass"

    def test_counts_tsv(self):
        code, text = invoke(["experiment", "counts", "--n-max", "5",
                             "--format", "tsv"])
        assert code == 0
        assert text.startswith("experiment\tcounts")

    def test_disjointness(self):
        code, text = invoke(["experiment", "disjointness", "--n", "6", "--k", "1",
                             "--m", "4", "--samples", "2"])
        assert code == 0
        assert json.loads(text)["verdict"] == "pass"

    def test_m3_finding_exits_zero(self):
        code, text = invoke(["experiment", "m3-counterexample", "--seed", "1"])
        assert code == 0
        report = json.loads(text)
        assert report["verdict"] == "finding"
        assert report["witnesses"][0]["checks"]["equal_images"]

    def test_sweeps(self):
        code, text = invoke(["experiment", "sweeps", "--n-max", "5",
                             "--samples", "1"])
        assert code == 0
        assert json.loads(text)["verdict"] == "pass"

    def test_bad_parameters(self):
        code, _ = invoke(["experiment", "disjointness", "--n", "8", "--k", "3",
                          "--m", "4"])
        assert code == 2


def _assert_valid_svg(text: str) -> None:
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")


class TestRender:
    def test_svg_all_kinds_full_families(self):
        n = 8
        for k in range(0, n - 3):
            for tree in enumerate_trees(n, k):
                code, text = invoke(["render", "--kind", "tree"],
                                    json.dumps(tree.to_json()))
                assert code == 0
                _assert_valid_svg(text)
            for path in enumerate_dyck_paths(n, k):
                code, text = invoke(["render", "--kind", "dyck"],
                                    json.dumps(path.to_json()))
                assert code == 0
                _assert_valid_svg(text)
            for pair in enumerate_path_pairs(n, k):
                code, text = invoke(["render", "--kind", "paths"],
                                    json.dumps(pair.to_json()))
                assert code == 0
                _assert_valid_svg(text)
        for k in range(0, n - 3):
            for diagram in enumerate_diagrams(n, k, 4):
                code, text = invoke(["render", "--kind", "diagram"],
                                    json.dumps(diagram.to_json()))
                assert code == 0
                _assert_valid_svg(text)
            for perm in bcfw_permutations(n, k, 4):
                code, text = invoke(["render", "--kind", "permutation"],
                                    json.dumps(perm.to_json()))
                assert code == 0
                _assert_valid_svg(text)
        for kstat in range(2, n - 1):
            for graph in enumerate_bcfw_graphs(n, kstat, 4):
                code, text = invoke(["render", "--kind", "graph"],
                                    json.dumps(graph.to_json()))
                assert code == 0
                _assert_valid_svg(text)
        for k in range(0, n - 1):
            for diagram in enumerate_diagrams(n, k, 2):
                code, text = invoke(["render", "--kind", "network"],
                                    json.dumps(diagram.to_json()))
                assert code == 0
                _assert_valid_svg(text)
        for k in range(0, n - 3):
            for pair in enumerate_path_pairs(n, k):
                code, text = invoke(["convert", "--from", "paths",
                                     "--to", "planepartition"],
                                    json.dumps(pair.to_json()))
                code, text = invoke(["render", "--kind", "planepartition"], text)
                assert code == 0
                _assert_valid_svg(text)

    def test_ascii_dyck(self):
        code, text = invoke(["render", "--kind", "dyck", "--format", "ascii"],
                            json.dumps("UUDD"))
        assert code == 0
        assert "/" in text and "\\" in text

    def test_ascii_unsupported(self):
        graph = enumerate_bcfw_graphs(6, 2, 4)[0]
        code, _ = invoke(["render", "--kind", "graph", "--format", "ascii"],
                         json.dumps(graph.to_json()))
        assert code == 2


class TestUsage:
    def test_no_arguments(self):
        code, _ = invoke([])
        assert code == 2

    def test_unknown_verb(self):
        code, _ = invoke(["frobnicate"])
        assert code == 2

    def test_help_exits_zero(self):
        code, _ = invoke(["--help"])
        assert code == 0

    def test_malformed_input_json(self):
        code, _ = invoke(["convert", "--from", "tree", "--to", "graph"],
                         "this is not json")
        assert code == 2

    def test_nonpositive_samples_rejected(self):
        for argv in (["experiment", "disjointness", "--n", "8", "--k", "2", "--samples", "-3"],
                     ["experiment", "disjointness", "--n", "8", "--k", "2", "--samples", "0"],
                     ["experiment", "sweeps", "--n-max", "5", "--samples", "0"]):
            code, text = invoke(argv)
            assert code == 2 and text == ""

    @pytest.mark.parametrize("entry", [lambda i, j: (i + 1) ** j, lambda i, j: 0],
                             ids=["full-rank", "rank-deficient"])
    def test_membership_shape_checked_before_minors(self, entry, capsys):
        # an 11x22 matrix for a k=1 diagram: C(22,11) minors if the shape came second
        payload = json.dumps({
            "diagram": {"k": 1, "n": 22, "shape": [21], "rows": ["+" * 21]},
            "matrix": [[str(entry(i, j)) for j in range(22)] for i in range(11)],
        })
        start = time.perf_counter()
        code, text = invoke(["verify", "--kind", "membership"], payload)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and text == ""
        assert "11x22 matrix for Gr(1,22)" in capsys.readouterr().err

    def test_membership_minor_count_capped(self, capsys):
        # a 13x26 matrix for a Gr(13,26) diagram: C(26,13) = 10,400,600 minors, twice
        payload = json.dumps({
            "diagram": {"k": 13, "n": 26, "shape": [13] * 13, "rows": ["+" * 13] * 13},
            "matrix": [[str((i + 1) ** j) for j in range(26)] for i in range(13)],
        })
        start = time.perf_counter()
        code, text = invoke(["verify", "--kind", "membership"], payload)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "C(26, 13) minors exceed" in err and "internal error" not in err

    @pytest.mark.parametrize("row, want", [(["1", "2", "3"], 0), (["1", "0", "3"], 1),
                                           (["1", "-2", "3"], 1)])
    def test_small_membership_under_the_cap(self, row, want):
        payload = json.dumps({"diagram": {"k": 1, "n": 3, "shape": [2], "rows": ["++"]},
                              "matrix": [row]})
        assert invoke(["verify", "--kind", "membership"], payload) == (
            want, json.dumps({"member": want == 0}) + "\n")

    def test_huge_decimal_exponent_refused(self, capsys):
        # Fraction would build the power of ten first: seconds for "1e3000000"
        def member(entry):
            return json.dumps({"diagram": {"k": 1, "n": 1, "shape": [0], "rows": [""]},
                               "matrix": [[entry]]})

        start = time.perf_counter()
        code, text = invoke(["verify", "--kind", "membership"], member("1e3000000"))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "decimal exponent" in err and "internal error" not in err
        assert invoke(["verify", "--kind", "membership"], member("1e3")) == (
            0, '{"member": true}\n')

    def test_nonpositive_count_rejected(self):
        for count in ("-1", "0"):
            code, text = invoke(["sample", "--n", "6", "--k", "1", "--count", count])
            assert code == 2 and text == ""

    @pytest.mark.parametrize("argv, payload", [
        (["render", "--kind", "dyck", "--format", "ascii"], "42"),
        (["convert", "--from", "graph", "--to", "tree"],
         json.dumps({**enumerate_bcfw_graphs(6, 2, 4)[0].to_json(), "rotation": []})),
        (["convert", "--from", "paths", "--to", "dyck"], '{"wu": {}, "wl": {}}'),
        (["convert", "--from", "paths", "--to", "dyck"], '{"wu": ["H"], "wl": ["H"]}'),
        (["convert", "--from", "dyck", "--to", "paths"], '""'),
        (["verify", "--kind", "diagram"], '{"k": 1, "n": 2, "shape": [1], "rows": [0]}'),
        (["render", "--kind", "diagram", "--format", "ascii"],
         '{"k": 1, "n": 2, "shape": [1], "rows": [0]}'),
        (["verify", "--kind", "diagram"], '{"k": 1, "n": 2, "shape": [1], "rows": [["+"]]}'),
        (["verify", "--kind", "diagram"], '{"k": 1, "n": 2, "shape": [1], "rows": "0"}'),
        (["render", "--kind", "diagram", "--format", "ascii"],
         '{"k": 1, "n": 2, "shape": [1], "rows": {"+": 1}}'),
        (["verify", "--kind", "membership"],
         '{"diagram": {"k": 1, "n": 1, "shape": [0], "rows": [""]}, "matrix": "1"}'),
        (["verify", "--kind", "membership"],
         '{"diagram": {"k": 1, "n": 3, "shape": [2], "rows": ["++"]}, "matrix": {"123": 0}}'),
        (["verify", "--kind", "membership"],
         '{"diagram": {"k": 1, "n": 3, "shape": [2], "rows": ["++"]}, "matrix": ["123"]}'),
        (["render", "--kind", "planepartition", "--format", "ascii"],
         '{"a": 1, "b": 1, "c": 1, "rows": [""]}'),
        (["render", "--kind", "permutation", "--format", "ascii"],
         '{"n": 1, "images": [1], "white_fixed": {}}'),
        (["convert", "--from", "graph", "--to", "permutation"],
         '{"n": 2, "internal": {}, "edges": [[1, 2]], "rotation": {"1": [0], "2": [1]}}'),
    ], ids=["int-dyck", "list-rotation", "object-words", "list-words", "empty-dyck",
            "int-row-verify", "int-row-render", "list-row", "string-rows", "object-rows",
            "string-matrix", "object-matrix", "string-matrix-row", "string-filling-row",
            "object-white-fixed", "object-internal"])
    def test_wrongly_typed_json_is_usage_error(self, argv, payload, capsys):
        code, text = invoke(argv, payload)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "positroids: error: " in err and "internal error" not in err

    @pytest.mark.parametrize("argv, payload", [
        (["render", "--kind", "diagram", "--format", "svg"],
         '{"k": Infinity, "n": 3, "shape": [2], "rows": ["++"]}'),
        (["render", "--kind", "permutation", "--format", "svg"],
         '{"n": Infinity, "images": []}'),
        (["verify", "--kind", "diagram"],
         '{"k": NaN, "n": 3, "shape": [2], "rows": ["++"]}'),
        (["convert", "--from", "dyck", "--to", "paths"], '[-Infinity]'),
    ], ids=["infinity-diagram", "infinity-permutation", "nan-verify", "minus-infinity"])
    def test_nonstandard_json_constants_are_usage_errors(self, argv, payload, capsys):
        code, text = invoke(argv, payload)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "is not a JSON number" in err and "internal error" not in err

    @pytest.mark.parametrize("argv, payload", [
        (["convert", "--from", "graph", "--to", "permutation"],
         '{"n":2,"internal":[],"edges":[[1,2]],"rotation":{"1":[5],"1":[0],"2":[1]}}'),
        (["render", "--kind", "permutation", "--format", "ascii"],
         '{"n":3,"n":2,"images":[2,1]}'),
        (["verify", "--kind", "membership"],
         '{"matrix": [[1, 1, 1]], "diagram": {"k": 1, "n": 3, "k": 1, "shape": [2], '
         '"rows": ["++"]}}'),
    ], ids=["rotation-key", "permutation-size", "nested-diagram"])
    def test_repeated_json_keys_are_usage_errors(self, argv, payload, capsys):
        # json.load alone keeps the last of two equal keys, and the request runs
        code, text = invoke(argv, payload)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "repeated" in err and "internal error" not in err

    @pytest.mark.parametrize("argv, payload", [
        (["verify", "--kind", "diagram"],
         '{"k": 1.9, "n": 3.2, "shape": [2.7], "rows": ["++"]}'),
        (["render", "--kind", "permutation", "--format", "ascii"],
         '{"n": true, "images": [1]}'),
        (["render", "--kind", "planepartition", "--format", "ascii"],
         '{"a": 1, "b": 1, "c": 2, "rows": [[1.5]]}'),
        (["render", "--kind", "graph", "--format", "svg"],
         json.dumps({**enumerate_bcfw_graphs(6, 2, 4)[0].to_json(), "n": "6"})),
    ], ids=["float-diagram", "bool-permutation", "float-entry", "string-graph-size"])
    def test_json_integers_must_be_integers(self, argv, payload, capsys):
        code, text = invoke(argv, payload)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "expected an integer" in err and "internal error" not in err

    @pytest.mark.parametrize("matrix", [[[True, 1, 1]], [[1, False, 1]]], ids=["true", "false"])
    def test_json_booleans_are_not_numbers(self, matrix, capsys):
        # read as 1, [[true, 1, 1]] is a member of the "++" cell
        payload = json.dumps({"matrix": matrix,
                              "diagram": {"k": 1, "n": 3, "shape": [2], "rows": ["++"]}})
        code, text = invoke(["verify", "--kind", "membership"], payload)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "bools are not allowed" in err and "internal error" not in err

    @pytest.mark.parametrize("payload", [
        {"a": 100000000, "b": 0, "c": 0, "rows": []},
        {"a": 2, "b": -1, "c": 2, "rows": []},
        {"a": 1, "b": 2, "c": 2, "rows": [[1], [1]]},
        {"a": 2, "b": 1, "c": 2, "rows": [[2, 1]]},
        {"a": 1000, "b": 1000, "c": 1, "rows": [[1]]},
    ], ids=["tall-empty-box", "negative-side", "extra-row", "long-row", "huge-box"])
    def test_plane_partition_box_checked_before_allocating(self, payload, capsys):
        start = time.perf_counter()
        code, text = invoke(["render", "--kind", "planepartition", "--format", "ascii"],
                            json.dumps(payload))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "positroids: error: " in err and "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ["--kind", "paths", "--n", "17", "--k", "6"],
        ["--kind", "graph", "--n", "19", "--k", "9", "--m", "2"],
        ["--kind", "permutation", "--n", "15", "--k", "6", "--m", "4"],
        ["--kind", "pathtuple", "--a", "5", "--b", "4", "--c", "4"],
    ], ids=["paths", "graph", "permutation", "pathtuple"])
    def test_ascii_refused_before_enumerating(self, argv, capsys):
        # each family takes half a second or more to build
        start = time.perf_counter()
        code, text = invoke(["enumerate", *argv, "--format", "ascii"])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "ascii output is not available" in err and "internal error" not in err

    def test_deeply_nested_tree(self, capsys):
        tree = '"leaf"'
        for _ in range(1200):
            tree = '{"horizontal": ' + tree + ', "vertical": "leaf"}'
        code, text = invoke(["convert", "--from", "tree", "--to", "graph"], tree)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == "positroids: error: input nested too deeply\n"


class TestInternalErrors:
    def test_invariant_violation_exits_3(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantViolated("the triple product must be an integer")

        monkeypatch.setattr(experiments, "count_report", broken)
        code, text = invoke(["experiment", "counts", "--n-max", "5"])
        assert code == 3 and text == ""
        err = capsys.readouterr().err
        assert err == ("positroids: internal error: InvariantViolated: "
                       "the triple product must be an integer\n")

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments, "count_report", lambda *a: 1 // 0)
        code, _ = invoke(["experiment", "counts", "--n-max", "5"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("positroids: internal error: ZeroDivisionError")
        assert err.count("\n") == 1

    def test_closed_pipe_is_quiet(self):
        # ``positroids enumerate ... | head -c 100``: no BrokenPipeError traceback
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-m", "positroids.cli", "enumerate", "--kind", "tree",
                "--n", "12", "--k", "4"]  # far more than a pipe buffer of JSON
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        if hasattr(signal, "SIGPIPE"):
            assert proc.returncode == -signal.SIGPIPE
