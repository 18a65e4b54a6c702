"""Replayable verification experiments over the combinatorial families.

Each experiment returns an :class:`ExperimentReport` whose serialized form
depends only on the stated parameters, so a rerun with the same seed
produces byte-identical output.  Wall-clock timing is kept on the report
object for display but never serialized.

Random draws are derived deterministically: the sample for cell number
``ci`` at repetition ``s`` uses the integer seed
``seed * 1_000_003 + ci * 1_009 + s``.
"""

import json
import time
from fractions import Fraction
from math import comb
from typing import Sequence

from .catalan import enumerate_dyck_paths, enumerate_path_pairs, enumerate_trees, \
    macmahon, narayana, omega_PL, omega_TL, tree_to_graph
from .diagrams import OPlusDiagram, enumerate_diagrams, le_normalize, omega_LD, \
    pipe_dream_permutation
from .errors import BadRange, InvariantViolated, NoMatch, SearchExhausted
from .linalg import RationalMatrix, _cell_samples, _frac, _plucker_key, _sample_seed, \
    find_kernel_vector_with_signs, gr_equal, make_tp_matrix, plucker, positroid_membership, rref, \
    z_map
from .plabic import bcfw_permutations, enumerate_bcfw_graphs, trip_permutation
from .records import Record
from .signs import m2_standard_basis, p_domino_basis, standard_basis_k2, var


class ExperimentReport(Record):
    """Outcome of one experiment run.

    ``verdict`` is ``"pass"`` when every check held, ``"violation"`` when an
    asserted property failed, and ``"finding"`` for noteworthy behaviour that
    no claim rules out (open cases, engineered counterexamples).  Unlike the
    other records it may be changed in place, so it has no hash.
    """

    _fields = ("experiment", "parameters", "verdict", "witnesses", "timing")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, experiment: str, parameters: dict, verdict: str, witnesses: list,
                 timing: float) -> None:
        self._set(experiment, parameters, verdict, witnesses, timing)

    def to_json(self) -> dict:
        # timing deliberately omitted: reruns must serialize identically
        return {
            "experiment": self.experiment,
            "parameters": dict(self.parameters),
            "verdict": self.verdict,
            "witnesses": list(self.witnesses),
        }

    def to_tsv(self) -> str:
        lines = ["experiment\t" + self.experiment, "verdict\t" + self.verdict]
        for key in sorted(self.parameters):
            lines.append(f"parameter.{key}\t{self.parameters[key]}")
        for t, w in enumerate(self.witnesses):
            lines.append(f"witness.{t}\t" + json.dumps(w, sort_keys=True))
        return "\n".join(lines) + "\n"


def count_report(n_max: int = 10) -> ExperimentReport:
    """Tabulate the sizes of every enumerated family against the closed forms.

    For the two-row-deletion families all five shapes (graphs, shifted trip
    permutations, path pairs, lattice words, trees) must agree with the
    Narayana count and with the number of plane partitions in the matching
    box.  For the one-row families the graph and diagram counts are plain
    binomials.
    """
    if not 4 <= n_max <= 12:
        raise BadRange("n_max must be between 4 and 12")
    start = time.perf_counter()
    rows = []
    clean = True
    for n in range(4, n_max + 1):
        for k in range(0, n - 3):
            expected = narayana(n - 3, k + 1)
            counts = {
                "graphs": len(enumerate_bcfw_graphs(n, k + 2, 4)),
                "permutations": len(bcfw_permutations(n, k, 4)),
                "path_pairs": len(list(enumerate_path_pairs(n, k))),
                "lattice_words": len(enumerate_dyck_paths(n, k)),
                "trees": len(enumerate_trees(n, k)),
            }
            boxed = macmahon(k, n - k - 4, 2)
            ok = boxed == expected and all(c == expected for c in counts.values())
            clean = clean and ok
            rows.append({"n": n, "k": k, "m": 4, **counts,
                         "narayana": expected, "boxed_partitions": boxed, "ok": ok})
    for n in range(2, n_max + 1):
        for k in range(0, n - 1):
            graphs = len(enumerate_bcfw_graphs(n, k + 1, 2))
            diagrams = len(enumerate_diagrams(n, k, 2)) if k <= n - 2 else 0
            expected = comb(n - 2, k)
            ok = graphs == expected and (k > n - 2 or diagrams == expected)
            clean = clean and ok
            rows.append({"n": n, "k": k, "m": 2, "graphs": graphs,
                         "diagrams": diagrams, "binomial": expected, "ok": ok})
    return ExperimentReport(
        experiment="counts",
        parameters={"n_max": n_max},
        verdict="pass" if clean else "violation",
        witnesses=rows,
        timing=time.perf_counter() - start,
    )


def disjointness_experiment(n: int, k: int, m: int,
                            samples: int = 5, seed: int = 0) -> ExperimentReport:
    """Sample every cell of the family and check the twisted map separates points.

    Each sampled subspace is pushed through the map induced by the totally
    positive ``(k+m) x n`` node matrix; two distinct subspaces mapping to the
    same point, inside one cell or across two, is a violation.  For ``m=2``
    every sample must additionally admit the staircase standard basis, and
    for ``m=4, k=2`` the domino standard basis; the proved separation
    arguments only cover ``k <= 2`` when ``m=4``, hence the precondition.
    """
    if m not in (2, 4):
        raise BadRange("m must be 2 or 4")
    if m == 4 and k > 2:
        raise BadRange("separation is only claimed for k <= 2 when m = 4")
    if not 0 <= k <= n - m:
        raise BadRange("need 0 <= k <= n - m")
    if samples < 1:
        raise BadRange("samples must be positive")
    start = time.perf_counter()
    z = make_tp_matrix(k + m, n)
    cells = enumerate_diagrams(n, k, m)
    seen: dict = {}
    witnesses: list = []
    verdict = "pass"
    for ci, diagram in enumerate(cells):
        cell = le_normalize(diagram) if m == 4 else diagram
        rngs = (_sample_seed(seed, ci, s) for s in range(samples))
        for s, point in enumerate(_cell_samples(cell, rngs)):
            if m == 2:
                m2_standard_basis(point.matrix, cell)
            elif k == 2:
                standard_basis_k2(point.matrix, diagram)
            image = z_map(z, point.matrix)  # RankLoss on a rank-deficient sample
            # keyed on the image's primitive integer Plücker vector, equal exactly when
            # the points are; sources are compared only where images meet
            entry = (ci, s, point.matrix)
            prior = seen.setdefault(image._ints, entry)
            if prior is not entry and _plucker_key(prior[2]) != _plucker_key(point.matrix):
                verdict = "violation"
                witnesses.append({
                    "first": {"cell": prior[0], "sample": prior[1]},
                    "second": {"cell": ci, "sample": s},
                    "image": [str(c) for c in image.coords],
                    "matrix": point.matrix.to_json(),
                })
    return ExperimentReport(
        experiment="disjointness",
        parameters={"n": n, "k": k, "m": m, "samples": samples, "seed": seed},
        verdict=verdict,
        witnesses=witnesses,
        timing=time.perf_counter() - start,
    )


# Cells of the (2, 12) one-column-deletion family hosting the engineered pair.
_M3_CELL_1 = ("++0000000+", "00++00+")
_M3_CELL_2 = ("++0000000+", "0000++00+")


def m3_counterexample(seed: int = 0) -> ExperimentReport:
    """Construct two subspaces in distinct cells with the same twisted image.

    Works over ``n = 12`` with a rank-5 positive node matrix: a kernel vector
    with sign pattern ``++--++--++--`` is split into two rank-2 row spans
    supported on complementary blocks.  Both membership claims, the cell
    distinctness, and the exact image equality are verified; the verdict is
    ``"finding"`` because no separation claim covers this family.
    """
    start = time.perf_counter()
    z = make_tp_matrix(5, 12)
    v = find_kernel_vector_with_signs(z, "++--++--++--", seed=seed)
    if v is None:
        raise SearchExhausted("no kernel vector with pattern ++--++--++--")
    zero = Fraction(0)
    top = [v[0], v[1], zero, zero, zero, zero, zero, zero, zero, zero, v[10], v[11]]
    v1 = RationalMatrix([
        top,
        [v[0], v[1], zero, zero, v[4], v[5], zero, zero, v[8], v[9], v[10], v[11]],
    ])
    v2 = RationalMatrix([
        top,
        [zero, zero, -v[2], -v[3], zero, zero, -v[6], -v[7], zero, zero, zero, zero],
    ])
    d1 = OPlusDiagram.from_rows(2, 12, list(_M3_CELL_1))
    d2 = OPlusDiagram.from_rows(2, 12, list(_M3_CELL_2))
    diff = [tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(v1.entries, v2.entries)]
    in_kernel = all(
        sum(z.entries[r][j] * row[j] for j in range(12)) == 0
        for row in diff for r in range(5)
    )
    checks = {
        "first_membership": positroid_membership(v1, d1),
        "second_membership": positroid_membership(v2, d2),
        "distinct_cells": pipe_dream_permutation(d1) != pipe_dream_permutation(d2),
        "distinct_points": not gr_equal(plucker(v1), plucker(v2)),
        "difference_in_kernel": in_kernel,
        "equal_images": gr_equal(z_map(z, v1), z_map(z, v2)),
    }
    witness = {
        "kernel_vector": [str(x) for x in v],
        "first_matrix": v1.to_json(),
        "second_matrix": v2.to_json(),
        "first_cell": d1.to_json(),
        "second_cell": d2.to_json(),
        "image": z_map(z, v1).to_json(),
        "checks": checks,
    }
    return ExperimentReport(
        experiment="m3-counterexample",
        parameters={"n": 12, "k": 2, "m": 3, "seed": seed},
        verdict="finding" if all(checks.values()) else "violation",
        witnesses=[witness],
        timing=time.perf_counter() - start,
    )


def matching_vector(z: RationalMatrix, first: RationalMatrix,
                    second: RationalMatrix, v: Sequence) -> tuple:
    """The unique vector of the second row span with the same image as ``v``.

    ``v`` must lie in the first row span.  Solves ``z v' = z v`` for
    ``v'`` in the second span exactly; raises :class:`NoMatch` when no
    solution exists or the solution is not unique.  When the result differs
    from ``v`` their difference is a nonzero kernel vector of ``z``, so its
    sign variation is checked against the rank bound.
    """
    vec = tuple(_frac(x) for x in v)
    n = first.cols
    if len(vec) != n or second.cols != n or z.cols != n:
        raise NoMatch("ambient dimensions differ")
    base_rank = len(rref(first)[1])
    stacked = RationalMatrix(tuple(first.entries) + (vec,), cols=n)
    if len(rref(stacked)[1]) != base_rank:
        raise NoMatch("vector must lie in the first row span")
    k = second.rows
    augmented = z @ RationalMatrix(second.entries + (vec,), cols=n).transpose()
    reduced, pivots = rref(augmented)
    if k in pivots:
        raise NoMatch("no vector of the second span has the same image")
    if pivots != tuple(range(k)):
        raise NoMatch("matching vector is not unique")
    coeffs = [reduced.entries[i][k] for i in range(k)]
    result = tuple(sum(coeffs[i] * second.entries[i][j] for i in range(k))
                   for j in range(n))
    diff = tuple(a - b for a, b in zip(vec, result))
    if any(diff) and var(diff) < z.rows:
        raise InvariantViolated("difference violates the kernel variation bound")
    return result


def conjecture_sweeps(n_max: int = 7, samples: int = 3, seed: int = 0) -> ExperimentReport:
    """Exhaustive and sampled checks of the remaining structural claims.

    Three sweeps: the tree-to-diagram collapse must reproduce the shifted
    trip permutation of the tree's graph; the parity involutions must map
    each permutation family onto its complementary-rank twin; and the
    path-labeled domino basis solve must succeed on sampled cell points for
    ``k <= 2``.  A failed ``k = 3`` solve is recorded as a finding, not a
    violation, since no claim covers it.
    """
    if not 4 <= n_max <= 9:
        raise BadRange("n_max must be between 4 and 9")
    if samples < 1:
        raise BadRange("samples must be positive")
    start = time.perf_counter()
    witnesses: list = []
    violation = False
    finding = False

    for n in range(4, n_max + 1):
        for k in range(0, n - 3):
            for tree in enumerate_trees(n, k):
                lhs = pipe_dream_permutation(omega_LD(omega_TL(tree)))
                rhs = trip_permutation(tree_to_graph(tree)).left_shift(2)
                if lhs != rhs:
                    violation = True
                    witnesses.append({"sweep": "tree-collapse", "n": n, "k": k,
                                      "tree": tree.to_json()})

    for m in (2, 4):
        for n in range(4, n_max + 1):
            for k in range(0, n - m + 1):
                family = bcfw_permutations(n, k, m)
                image = {p.parity_involution(m) for p in family}
                twin = set(bcfw_permutations(n, n - m - k, m))
                if image != twin:
                    violation = True
                    witnesses.append({"sweep": "parity-involution",
                                      "n": n, "k": k, "m": m})

    cell_index = 0
    for n in range(5, n_max + 1):
        for k in range(1, min(3, n - 4) + 1):
            for path in enumerate_dyck_paths(n, k):
                cell = le_normalize(omega_LD(omega_PL(path)))
                rngs = (_sample_seed(seed, cell_index, s) for s in range(samples))
                for s, point in enumerate(_cell_samples(cell, rngs)):
                    rows = p_domino_basis(point.matrix, path)
                    if rows is None:
                        entry = {"sweep": "p-domino-basis", "n": n, "k": k,
                                 "path": path.to_json(), "sample": s}
                        if k <= 2:
                            violation = True
                            entry["status"] = "violation"
                        else:
                            finding = True
                            entry["status"] = "unsolved"
                        witnesses.append(entry)
                cell_index += 1

    verdict = "violation" if violation else ("finding" if finding else "pass")
    return ExperimentReport(
        experiment="conjecture-sweeps",
        parameters={"n_max": n_max, "samples": samples, "seed": seed},
        verdict=verdict,
        witnesses=witnesses,
        timing=time.perf_counter() - start,
    )
