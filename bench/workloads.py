"""Seeded inputs and independent oracles for the three benchmark workloads.

Nothing here imports ``positroids``: every expected count and verdict is
computed from closed forms written out again below, so a fast path in the
package is checked against arithmetic that shares no code with it.

A workload is a list of ops built from the seed alone.  One *round* runs
the whole list once in a fresh interpreter, so every round pays the cold
``_FAMILY_CACHE`` and ``lru_cache`` state a command-line user pays.
"""

import json
import random
from fractions import Fraction
from math import comb

# The m = 4 and m = 2 counting requests of ``experiment counts`` up to this n.
ENUM_N_MAX = 12
# Box of the noncrossing path-tuple (plane partition) request.
ENUM_BOX = (4, 4, 3)

# Smallest number of rounds a run makes, whatever --seconds says; the tail
# percentile is fixed from it (see ``tail_percentile``).
MIN_ROUNDS = {"enumerate": 3, "sample": 5, "cli": 3}
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


# ----------------------------------------------------------------------
# oracles


def narayana(a: int, b: int) -> int:
    if not 1 <= b <= a:
        return 0
    return comb(a, b) * comb(a, b - 1) // a


def macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box by the hook-content product."""
    total = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            total *= Fraction(i + j + c - 1, i + j - 1)
    if total.denominator != 1:
        raise ArithmeticError("MacMahon product is not an integer")
    return int(total)


def m2_cells(n: int, k: int) -> int:
    return comb(n - 2, k)


def m4_cells(n: int, k: int) -> int:
    return narayana(n - 3, k + 1)


def sweep_points(n_max: int, samples: int) -> int:
    """Cell points the p-domino sweep of ``conjecture_sweeps`` samples."""
    return samples * sum(
        narayana(n - 3, k + 1)
        for n in range(5, n_max + 1)
        for k in range(1, min(3, n - 4) + 1)
    )


def is_le(diagram: dict) -> bool:
    """A filling is sorted when no 0 has a + above it and a + to its left."""
    rows = diagram["rows"]
    for r, row in enumerate(rows):
        for c, fill in enumerate(row):
            if fill != "0":
                continue
            above = any(len(rows[q]) > c and rows[q][c] == "+" for q in range(r))
            if above and "+" in row[:c]:
                return False
    return True


def tail_percentile(ops_per_round: int, workload: str) -> float:
    """Highest ladder percentile with at least ten ops beyond it in the
    smallest run; fixed per workload so runs stay comparable."""
    total = ops_per_round * MIN_ROUNDS[workload]
    return max(q for q in TAIL_LADDER if total * (100.0 - q) / 100.0 >= 10)


# ----------------------------------------------------------------------
# enumerate: the family requests of ``experiment counts``


def enumerate_ops(seed: int) -> list[dict]:
    """Requests in ascending n, as ``count_report`` makes them, shuffled
    within each n, each m = 4 graph request ahead of the permutation request
    for the same family.  A full shuffle would let the seed decide which
    calls pay for filling the family caches, and so move the tail
    percentile; in this order every seed pays the same per-call costs."""
    rng = random.Random(f"enumerate:{seed}")
    by_n: dict = {}
    for n in range(4, ENUM_N_MAX + 1):
        for k in range(0, n - 3):
            want = narayana(n - 3, k + 1)
            by_n.setdefault(n, []).extend([
                {"call": "plabic.enumerate_bcfw_graphs", "args": [n, k + 2, 4], "expect": want},
                {"call": "plabic.bcfw_permutations", "args": [n, k, 4], "expect": want},
                {"call": "catalan.enumerate_path_pairs", "args": [n, k], "expect": want},
                {"call": "catalan.enumerate_dyck_paths", "args": [n, k], "expect": want},
                {"call": "catalan.enumerate_trees", "args": [n, k], "expect": want},
            ])
    for n in range(2, ENUM_N_MAX + 1):
        for k in range(0, n - 1):
            want = comb(n - 2, k)
            group = by_n.setdefault(n, [])
            group.append({"call": "plabic.enumerate_bcfw_graphs", "args": [n, k + 1, 2],
                          "expect": want})
            if k <= n - 2:
                group.append({"call": "diagrams.enumerate_diagrams", "args": [n, k, 2],
                              "expect": want})
    ops = []
    for n in sorted(by_n):
        group = by_n[n]
        rng.shuffle(group)
        for k in range(0, n - 3):
            graphs = group.index({"call": "plabic.enumerate_bcfw_graphs",
                                  "args": [n, k + 2, 4], "expect": narayana(n - 3, k + 1)})
            perms = group.index({"call": "plabic.bcfw_permutations",
                                 "args": [n, k, 4], "expect": narayana(n - 3, k + 1)})
            if perms < graphs:
                group[graphs], group[perms] = group[perms], group[graphs]
        ops += group
    ops.insert(rng.randrange(len(ops) + 1),
               {"call": "catalan.enumerate_path_tuples", "args": list(ENUM_BOX),
                "expect": macmahon(*ENUM_BOX)})
    for op in ops:
        op["items"] = op["expect"]
    return ops


# ----------------------------------------------------------------------
# sample: experiment calls whose work is exact rational arithmetic

# (family, samples per cell, copies per round).  The multiset is fixed so
# that every seed does the same amount of work; only the random draws and
# the order change with the seed.  Most ops cost 0.15-0.3 s so that the
# median falls inside one cluster; the three large ones make the tail.
_DISJOINTNESS = [
    ((10, 2, 4), 2, 1),   # m = 4, k = 2: domino bases via standard_basis_k2
    ((10, 5, 2), 1, 1),   # m = 2, rank 5: maximal minors dominate
    ((9, 4, 2), 1, 2),
    ((10, 3, 2), 1, 2),
    ((9, 2, 4), 2, 2),
    ((8, 4, 2), 2, 2),
    ((10, 1, 4), 4, 2),
    ((8, 3, 2), 3, 2),
]
_SWEEPS = [(9, 1, 1), (8, 1, 2)]   # (n_max, samples, copies)
_M3_COPIES = 3


def sample_ops(seed: int) -> list[dict]:
    rng = random.Random(f"sample:{seed}")
    draw = lambda: rng.randrange(1_000_000)  # noqa: E731
    ops = []
    for (n, k, m), samples, copies in _DISJOINTNESS:
        cells = m2_cells(n, k) if m == 2 else m4_cells(n, k)
        for _ in range(copies):
            ops.append({"call": "experiments.disjointness_experiment", "args": [n, k, m],
                        "kwargs": {"samples": samples, "seed": draw()},
                        "verdict": "pass", "items": cells * samples})
    for n_max, samples, copies in _SWEEPS:
        for _ in range(copies):
            ops.append({"call": "experiments.conjecture_sweeps", "args": [n_max],
                        "kwargs": {"samples": samples, "seed": draw()},
                        "verdict": "pass", "items": sweep_points(n_max, samples)})
    for _ in range(_M3_COPIES):
        ops.append({"call": "experiments.m3_counterexample", "args": [],
                    "kwargs": {"seed": draw()}, "verdict": "finding", "items": 2})
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# cli: one closed-loop client, a fresh ``python -m positroids.cli`` per request


def _random_tree(rng: random.Random, leaves: int):
    if leaves == 1:
        return "leaf"
    left = rng.randint(1, leaves - 1)
    return {"horizontal": _random_tree(rng, left),
            "vertical": _random_tree(rng, leaves - left)}


def cli_requests(seed: int) -> list[dict]:
    """Requests of one round, in order; later ones may read earlier stdout.

    Each request: ``argv``; ``stdin`` as a literal string, or ``after`` (the
    index whose stdout feeds it) with an optional ``feed`` transform;
    ``rc``, the expected exit code (``None`` when an oracle decides it from
    the fed input); and ``check``, how stdout is validated.
    """
    rng = random.Random(f"cli:{seed}")
    reqs: list[dict] = []

    def add(argv, check, rc=0, **extra) -> int:
        reqs.append({"argv": [str(a) for a in argv], "check": check, "rc": rc, **extra})
        return len(reqs) - 1

    n = rng.randint(6, 8)
    k = rng.randint(0, n - 4)
    add(["enumerate", "--kind", "tree", "--n", n, "--k", k], ["count", m4_cells(n, k)])
    n = rng.randint(6, 8)
    k = rng.randint(0, n - 4)
    add(["enumerate", "--kind", "dyck", "--n", n, "--k", k], ["count", m4_cells(n, k)])
    n = rng.randint(6, 8)
    k = rng.randint(0, n - 4)
    add(["enumerate", "--kind", "paths", "--n", n, "--k", k], ["count", m4_cells(n, k)])
    n = rng.randint(6, 8)
    k = rng.randint(0, n - 2)
    add(["enumerate", "--kind", "diagram", "--n", n, "--k", k, "--m", 2],
        ["count", m2_cells(n, k)])
    n = rng.randint(6, 8)
    k = rng.randint(0, n - 4)
    add(["enumerate", "--kind", "diagram", "--n", n, "--k", k, "--m", 4],
        ["count", m4_cells(n, k)])
    n = rng.randint(6, 8)
    k = rng.randint(0, n - 4)
    add(["enumerate", "--kind", "graph", "--n", n, "--k", k + 2, "--m", 4],
        ["count", m4_cells(n, k)])
    n = rng.randint(6, 8)
    k = rng.randint(0, n - 4)
    add(["enumerate", "--kind", "permutation", "--n", n, "--k", k, "--m", 4],
        ["count", m4_cells(n, k)])
    n = rng.randint(5, 8)
    k = rng.randint(0, n - 2)
    add(["enumerate", "--kind", "graph", "--n", n, "--k", k + 1, "--m", 2, "--format", "tsv"],
        ["lines", m2_cells(n, k)])
    box = [rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)]
    add(["enumerate", "--kind", "pathtuple", "--a", box[0], "--b", box[1], "--c", box[2]],
        ["count", macmahon(*box)])

    leaves = rng.randint(3, 6)
    tree = _random_tree(rng, leaves)
    tree_text = json.dumps(tree)
    t2p = add(["convert", "--from", "tree", "--to", "paths"], ["json"], stdin=tree_text)
    p2d = add(["convert", "--from", "paths", "--to", "diagram"], ["json"], after=t2p)
    # the network arrow needs a sorted filling: the harness decides which
    add(["convert", "--from", "diagram", "--to", "network"], ["network"], rc=None,
        after=p2d, oracle="le_network")
    add(["verify", "--kind", "diagram"], ["le"], rc=None, after=p2d, oracle="le_verify")
    t2g = add(["convert", "--from", "tree", "--to", "graph"], ["json"], stdin=tree_text)
    add(["convert", "--from", "graph", "--to", "tree"], ["equals", tree_text], after=t2g)
    add(["convert", "--from", "tree", "--to", "permutation", "--shift", 2],
        ["permutation", leaves + 2], stdin=tree_text)
    p2y = add(["convert", "--from", "paths", "--to", "dyck"], ["json"], after=t2p)
    add(["convert", "--from", "dyck", "--to", "paths"], ["equals_output", t2p], after=p2y)
    p2pp = add(["convert", "--from", "paths", "--to", "planepartition"], ["json"], after=t2p)
    add(["convert", "--from", "planepartition", "--to", "paths"], ["equals_output", t2p],
        after=p2pp)
    add(["render", "--kind", "tree", "--format", "svg"], ["svg"], stdin=tree_text)
    add(["render", "--kind", "dyck", "--format", "svg"], ["svg"], after=p2y)
    add(["render", "--kind", "diagram", "--format", "svg"], ["svg"], after=p2d)
    add(["render", "--kind", "dyck", "--format", "ascii"], ["text"], after=p2y)

    for m in (2, 4):
        n = rng.randint(5, 7)
        k = rng.randint(0 if m == 2 else 1, n - m)
        cells = m2_cells(n, k) if m == 2 else m4_cells(n, k)
        cell = rng.randrange(cells)
        smp = add(["sample", "--n", n, "--k", k, "--m", m, "--cell", cell, "--count", 1,
                   "--seed", rng.randrange(1_000_000)], ["samples", 1])
        add(["verify", "--kind", "membership"], ["exact", {"member": True}],
            after=smp, feed="membership")
        add(["verify", "--kind", "diagram"], ["exact", {"le": True}],
            after=smp, feed="sampled_diagram")
        add(["render", "--kind", "network", "--format", "svg"], ["svg"],
            after=smp, feed="sampled_diagram")

    add(["experiment", "counts", "--n-max", rng.randint(5, 7)], ["verdict", "pass"])
    add(["experiment", "disjointness", "--n", rng.randint(5, 7), "--k", 1, "--m", 2,
         "--samples", 1, "--seed", rng.randrange(1_000_000)], ["verdict", "pass"])
    add(["experiment", "sweeps", "--n-max", 5, "--samples", 1,
         "--seed", rng.randrange(1_000_000)], ["verdict", "pass"])
    add(["experiment", "m3-counterexample", "--seed", rng.randrange(1_000_000)],
        ["verdict", "finding"])

    # usage errors: exit 2 and nothing on stdout
    add(["enumerate", "--kind", "lattice", "--n", 6, "--k", 1], ["usage"], rc=2)
    add(["convert", "--from", "dyck", "--to", "tree"], ["usage"], rc=2, stdin='"UD"')
    add(["enumerate", "--kind", "tree", "--k", 1], ["usage"], rc=2)
    add(["verify", "--kind", "diagram"], ["usage"], rc=2, stdin="{")
    return reqs


def feed(kind: str, stdout: str) -> str:
    """Build the stdin of a chained request from an earlier stdout."""
    if kind == "membership":
        sample = json.loads(stdout)[0]["samples"][0]
        return json.dumps({"matrix": sample["matrix"], "diagram": sample["diagram"]})
    if kind == "sampled_diagram":
        return json.dumps(json.loads(stdout)[0]["samples"][0]["diagram"])
    raise ValueError(f"unknown feed {kind!r}")


def expected_rc(oracle: str, stdin: str) -> int:
    sorted_filling = is_le(json.loads(stdin))
    if oracle == "le_network":
        return 0 if sorted_filling else 2
    if oracle == "le_verify":
        return 0 if sorted_filling else 1
    raise ValueError(f"unknown oracle {oracle!r}")


def check_cli(check: list, rc: int, stdout: str, stderr: str, outputs: list) -> str:
    """Empty string when the request's output is right, else the reason.

    The caller has already compared the exit code with the expected one.
    """
    kind = check[0]
    if rc == 2 or kind == "usage":
        if stdout or "error" not in stderr:
            return "usage error without message or with output"
        return ""
    if kind in ("svg", "text"):
        if kind == "svg" and not (stdout.startswith("<svg") and stdout.endswith("</svg>\n")):
            return "not an SVG document"
        return "" if stdout.strip() else "empty output"
    try:
        if kind == "lines":
            lines = [json.loads(line) for line in stdout.splitlines()]
            return "" if len(lines) == check[1] else f"{len(lines)} lines, expected {check[1]}"
        data = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if kind == "json":
        return ""
    if kind == "count":
        return "" if len(data) == check[1] else f"{len(data)} objects, expected {check[1]}"
    if kind == "equals":
        return "" if data == json.loads(check[1]) else "round trip changed the object"
    if kind == "equals_output":
        return "" if data == json.loads(outputs[check[1]]) else "round trip changed the object"
    if kind == "permutation":
        n = check[1]
        ok = data["n"] == n and sorted(data["images"]) == list(range(1, n + 1))
        return "" if ok else "not a permutation of the tree's size"
    if kind == "network":
        return "" if {"sources", "sinks", "horizontal"} <= set(data) else "bad network"
    if kind == "le":
        return "" if data == {"le": rc == 0} else "verdict disagrees with exit code"
    if kind == "samples":
        ok = len(data) == 1 and len(data[0]["samples"]) == check[1]
        return "" if ok else "wrong number of samples"
    if kind == "exact":
        return "" if data == check[1] else f"got {data!r}"
    if kind == "verdict":
        return "" if data.get("verdict") == check[1] else f"verdict {data.get('verdict')!r}"
    return f"unknown check {kind!r}"
