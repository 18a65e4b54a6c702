"""Command-line front end.

Verbs: enumerate, convert, sample, verify, experiment, render.  All input
and output is JSON on stdio (except the tsv/ascii/svg render formats), and
randomness is always derived from --seed so runs replay exactly.  Each
verb imports the package modules it uses on first use, so a request pays
start-up only for those; the records are plain classes (``records``), since
``dataclasses`` would cost each process about 15 ms.  This module reads,
converts and checks; the drawers live in ``render``, which only ``render``
and ``--format ascii`` load.

Exit codes: 0 for success or a finding, 1 for a violated check (a failed
verification, an experiment verdict of "violation"), 2 for usage errors
(JSON of the wrong type and input nested too deeply included), 3 for an
internal error, reported on one line and never mistaken for a finding or
a violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Optional, TextIO

from .errors import BadRange, PositroidError

if TYPE_CHECKING:
    from .catalan import PathPair, PlanePartition
    from .permutations import DecoratedPermutation
    from .plabic import Network, PlabicGraph


def _mod(name: str):
    """The package module ``name``, imported on first use."""
    return import_module(f"{__package__}.{name}")


# ----------------------------------------------------------------------
# conversions


def _shifted_trip(graph: PlabicGraph, shift: int) -> DecoratedPermutation:
    return _mod("plabic").trip_permutation(graph).left_shift(shift)


def _partition_to_pair(partition: PlanePartition, m: int) -> PathPair:
    catalan = _mod("catalan")
    words = catalan.plane_partition_to_paths(partition).words
    if len(words) != 2:
        raise BadRange("only two-path plane partitions convert to a path pair")
    return catalan.PathPair(words[0], words[1], m)


# arrow table: (from, to) -> callable(obj, args)
_ARROWS = {
    ("tree", "graph"): lambda t, a: _mod("catalan").tree_to_graph(t),
    ("graph", "tree"): lambda g, a: _mod("catalan").graph_to_tree(g),
    ("tree", "paths"): lambda t, a: _mod("catalan").omega_TL(t),
    ("tree", "permutation"):
        lambda t, a: _shifted_trip(_mod("catalan").tree_to_graph(t), a.shift),
    ("graph", "permutation"): lambda g, a: _shifted_trip(g, a.shift),
    ("paths", "dyck"): lambda p, a: _mod("catalan").omega_LP(p),
    ("dyck", "paths"): lambda d, a: _mod("catalan").omega_PL(d),
    ("paths", "diagram"): lambda p, a: _mod("diagrams").omega_LD(p),
    ("diagram", "permutation"): lambda d, a: _mod("diagrams").pipe_dream_permutation(d),
    ("diagram", "network"): lambda d, a: _mod("plabic").build_network(d),
    ("paths", "planepartition"):
        lambda p, a: _mod("catalan").paths_to_plane_partition((p.wu, p.wl)),
    ("planepartition", "paths"): lambda p, a: _partition_to_pair(p, a.m),
}


# ----------------------------------------------------------------------
# kinds and families; package functions are looked up by name at call time


def _read_network(data, m: int) -> Network:
    # networks are built, not parsed: accept a diagram and hook it up
    diagrams = _mod("diagrams")
    diagram = diagrams.le_normalize(diagrams.OPlusDiagram.from_json(data))
    return _mod("plabic").build_network(diagram)


# kind -> reader of its JSON given --m; ``render`` holds each kind's drawers
_KINDS = {
    "tree": lambda d, m: _mod("catalan").BinaryTree.from_json(d),
    "graph": lambda d, m: _mod("plabic").PlabicGraph.from_json(d),
    "paths": lambda d, m: _mod("catalan").PathPair.from_json(d, m),
    "dyck": lambda d, m: _mod("catalan").DyckPath.from_json(d),
    "diagram": lambda d, m: _mod("diagrams").OPlusDiagram.from_json(d),
    "permutation": lambda d, m: _mod("permutations").DecoratedPermutation.from_json(d),
    "network": _read_network,
    "planepartition": lambda d, m: _mod("catalan").PlanePartition.from_json(d),
}

# enumerable kind -> (its family from --n, --k, --m; separator of its ascii
# listing or None); pathtuple, sized by --a, --b, --c, is the one other kind
_FAMILIES = {
    "tree": (lambda n, k, m: _mod("catalan").enumerate_trees(n, k), "\n"),
    "dyck": (lambda n, k, m: _mod("catalan").enumerate_dyck_paths(n, k), "\n\n"),
    "paths": (lambda n, k, m: list(_mod("catalan").enumerate_path_pairs(n, k)), None),
    "diagram": (lambda n, k, m: _mod("diagrams").enumerate_diagrams(n, k, m), "\n\n"),
    "graph": (lambda n, k, m: _mod("plabic").enumerate_bcfw_graphs(n, k, m), None),
    "permutation": (lambda n, k, m: _mod("plabic").bcfw_permutations(n, k, m), None),
}


# ----------------------------------------------------------------------
# verb handlers


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise BadRange(f"{', '.join(missing)} required for this invocation")


def _read_json(stdin: TextIO):
    """The JSON document on stdin; Infinity, -Infinity, NaN and repeated keys are refused."""
    def refuse(token: str):
        raise ValueError(f"{token} is not a JSON number")

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            raise ValueError("a key is repeated within one JSON object")
        return obj
    return json.load(stdin, parse_constant=refuse, object_pairs_hook=unique)


def _write_json(out: TextIO, obj) -> None:
    # json.dumps runs the C encoder; json.dump walks obj in Python, a write per token
    out.write(json.dumps(obj) + "\n")


def _cmd_enumerate(args: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    kind = args.kind
    separator = _FAMILIES.get(kind, (None, None))[1]
    if args.format == "ascii" and separator is None:  # refused before any object is built
        raise BadRange(f"ascii output is not available for kind {kind!r}")
    if kind == "pathtuple":
        _require(args, "a", "b", "c")
        objects = list(_mod("catalan").enumerate_path_tuples(args.a, args.b, args.c))
    else:
        _require(args, "n", "k")
        objects = _FAMILIES[kind][0](args.n, args.k, args.m)
    if args.format == "json":
        # one object at a time: the bytes of one json.dumps of the whole list
        out.write("[" + ", ".join(json.dumps(o.to_json()) for o in objects) + "]\n")
    elif args.format == "tsv":
        for o in objects:
            out.write(json.dumps(o.to_json(), sort_keys=True) + "\n")
    else:
        out.write(separator.join(map(_mod("render").ASCII[kind], objects)) + "\n")
    return 0


def _cmd_convert(args: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    arrow = _ARROWS.get((args.source, args.target))
    if arrow is None:
        supported = ", ".join(f"{s}->{t}" for s, t in sorted(_ARROWS))
        raise BadRange(f"no conversion {args.source} -> {args.target}; "
                       f"supported: {supported}")
    obj = _KINDS[args.source](_read_json(stdin), args.m)
    _write_json(out, arrow(obj, args).to_json())
    return 0


def _cmd_sample(args: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    _require(args, "n", "k")
    if args.count < 1:
        raise BadRange("--count must be positive")
    diagrams, linalg = _mod("diagrams"), _mod("linalg")
    cells = diagrams.enumerate_diagrams(args.n, args.k, args.m)
    if args.cell is None:
        indices = range(len(cells))
    else:
        if not 0 <= args.cell < len(cells):
            raise BadRange(f"--cell must be in 0..{len(cells) - 1}")
        indices = [args.cell]
    result = []
    for ci in indices:
        cell = diagrams.le_normalize(cells[ci]) if args.m == 4 else cells[ci]
        rngs = (linalg._sample_seed(args.seed, ci, s) for s in range(args.count))
        draws = [point.to_json() for point in linalg._cell_samples(cell, rngs)]
        result.append({"cell": ci, "diagram": cells[ci].to_json(), "samples": draws})
    _write_json(out, result)
    return 0


def _cmd_verify(args: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    data = _read_json(stdin)
    diagrams = _mod("diagrams")
    if args.kind == "diagram":
        ok = diagrams.is_le_diagram(diagrams.OPlusDiagram.from_json(data))
        _write_json(out, {"le": ok})
    else:
        diagram = diagrams.le_normalize(diagrams.OPlusDiagram.from_json(data["diagram"]))
        linalg = _mod("linalg")
        matrix = linalg.RationalMatrix.from_json(data["matrix"], cols=diagram.n)  # [] has no width
        ok = linalg.positroid_membership(matrix, diagram)
        _write_json(out, {"member": ok})
    return 0 if ok else 1


def _cmd_experiment(args: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    experiments = _mod("experiments")
    if args.name == "counts":
        report = experiments.count_report(args.n_max)
    elif args.name == "disjointness":
        _require(args, "n", "k")
        report = experiments.disjointness_experiment(args.n, args.k, args.m,
                                                     samples=args.samples, seed=args.seed)
    elif args.name == "m3-counterexample":
        report = experiments.m3_counterexample(seed=args.seed)
    else:
        report = experiments.conjecture_sweeps(args.n_max, samples=args.samples,
                                               seed=args.seed)
    if args.format == "tsv":
        out.write(report.to_tsv())
    else:
        _write_json(out, report.to_json())
    return 1 if report.verdict == "violation" else 0


def _cmd_render(args: argparse.Namespace, stdin: TextIO, out: TextIO) -> int:
    obj = _KINDS[args.kind](_read_json(stdin), args.m)
    render = _mod("render")
    draw = (render.SVG if args.format == "svg" else render.ASCII)[args.kind]
    if draw is None:
        raise BadRange(f"no ascii renderer for kind {args.kind!r}")
    out.write(draw(obj) + "\n")
    return 0


_VERBS = {
    "enumerate": _cmd_enumerate,
    "convert": _cmd_convert,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "experiment": _cmd_experiment,
    "render": _cmd_render,
}


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="positroids",
        description="Exact combinatorics of nonnegative Grassmannian cells: "
                    "enumeration, bijections, sampling, and verification "
                    "experiments.  JSON in, JSON out.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    en = sub.add_parser("enumerate", help="list a family as JSON")
    en.add_argument("--kind", required=True, choices=[*_FAMILIES, "pathtuple"])
    en.add_argument("--n", type=int)
    en.add_argument("--k", type=int,
                    help="cell rank (graph kind: trip k-statistic)")
    en.add_argument("--m", type=int, default=4)
    en.add_argument("--a", type=int, help="pathtuple box rows")
    en.add_argument("--b", type=int, help="pathtuple box columns")
    en.add_argument("--c", type=int, help="pathtuple path count")
    en.add_argument("--format", choices=["json", "tsv", "ascii"], default="json")

    cv = sub.add_parser("convert", help="apply a bijection to a JSON object on stdin")
    cv.add_argument("--from", dest="source", required=True, choices=list(_KINDS))
    cv.add_argument("--to", dest="target", required=True, choices=list(_KINDS))
    cv.add_argument("--shift", type=int, default=0,
                    help="rotate the trip permutation (permutation targets)")
    cv.add_argument("--m", type=int, default=4)

    sp = sub.add_parser("sample", help="draw exact points from cells")
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--cell", type=int, help="single cell index (default: all)")
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)

    vf = sub.add_parser("verify", help="check an object read from stdin")
    vf.add_argument("--kind", required=True, choices=["diagram", "membership"])

    ex = sub.add_parser("experiment", help="run a verification experiment")
    exsub = ex.add_subparsers(dest="name", required=True)
    counts = exsub.add_parser("counts")
    counts.add_argument("--n-max", type=int, default=10)
    counts.add_argument("--format", choices=["json", "tsv"], default="json")
    dis = exsub.add_parser("disjointness")
    dis.add_argument("--n", type=int)
    dis.add_argument("--k", type=int)
    dis.add_argument("--m", type=int, default=4)
    dis.add_argument("--samples", type=int, default=5)
    dis.add_argument("--seed", type=int, default=0)
    dis.add_argument("--format", choices=["json", "tsv"], default="json")
    m3 = exsub.add_parser("m3-counterexample")
    m3.add_argument("--seed", type=int, default=0)
    m3.add_argument("--format", choices=["json", "tsv"], default="json")
    sw = exsub.add_parser("sweeps")
    sw.add_argument("--n-max", type=int, default=7)
    sw.add_argument("--samples", type=int, default=3)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--format", choices=["json", "tsv"], default="json")

    rd = sub.add_parser("render", help="draw a JSON object from stdin")
    rd.add_argument("--kind", required=True, choices=list(_KINDS))
    rd.add_argument("--format", choices=["svg", "ascii"], default="svg")
    rd.add_argument("--m", type=int, default=4)

    return parser


def run(argv, stdin: Optional[TextIO] = None, stdout: Optional[TextIO] = None) -> int:
    """Execute one command line; returns the exit code without exiting."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _VERBS[args.verb](args, stdin, stdout)
    except (PositroidError, ValueError, KeyError, TypeError) as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"positroids: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("positroids: error: input nested too deeply", file=sys.stderr)
        return 2
    except Exception as exc:  # the one boundary that reports every failure
        print(f"positroids: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    # a closed pipe downstream (``| head``) ends the process quietly; the
    # import is here because it costs importers of this module start-up time
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
