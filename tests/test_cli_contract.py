"""The CLI's contract on any JSON input, and the exact bytes it draws and converts.

The property feeds random JSON, and valid objects with one or two parts
replaced by random JSON, to every reader the CLI has: it must answer with a
documented exit code (0, 1 or 2), never a traceback or an internal error,
and the same stdout when run again.  Integers stay small: sizing a huge
request belongs to the admission check (ROADMAP item 4), not to the readers.

The pins are sha256 digests, recorded before the CLI's kind tables existed,
of the exit codes and stdout of every ``render`` kind and format and every
``convert`` arrow over whole small families; two more pin ``sample`` stdout.

Fresh interpreters check what a request imports (each verb imports the
package modules it uses on first use, only a request that draws loads
``render``, and only one that does exact arithmetic loads ``fractions``), and
that a request answers the same bytes whether it runs alone or in a process
with every module loaded.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from positroids import cli, experiments  # noqa: F401  (loads every package module)
from positroids.catalan import (
    enumerate_dyck_paths,
    enumerate_path_pairs,
    enumerate_path_tuples,
    enumerate_trees,
    paths_to_plane_partition,
)
from positroids.diagrams import enumerate_diagrams
from positroids.plabic import bcfw_permutations, enumerate_bcfw_graphs


def invoke(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# random JSON at every reader

_PAIR = list(enumerate_path_pairs(7, 1))[1]
_SEEDS = {
    "tree": enumerate_trees(6, 1)[0].to_json(),
    "graph": enumerate_bcfw_graphs(6, 2, 4)[0].to_json(),
    "paths": _PAIR.to_json(),
    "dyck": "UUDUDD",
    "diagram": enumerate_diagrams(7, 1, 4)[1].to_json(),
    "network": enumerate_diagrams(6, 2, 2)[0].to_json(),
    "permutation": bcfw_permutations(6, 1, 4)[0].to_json(),
    "planepartition": paths_to_plane_partition((_PAIR.wu, _PAIR.wl)).to_json(),
}
# one arrow per kind that has any: every JSON reader convert uses
_ARROW = {"tree": "graph", "graph": "tree", "paths": "dyck", "dyck": "paths",
          "diagram": "permutation", "planepartition": "paths"}
_TARGETS = (
    [(["convert", "--from", s, "--to", t], _SEEDS[s]) for s, t in _ARROW.items()]
    + [(["render", "--kind", k, "--format", f], _SEEDS[k])
       for k in _SEEDS for f in ("svg", "ascii")]
    + [(["verify", "--kind", "diagram"], _SEEDS["diagram"]),
       (["verify", "--kind", "membership"],
        {"matrix": [[1, 1, 1]], "diagram": {"k": 1, "n": 3, "shape": [2], "rows": ["++"]}})]
)

_SCALARS = (st.none() | st.booleans() | st.integers(-3, 9)
            | st.floats(allow_nan=False, allow_infinity=False, width=16)
            | st.sampled_from(["", "leaf", "UD", "UUDD", "+-", "H", "HV", "VH",
                               "black", "white", "1/2", "x"]))
_KEYS = st.sampled_from(["n", "k", "a", "b", "c", "rows", "shape", "images",
                         "white_fixed", "internal", "edges", "rotation", "id", "color",
                         "wu", "wl", "horizontal", "vertical", "matrix", "diagram",
                         "1", "-1"])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=10,
)


def _locations(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _locations(inner, prefix + (key,))


def _replaced(value, location, new):
    if not location:
        return new
    copy = json.loads(json.dumps(value))
    parent = copy
    for key in location[:-1]:
        parent = parent[key]
    parent[location[-1]] = new
    return copy


@st.composite
def _mutants(draw, seed):
    value = seed
    for _ in range(draw(st.integers(0, 2))):
        location = draw(st.sampled_from(list(_locations(value))))
        value = _replaced(value, location, draw(_JSON))
    return value


_CASES = st.sampled_from(_TARGETS).flatmap(
    lambda target: st.tuples(st.just(target[0]), _JSON | _mutants(target[1])))


@settings(max_examples=400, deadline=None)
@given(_CASES)
@example((["render", "--kind", "dyck", "--format", "ascii"], 42))
@example((["convert", "--from", "graph", "--to", "tree"], {**_SEEDS["graph"], "rotation": []}))
@example((["convert", "--from", "paths", "--to", "dyck"], {"wu": {}, "wl": {}}))
def test_any_json_keeps_the_exit_code_contract(case):
    argv, value = case
    text = json.dumps(value)
    code, out, err = invoke(argv, text)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and "internal error" not in err, err
    assert invoke(argv, text)[1] == out


_BRIDGE = '{"n":2,"internal":[],"edges":[[1,2]],"rotation":%s}'
_PLAIN_BRIDGE = _BRIDGE % '{"1":[0],"2":[1]}'
_STAR = ('{"n":3,"internal":[{"id":-1,"color":%s}],"edges":[[1,-1],[-1,2],[-1,3]],'
         '"rotation":{"1":[0],"2":[3],"3":[5],"-1":[1,2,4]}}')


@pytest.mark.parametrize("payload, plain", [
    (_BRIDGE % '{"1":[0],"0_2":[1]}', _PLAIN_BRIDGE),
    (_BRIDGE % '{"1":[0],"٢":[1]}', _PLAIN_BRIDGE),
    (_BRIDGE % '{"1":[5]," 1":[0],"2":[1]}', _PLAIN_BRIDGE),
    (_BRIDGE % '{"1":[0],"+2":[1]}', _PLAIN_BRIDGE),
    (_BRIDGE % '{"01":[0],"2":[1]}', _PLAIN_BRIDGE),
    (_STAR % '1', _STAR % '"white"'),
    (_STAR % '["white"]', _STAR % '"white"'),
], ids=["underscore-key", "arabic-digit-key", "space-key-overwrites", "plus-key",
        "zero-padded-key", "int-color", "list-color"])
def test_graph_keys_and_colors_are_read_exactly(payload, plain):
    # a rotation key is read only in plain decimal, so no two keys name one
    # vertex, and a color only as a string
    argv = ["convert", "--from", "graph", "--to", "permutation"]
    assert invoke(argv, plain)[0] == 0
    code, out, err = invoke(argv, payload)
    assert code == 2 and out == "", (code, out)
    assert "positroids: error: " in err and "internal error" not in err


# ----------------------------------------------------------------------
# pinned bytes


def _families():
    pairs = [p for k in range(4) for p in enumerate_path_pairs(7, k)]
    return {
        "tree": [t.to_json() for k in range(4) for t in enumerate_trees(7, k)],
        "graph": [g.to_json() for s in range(2, 6) for g in enumerate_bcfw_graphs(7, s, 4)],
        "paths": [p.to_json() for p in pairs],
        "dyck": [d.to_json() for k in range(4) for d in enumerate_dyck_paths(7, k)],
        "diagram": [d.to_json() for k in range(4) for d in enumerate_diagrams(7, k, 4)],
        "permutation": [p.to_json() for k in range(4) for p in bcfw_permutations(7, k, 4)],
        "network": [d.to_json() for k in range(6) for d in enumerate_diagrams(7, k, 2)],
        "planepartition": [paths_to_plane_partition(t).to_json()
                           for t in enumerate_path_tuples(2, 2, 2)]
        + [paths_to_plane_partition((p.wu, p.wl)).to_json() for p in pairs],
    }


_FAMILIES = _families()


def _digest(argv, payloads) -> str:
    h = hashlib.sha256()
    for payload in payloads:
        code, out, _ = invoke(argv, json.dumps(payload))
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


RENDER_PINS = {
    ("tree", "svg"): "605767c03c649e4a2bb5c097c97b4060583d5097272fb632d864e9df5ba8c596",
    ("tree", "ascii"): "182d2a16b3162e22861e61b18c5336aefac0961b9005ae8d47fc7d9b331dad25",
    ("graph", "svg"): "9f4ff828452c2fd91ed77e0c2f92a59145873d47b3553381d033018801a2c386",
    ("graph", "ascii"): "a0621c96c4b1c36e26713ff446ddfba007f27fb37de0366d90be22e310abded3",
    ("paths", "svg"): "d680b963555f366c5e0643d85c9dd4634ba48cca1f83ad46464fd0a3128a9137",
    ("paths", "ascii"): "a0621c96c4b1c36e26713ff446ddfba007f27fb37de0366d90be22e310abded3",
    ("dyck", "svg"): "0b12a8b59ee640d485adb5cc547ee8727038a81ff54630a2f679b9132725c5ee",
    ("dyck", "ascii"): "27c958d314d6e87a6a277483e3cd2e5c02cba6f9efd6c9bf2d027711b4942a3a",
    ("diagram", "svg"): "4f42567c5e1022199436087c2e2033ae152d3f8b30a05d822e2eafddf2f9038b",
    ("diagram", "ascii"): "bf330807f78b2ca3ba2fe77ffc5c47e13d4f678318fdea593c76d446f7f1d356",
    ("permutation", "svg"): "982497f6202f03f593631882efbf141859f22973c2000659dbb5201f66a44b33",
    ("permutation", "ascii"): "5af0570f99256daf669c2f373e5f678eb2e63d002108b30206fbe418e47586f7",
    ("network", "svg"): "b52e25ddb73886c38e92478a5590169c86c4b8cf7d91c8d0d257a6240827d477",
    ("network", "ascii"): "adbc86de4ca3c9baf5b5288ec6094bcc185dcfb311e2dbdb952d4eb6264908d6",
    ("planepartition", "svg"): "27186ac8659e086dbc0e807ec365623a5a2470bbf74cf6937aded1886e3cb481",
    ("planepartition", "ascii"): "a998972a6406d71bd8a0b3272506956db2a1cd3190e8f149f257ddcfccaee409",
}

ARROW_PINS = {
    ("tree", "graph"): "c2c72d60951d8d1670a0d2a43576850f093cd07e60a4f8f98e39bbd31a70787c",
    ("graph", "tree"): "f50c3a265f3aad10c1d20ff62150af412e1772c1fb26fe809d8c28dcfa02e941",
    ("tree", "paths"): "6a1741ae362b0d20486e607a6e76333ee08d7a6daff529c99adbf568a1ac120f",
    ("tree", "permutation"): "d331fe82251606a7ec520db6691ebdd24adbd907867802066bcf712400a0cc30",
    ("graph", "permutation"): "816461bdb21b6de1e0f3d98ef086625792c9d5273cd3b7416c3b854fae51bccc",
    ("paths", "dyck"): "03516d10817a4f5821ab978f938590bd2c580558f28cb1e71a72943bf18b1d5f",
    ("dyck", "paths"): "77351805a520739f9a3f79260f296e96daf0962c00e0352c9a027efa92ea7cdd",
    ("paths", "diagram"): "d42f34842648d8e5ff783ee0a469902913c8df43754c2b9d6942343f60eff469",
    ("diagram", "permutation"): "4d9ef5bf6ce903860aa808574296966934164948bb57c97e3f9d3ee3be6b0a5a",
    ("diagram", "network"): "616f2e1b13f2f67e2642d543367b5d6260d6d90ff1e0aa60fa960d9aefd95f85",
    ("paths", "planepartition"): "0c8f253b49812e77b6c0075d662a7969125639f1ca046fda6a1ac297e35dc1da",
    ("planepartition", "paths"): "0fe34739b15f8ef08ab173f249da1d5a504ea90e3ca1f7cda8a1074d316b6a0b",
}


@pytest.mark.parametrize("kind, fmt", sorted(RENDER_PINS))
def test_render_bytes_are_pinned(kind, fmt):
    argv = ["render", "--kind", kind, "--format", fmt]
    assert _digest(argv, _FAMILIES[kind]) == RENDER_PINS[kind, fmt]


@pytest.mark.parametrize("source, target", sorted(ARROW_PINS))
def test_convert_bytes_are_pinned(source, target):
    argv = ["convert", "--from", source, "--to", target]
    assert _digest(argv, _FAMILIES[source]) == ARROW_PINS[source, target]


# sha256 of the stdout of sample requests, recorded while each sample rebuilt
# its cell's network and built its matrix entries at once
SAMPLE_PINS = {
    "sample --n 9 --k 3 --m 2 --count 3 --seed 4":
        "e2cf59e4b9d7031a179e6d078a58c6bfffabe097eb9a5c4e05f5ad4f1c247c92",
    "sample --n 8 --k 2 --m 4 --count 2 --seed 5":
        "c6452b7557c055aee50591ab5e6323ce40cc34489c6181f7fb7682fda0d9476f",
}


@pytest.mark.parametrize("request_line", sorted(SAMPLE_PINS))
def test_sample_bytes_are_pinned(request_line):
    code, out, _ = invoke(request_line.split(), "")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_PINS[request_line]


# sha256 of the stdout of two drawings a million units wide, where a width
# written as an int ("1000010") and one written with :g ("1.00001e+06") part;
# recorded while each drawer wrote its own <svg> header
WIDE_PINS = {
    ("diagram", json.dumps({"k": 0, "n": 41667, "shape": [], "rows": []})):
        "eabc33669772fd931ea942cf554e6cc20d75059f7333dceb0f58c85fc353b967",
    ("dyck", json.dumps("UD" * 31250)):
        "37e06ab56ebc40927352b52d044f02f2c2fdbe6e33760dcf6f3016029507004a",
}


@pytest.mark.parametrize("kind, payload", sorted(WIDE_PINS), ids=["diagram", "dyck"])
def test_wide_drawings_are_pinned(kind, payload):
    code, out, _ = invoke(["render", "--kind", kind, "--format", "svg"], payload)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WIDE_PINS[kind, payload]


def test_every_kind_and_arrow_is_pinned():
    assert set(RENDER_PINS) == {(k, f) for k in cli._KINDS for f in ("svg", "ascii")}
    assert set(ARROW_PINS) == set(cli._ARROWS)


# ----------------------------------------------------------------------
# fresh processes: what a request imports, and that import order changes no byte

_SRC = str(Path(cli.__file__).resolve().parents[1])
# the modules a probe lists: the package's, fractions, and dataclasses with the
# inspect it pulls in (the records are plain classes so that no request pays for them)
_LISTED = ("sorted(m for m in sys.modules if m.startswith('positroids')"
           " or m in ('fractions', 'dataclasses', 'inspect'))")
# run one request in this interpreter, then list the modules it loaded
_PROBE = ("import sys\n"
          "from positroids import cli\n"
          "code = cli.run(sys.argv[1:])\n"
          "sys.stdout.flush()\n"
          f"print(code, *{_LISTED}, file=sys.stderr)\n")


def _spawn(args, stdin_text=""):
    proc = subprocess.run([sys.executable, *args], input=stdin_text, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": _SRC}, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _loaded(argv, stdin_text=""):
    """Exit code and the listed modules a fresh ``cli.run(argv)`` leaves loaded."""
    _, _, err = _spawn(["-c", _PROBE, *argv], stdin_text)
    code, *modules = err.splitlines()[-1].split()
    return int(code), {m.removeprefix("positroids.") for m in modules}


def test_importing_the_cli_loads_no_package_module():
    _, out, _ = _spawn(["-c", f"import sys, positroids.cli; print(*{_LISTED})"])
    assert out.split() == ["positroids", "positroids.cli", "positroids.errors"]


def _pinned_input(argv, payloads) -> str:
    """The first input of a pinned family that the request accepts, else its first."""
    texts = [json.dumps(payload) for payload in payloads]
    return next((text for text in texts if invoke(argv, text)[0] == 0), texts[0])


@pytest.mark.parametrize("argv, unused", [
    (["enumerate", "--kind", "dyck", "--n", "8", "--k", "2"],
     {"plabic", "linalg", "signs", "experiments", "fractions"}),
    (["enumerate", "--kind", "diagram", "--n", "8", "--k", "3", "--m", "2"],
     {"catalan", "plabic", "fractions"}),
    (["sample", "--n", "7", "--k", "2", "--m", "4", "--cell", "0", "--seed", "5"],
     {"signs", "experiments"}),
    (["convert", "--from", "diagram", "--to", "permutation"],
     {"catalan", "plabic", "linalg", "fractions"}),
    (["render", "--kind", "tree", "--format", "svg"],
     {"plabic", "linalg", "signs", "fractions"}),
    (["render", "--kind", "dyck", "--format", "ascii"],
     {"plabic", "linalg", "signs", "fractions"}),
    (["enumerate", "--kind", "diagram", "--n", "7", "--k", "2", "--format", "ascii"],
     {"catalan", "plabic", "fractions"}),
    (["enumerate", "--kind", "paths", "--n", "8", "--k", "2"],
     {"plabic", "linalg", "signs", "experiments", "fractions"}),
    (["convert", "--from", "dyck", "--to", "paths"],
     {"plabic", "linalg", "signs", "experiments", "fractions"}),
    (["convert", "--from", "paths", "--to", "dyck"],
     {"plabic", "linalg", "signs", "experiments", "fractions"}),
    (["render", "--kind", "planepartition", "--format", "ascii"],
     {"plabic", "linalg", "signs", "experiments", "fractions"}),
])
def test_a_verb_imports_only_what_it_uses(argv, unused):
    # a request that reads stdin gets a pinned input of its kind
    text = _pinned_input(argv, _FAMILIES[argv[2]]) if argv[0] in ("convert", "render") else ""
    code, modules = _loaded(argv, text)
    assert code == 0
    banned = unused | {"dataclasses", "inspect"}
    assert not modules & banned, modules & banned
    # only a request that draws loads the drawers
    assert ("render" in modules) == (argv[0] == "render" or "ascii" in argv), modules


@pytest.mark.parametrize("argv, stdin_text", [
    (["enumerate", "--kind", "lattice", "--n", "6", "--k", "1"], ""),
    (["convert", "--from", "dyck", "--to", "tree"], '"UD"'),
    (["enumerate", "--kind", "tree", "--k", "1"], ""),
    (["verify", "--kind", "diagram"], "{"),
])
def test_a_usage_error_imports_nothing(argv, stdin_text):
    assert _loaded(argv, stdin_text) == (2, {"positroids", "cli", "errors"})


@pytest.mark.parametrize("argv, kind", [
    *[(["render", "--kind", k, "--format", f], k) for k, f in sorted(RENDER_PINS)],
    *[(["convert", "--from", s, "--to", t], s) for s, t in sorted(ARROW_PINS)],
])
def test_a_fresh_process_prints_what_a_loaded_one_does(argv, kind):
    # in this process every package module is loaded: see the import of experiments
    text = _pinned_input(argv, _FAMILIES[kind])
    code, out, _ = invoke(argv, text)
    assert _spawn(["-m", "positroids.cli", *argv], text)[:2] == (code, out)
