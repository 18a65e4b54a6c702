"""Pictures of the package's objects: SVG for every kind, ascii for most.

``SVG`` and ``ASCII`` map each CLI kind to its drawer (None: no ascii form).
The core modules only compute; the CLI imports this module only to draw.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .catalan import BinaryTree, DyckPath, PathPair, PlanePartition
    from .diagrams import OPlusDiagram
    from .permutations import DecoratedPermutation
    from .plabic import Network, PlabicGraph


def _svg(width: str, height: str, body: list[str], sep: str = "\n") -> str:
    # width and height come formatted: each drawer keeps its own number format
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return sep.join([head, *body, "</svg>"])


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    return f'<line x1="{x1:g}" y1="{y1:g}" x2="{x2:g}" y2="{y2:g}" stroke="black"/>'


def _dot(x: float, y: float, r: int, fill: str) -> str:
    return f'<circle cx="{x:g}" cy="{y:g}" r="{r}" fill="{fill}" stroke="black"/>'


def _label(x: float, y: float, text, size: int = 10) -> str:
    return f'<text x="{x:g}" y="{y:g}" font-size="{size}" text-anchor="middle">{text}</text>'


# ----------------------------------------------------------------------
# SVG


def _svg_tree(tree: BinaryTree) -> str:
    step = 32
    edges: list[tuple[float, int, float, int]] = []
    nodes: list[tuple[float, int, bool]] = []
    slot = [0]

    def place(t: BinaryTree, depth: int) -> float:
        if t.is_leaf:
            x = float(slot[0])
            slot[0] += 1
        else:
            xh = place(t.horizontal, depth + 1)
            xv = place(t.vertical, depth + 1)
            x = (xh + xv) / 2
            edges.append((x, depth, xh, depth + 1))
            edges.append((x, depth, xv, depth + 1))
        nodes.append((x, depth, t.is_leaf))
        return x

    place(tree, 0)
    depth = max(d for _, d, _ in nodes)

    def px(x: float) -> float:
        return x * step + 10

    def py(d: int) -> float:
        return d * step + 10

    body = [_line(px(x1), py(d1), px(x2), py(d2)) for x1, d1, x2, d2 in edges]
    body.extend(_dot(px(x), py(d), 4, "white" if leaf else "black") for x, d, leaf in nodes)
    width, height = slot[0] * step + 20, depth * step + 20
    return _svg(f"{width:g}", f"{height:g}", body)


def _svg_graph(graph: PlabicGraph) -> str:
    radius = 150.0
    cx = cy = radius + 20
    pos: dict[int, tuple[float, float]] = {}
    for b in range(1, graph.n + 1):
        ang = math.pi / 2 - 2 * math.pi * (b - 1) / max(graph.n, 1)
        pos[b] = (cx + radius * math.cos(ang), cy - radius * math.sin(ang))
    depth = {b: 0 for b in range(1, graph.n + 1)}  # distance from the boundary
    queue = deque(depth)
    rotation, colors = graph.rotation, graph.colors  # views rebuilt on each read: read once
    while queue:
        v = queue.popleft()
        for u in (graph.vertex_of(h ^ 1) for h in rotation[v]):
            if u not in depth:
                depth[u] = depth[v] + 1
                queue.append(u)
    max_depth = max(depth.values(), default=1) or 1
    rings: dict[int, list[int]] = {}
    for v in graph.internal_vertices():
        rings.setdefault(depth.get(v, max_depth), []).append(v)
    for d, vs in sorted(rings.items()):
        r = radius * (1 - d / (max_depth + 1))
        for idx, v in enumerate(sorted(vs, reverse=True)):
            ang = math.pi / 2 - 2 * math.pi * idx / len(vs) - 0.3 * d
            pos[v] = (cx + r * math.cos(ang), cy - r * math.sin(ang))
    body = [f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="none" stroke="#bbb"/>']
    for a, b in graph.edges:
        (x1, y1), (x2, y2) = pos[a], pos[b]
        body.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            'stroke="black"/>'
        )
    for v, (x, y) in pos.items():
        if v > 0:
            body.append(
                f'<text x="{x:.1f}" y="{y:.1f}" font-size="12" '
                f'text-anchor="middle">{v}</text>'
            )
        else:  # the colours are "black" and "white", SVG's names for them
            body.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="6" fill="{colors[v]}" '
                'stroke="black"/>'
            )
    return _svg(f"{2 * cx:.0f}", f"{2 * cy:.0f}", body, sep="")


def _svg_paths(pair: PathPair) -> str:
    cell = 24
    body = []
    for r in range(pair.k + 1):
        y = r * cell + 6
        body.append(f'<line x1="6" y1="{y}" x2="{pair.b * cell + 6}" y2="{y}" stroke="#ccc"/>')
    for c in range(pair.b + 1):
        x = c * cell + 6
        body.append(f'<line x1="{x}" y1="6" x2="{x}" y2="{pair.k * cell + 6}" stroke="#ccc"/>')
    for word, color, off in ((pair.wl, "red", 2), (pair.wu, "blue", -2)):
        x, y = pair.b * cell + 6, 6
        pts = [f"{x + off},{y + off}"]
        for ch in word:
            if ch == "H":
                x -= cell
            else:
                y += cell
            pts.append(f"{x + off},{y + off}")
        body.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    width, height = max(pair.b, 1) * cell + 12, max(pair.k, 1) * cell + 12
    return _svg(str(width), str(height), body, sep="")


def _svg_dyck(path: DyckPath) -> str:
    step = 16
    heights = path.heights
    top = max(heights)
    x0, y0 = 6, top * step + 6
    points = [f"{x0 + i * step},{y0 - h * step}" for i, h in enumerate(heights)]
    width = len(path.steps) * step + 12
    body = [
        f'<line x1="{x0}" y1="{y0}" x2="{width - 6}" y2="{y0}" stroke="#ccc"/>',
        f'<polyline points="{" ".join(points)}" fill="none" stroke="black"/>',
    ]
    return _svg(f"{width:g}", f"{top * step + 12:g}", body)


def _svg_diagram(diagram: OPlusDiagram) -> str:
    cell = 24
    body = []
    for r, c in diagram.boxes():
        x, y = (c - 1) * cell + 1, (r - 1) * cell + 1
        body.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            'fill="white" stroke="black"/>'
        )
        body.append(
            f'<text x="{x + cell // 2}" y="{y + cell // 2 + 5}" '
            f'text-anchor="middle" font-size="14">{diagram.fill(r, c)}</text>'
        )
    width = max((diagram.n - diagram.k), 1) * cell + 2
    height = max(diagram.k, 1) * cell + 2
    return _svg(str(width), str(height), body, sep="")


def _svg_permutation(perm: DecoratedPermutation) -> str:
    n = perm.n
    radius = max(30, 9 * n)
    size = 2 * radius + 40
    cx = cy = size / 2

    def point(i: int) -> tuple[float, float]:
        angle = math.pi / 2 - 2 * math.pi * (i - 1) / n
        return cx + radius * math.cos(angle), cy - radius * math.sin(angle)

    body = [_line(*point(i), *point(perm(i))) for i in range(1, n + 1) if perm(i) != i]
    for i in range(1, n + 1):
        x, y = point(i)
        fill = "white" if perm(i) == i and i in perm.white_fixed else "black"
        body.append(_dot(x, y, 4, fill))
        lx = cx + (radius + 12) * (x - cx) / radius
        ly = cy + (radius + 12) * (y - cy) / radius
        body.append(_label(lx, ly + 4, i))
    return _svg(f"{size:g}", f"{size:g}", body)


def _svg_network(net: Network) -> str:
    step = 40
    columns = sorted(net.sinks)
    east = (max(columns) + 1) * step if columns else step

    def node_xy(node) -> tuple[float, float]:
        if node[0] == "source":
            row = net.sources.index(node[1]) + 1
            return east + 10, row * step
        if node[0] == "sink":
            col = next(c for c, label in net.sinks.items() if label == node[1])
            return east - col * step + 10, (net.k + 1) * step
        row, col = node
        return east - col * step + 10, row * step

    body = []
    for name, tail, head in net.horizontal:
        x1, y1 = node_xy(tail)
        x2, y2 = node_xy(head)
        body.append(_line(x1, y1, x2, y2))
        body.append(_label((x1 + x2) / 2, y1 - 4, name))
    body.extend(_line(*node_xy(tail), *node_xy(head)) for tail, head in net.vertical)
    for label in net.sources:
        x, y = node_xy(("source", label))
        body.append(f'<circle cx="{x:g}" cy="{y:g}" r="3" fill="black"/>')
        body.append(f'<text x="{x + 6:g}" y="{y + 4:g}" font-size="10">{label}</text>')
    for label in net.sinks.values():
        x, y = node_xy(("sink", label))
        body.append(_dot(x, y, 3, "white"))
        body.append(_label(x, y + 14, label))
    width, height = east + 40, (net.k + 2) * step
    return _svg(f"{width:g}", f"{height:g}", body)


def _svg_plane_partition(partition: PlanePartition) -> str:
    step = 24
    body = []
    for r in range(partition.a):
        for c in range(partition.b):
            x, y = c * step + 6, r * step + 6
            body.append(
                f'<rect x="{x}" y="{y}" width="{step}" height="{step}" '
                'fill="none" stroke="#999"/>'
            )
            body.append(_label(x + step / 2, y + step / 2 + 4, partition.rows[r][c], size=11))
    width = max(partition.b, 1) * step + 12
    height = max(partition.a, 1) * step + 12
    return _svg(f"{width:g}", f"{height:g}", body)


# ----------------------------------------------------------------------
# ascii


def _ascii_dyck(path: DyckPath) -> str:
    heights = path.heights
    top = max(heights)
    grid = [[" "] * len(path.steps) for _ in range(top)]
    for x, ch in enumerate(path.steps):
        if ch == "+":
            grid[top - 1 - heights[x]][x] = "/"
        else:
            grid[top - heights[x]][x] = "\\"
    return "\n".join("".join(row).rstrip() for row in grid)


def _ascii_diagram(diagram: OPlusDiagram) -> str:
    """Grid of + and 0 characters, one line per row."""
    if diagram.k == 0:
        return "(empty)"
    return "\n".join(" ".join(row) or "." for row in diagram.rows)


def _ascii_plane_partition(partition: PlanePartition) -> str:
    rows = [" ".join(str(e) for e in row) for row in partition.rows]
    return "\n".join(rows) if rows else "(empty)"


# CLI kind -> its drawer
SVG = {
    "tree": _svg_tree,
    "graph": _svg_graph,
    "paths": _svg_paths,
    "dyck": _svg_dyck,
    "diagram": _svg_diagram,
    "permutation": _svg_permutation,
    "network": _svg_network,
    "planepartition": _svg_plane_partition,
}
ASCII = {
    "tree": str,
    "graph": None,
    "paths": None,
    "dyck": _ascii_dyck,
    "diagram": _ascii_diagram,
    "permutation": str,
    "network": None,
    "planepartition": _ascii_plane_partition,
}
