"""Plain-text visualisation of lattices, snake orders, traces and networks.

Everything the paper draws, drawable in a terminal:

* :func:`render_lattice` — a key lattice as stacked 2-D grids (the layout of
  Figs. 12-15);
* :func:`render_snake_path` — the snake order as arrows over a 2-D block
  (Fig. 3's highlighted path);
* :func:`render_merge_trace` — a captioned dump of every traced state of a
  lattice merge (the Figs. 12-15 walkthrough, programmatically);
* :func:`render_comparator_network` — the classic Knuth-style wire diagram
  of a :class:`~repro.core.network_builder.WireNetwork` or a Batcher-style
  stage list;
* :func:`render_factor_graph` — adjacency listing with Hamiltonian/labelling
  annotations.

All functions return strings (print them yourself), so they are trivially
testable and usable in docs, examples and bug reports.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .graphs.base import FactorGraph
from .orders.gray import gray_unrank

__all__ = [
    "render_lattice",
    "render_snake_path",
    "render_merge_trace",
    "render_comparator_network",
    "render_factor_graph",
    "heat_shade",
    "render_heatmap",
]

#: shading ramp for terminal heatmaps, coolest to hottest
HEAT_SHADES = " ·░▒▓█"

def heat_shade(value: float, peak: float) -> str:
    """The ramp character for ``value`` on a scale topping out at ``peak``."""
    if peak <= 0 or value <= 0:
        return HEAT_SHADES[0]
    idx = 1 + int((len(HEAT_SHADES) - 2) * min(value / peak, 1.0))
    return HEAT_SHADES[min(idx, len(HEAT_SHADES) - 1)]


def render_heatmap(
    matrix: Sequence[Sequence[float]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str | None = None,
) -> str:
    """A labelled terminal heatmap: shade ramp + the numbers themselves.

    Each cell prints its shade character twice (so the ramp is legible at a
    glance) followed by the right-justified value; all cells share one scale,
    the matrix maximum, echoed in the legend line.
    """
    if len(matrix) != len(row_labels):
        raise ValueError("need one row label per matrix row")
    for row in matrix:
        if len(row) != len(col_labels):
            raise ValueError("every matrix row must match the column labels")
    peak = max((v for row in matrix for v in row), default=0)
    num_w = max([len(f"{v:g}") for row in matrix for v in row] or [1])
    cell_w = max(num_w + 3, *(len(c) + 1 for c in col_labels)) if col_labels else num_w + 3
    label_w = max((len(r) for r in row_labels), default=0)
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(" " * label_w + "".join(c.rjust(cell_w) for c in col_labels))
    for label, row in zip(row_labels, matrix):
        cells = "".join(
            (heat_shade(v, peak) * 2 + f"{v:g}".rjust(num_w)).rjust(cell_w) for v in row
        )
        lines.append(label.ljust(label_w) + cells)
    ramp = "".join(HEAT_SHADES[1:])
    lines.append(f"scale: 0..{peak:g}  ({ramp} = cool..hot)")
    return "\n".join(lines)


def render_lattice(lattice: np.ndarray, indent: str = "") -> str:
    """Render an ``(N,)*r`` key lattice as stacked 2-D grids.

    ``r = 1`` prints one row; ``r = 2`` one grid; higher ``r`` prints one
    grid per prefix ``(x_r, ..., x_3)``, captioned with the prefix — the
    reading order of the paper's figures.
    """
    lattice = np.asarray(lattice)
    width = max((len(str(x)) for x in lattice.ravel()), default=1)

    def grid(block: np.ndarray) -> list[str]:
        return [
            indent + " ".join(str(x).rjust(width) for x in row) for row in block
        ]

    if lattice.ndim == 1:
        return indent + " ".join(str(x).rjust(width) for x in lattice)
    if lattice.ndim == 2:
        return "\n".join(grid(lattice))
    lines: list[str] = []
    prefix_shape = lattice.shape[:-2]
    for prefix in np.ndindex(*prefix_shape):
        caption = ",".join(map(str, prefix))
        lines.append(f"{indent}[{caption}]PG_2:")
        lines.extend(grid(lattice[prefix]))
    return "\n".join(lines)


def render_snake_path(n: int) -> str:
    """The 2-D snake (boustrophedon) order as an arrow diagram (Fig. 3).

    >>> print(render_snake_path(3))
    > 0 -> 1 -> 2 v
    < 5 <- 4 <- 3 v
    > 6 -> 7 -> 8 .
    """
    width = len(str(n * n - 1))
    lines = []
    for row in range(n):
        ranks = [row * n + c for c in range(n)]
        if row % 2 == 1:
            ranks = list(reversed(ranks))
            cells = " <- ".join(str(p).rjust(width) for p in ranks)
            line = f"< {cells}"
        else:
            cells = " -> ".join(str(p).rjust(width) for p in ranks)
            line = f"> {cells}"
        line += " v" if row < n - 1 else " ."
        lines.append(line)
    return "\n".join(lines)


def render_merge_trace(states: dict[str, np.ndarray], captions: dict[str, str] | None = None) -> str:
    """Dump traced merge states with captions (Figs. 12-15 style).

    ``states`` maps trace event names to lattice copies (as produced by
    :class:`~repro.core.lattice_sort.ProductNetworkSorter` traces);
    ``captions`` optionally overrides the printed headings per event.
    """
    captions = captions or {}
    sections = []
    for event, lattice in states.items():
        heading = captions.get(event, event)
        sections.append(f"--- {heading} ---\n{render_lattice(np.asarray(lattice), indent='  ')}")
    return "\n".join(sections)


def render_comparator_network(layers: Sequence[Sequence[tuple[int, int]]], width: int) -> str:
    """Knuth-style diagram: wires as rows, comparators as column connectors.

    Each layer occupies one (or more, when comparators overlap visually)
    character columns; ``o`` marks comparator endpoints, ``|`` the span.
    """
    columns: list[list[str]] = []
    for layer in layers:
        # split a layer into visual columns so spans don't overlap
        visual: list[list[tuple[int, int]]] = []
        for lo, hi in layer:
            a, b = min(lo, hi), max(lo, hi)
            for col in visual:
                if all(b < min(x) or a > max(x) for x in col):
                    col.append((a, b))
                    break
            else:
                visual.append([(a, b)])
        for col in visual:
            chars = [" "] * width
            for a, b in col:
                for w in range(a, b + 1):
                    chars[w] = "|"
                chars[a] = "o"
                chars[b] = "o"
            columns.append(chars)
    label_width = len(str(width - 1))
    lines = []
    for w in range(width):
        row = "".join(f"-{col[w]}" for col in columns)
        lines.append(f"{str(w).rjust(label_width)} {row}-")
    return "\n".join(lines)


def render_factor_graph(g: FactorGraph) -> str:
    """Adjacency listing with the labelling diagnostics the algorithm uses."""
    lines = [f"{g.name}: {g.n} nodes, {len(g.edges)} edges, diameter {g.diameter}"]
    ham = g.hamiltonian_path
    if g.labels_follow_hamiltonian_path:
        lines.append("labels follow a Hamiltonian path (snake steps are single links)")
    elif ham is not None:
        lines.append(f"Hamiltonian path exists but labels do not follow it: {ham}")
    else:
        emb = g.linear_embedding()
        lines.append(
            f"no Hamiltonian path; dilation-{emb.dilation} linear embedding: {emb.order}"
        )
    for u in range(g.n):
        nbrs = " ".join(str(v) for v in sorted(g.neighbors(u)))
        lines.append(f"  {u}: {nbrs}")
    return "\n".join(lines)


def snake_label_grid(n: int, r: int) -> str:
    """Labels of ``PG_r`` printed in snake order, ``N`` per line."""
    labels = [gray_unrank(p, n, r) for p in range(n**r)]
    lines = []
    for start in range(0, len(labels), n):
        chunk = labels[start : start + n]
        lines.append(" ".join("".join(map(str, lab)) for lab in chunk))
    return "\n".join(lines)
