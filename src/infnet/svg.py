"""SVG emitters: Hasse diagrams of networks and zig-zag spacetime paths.

Pure string generation, no plotting dependency.  Hasse diagrams draw each
chain as a thick vertical polyline with influence running upward; the
covering edges that are not chain links become arrows.  The network names
those edges (`_non_links`, which `dumps` writes too), and only they take
its covering test, the one `transitive_reduction` runs on every edge.  An
event sits at its longest-path depth; the network's closure pass names the
events on cycles when a network cannot be drawn.
Each event takes the column of its first chain by name, or one of its own
when it is on no chain, and its circle and label are put together from
its column's and its row's text, each made once.  Path pictures put time
upward and position across, from exact offsets to the lowest-left point,
so a path starting far from 0 draws as one starting at (0, 0).
"""

from __future__ import annotations

import itertools

from .freeparticle import SpacetimePath
from .network import InfluenceNetwork

_X_SPACING = 120
_Y_SPACING = 60
_MARGIN = 50
_PATH_SCALE = 60  # pixels per unit of x and of t

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
    'viewBox="0 0 {w} {h}">'
)
_ARROW_DEFS = (
    "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" "
    "markerWidth=\"7\" markerHeight=\"7\" orient=\"auto-start-reverse\">"
    "<path d=\"M 0 0 L 10 5 L 0 10 z\" fill=\"#d06000\"/></marker></defs>"
)

# A chain name's text escapes &, < and >, and draws as U+FFFD each character
# XML 1.0 forbids even as a reference: C0 controls but tab and line ends,
# surrogates, U+FFFE and U+FFFF.  The text format keeps all but surrogates.
_XML_FORBIDDEN = [*range(0x9), 0xB, 0xC, *range(0xE, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF]
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"} | dict.fromkeys(_XML_FORBIDDEN, "\ufffd"))


def hasse_svg(net: InfluenceNetwork) -> str:
    """Hasse diagram of the transitive reduction, influence running upward."""
    events = net.event_ids()
    if not events:
        return _HEADER.format(w=2 * _MARGIN, h=2 * _MARGIN) + "</svg>\n"
    cyclic = net._cyclic()
    if cyclic:
        raise ValueError(
            f"cannot draw a cyclic network: events {list(cyclic)} lie on directed cycles"
        )
    depth = net._depths()
    max_depth = max(depth.values())

    # Each event's column, the first chain by name holding it (so the later
    # chains go in first), then one column per event on no chain.
    names = net.chain_names()
    col_of: dict[int, int] = {}
    for col in reversed(range(len(names))):
        col_of.update(dict.fromkeys(net._members(names[col]), col))
    off_chain = sorted(set(events).difference(col_of))
    col_of.update(zip(off_chain, itertools.count(len(names))))
    n_cols = len(names) + len(off_chain)
    xs = [_MARGIN + col * _X_SPACING for col in range(n_cols)]
    ys = [_MARGIN + (max_depth - d) * _Y_SPACING for d in range(max_depth + 1)]
    # The text of each column's and each row's coordinates, made once.
    x_text, y_text = list(map(str, xs)), list(map(str, ys))

    parts = [_HEADER.format(w=2 * _MARGIN + max(n_cols - 1, 0) * _X_SPACING,
                            h=2 * _MARGIN + max_depth * _Y_SPACING)]
    parts.append(_ARROW_DEFS)
    for name in names:
        members = net._members(name)
        if not members:
            continue
        points = " ".join(f"{x_text[col_of[e]]},{y_text[depth[e]]}" for e in members)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#202020" stroke-width="4"/>'
        )
        x, y = xs[col_of[members[0]]], ys[depth[members[0]]]
        text = name.translate(_XML_TEXT)
        parts.append(f'<text x="{x - 6}" y="{y + 28}" font-size="16">{text}</text>')
    for source, target in sorted(net._covering(net._non_links())):
        parts.append(
            f'<line x1="{x_text[col_of[source]]}" y1="{y_text[depth[source]]}" '
            f'x2="{x_text[col_of[target]]}" y2="{y_text[depth[target]]}" stroke="#d06000" '
            'stroke-width="2" marker-end="url(#arrow)"/>'
        )
    # An event's circle and label: the column's text up to its y, the row's
    # y, the column's text up to the label's y, the row's label y.
    circle_heads = [f'<circle cx="{x}" cy="' for x in xs]
    label_heads = [f'" r="6" fill="#ffffff" stroke="#202020"/>\n<text x="{x + 9}" y="' for x in xs]
    label_ys = [str(y + 4) for y in ys]
    for event in events:
        col, row = col_of[event], depth[event]
        parts.append(
            f'{circle_heads[col]}{y_text[row]}{label_heads[col]}{label_ys[row]}" '
            f'font-size="12">{event}</text>'
        )
    parts += ["</svg>", ""]  # the empty last part ends the text with \n, with no copy
    return "\n".join(parts)


def path_svg(path: SpacetimePath) -> str:
    """Zig-zag spacetime picture of a path, time upward."""
    # The picture depends only on offsets from the lowest-left corner, taken
    # exactly, so a start past float range draws as a start at (0, 0).
    points = path.points()
    x_min, t_min = map(min, zip(*points))
    xs = [float(x - x_min) for x, _ in points]
    ts = [float(t - t_min) for _, t in points]
    width = int(max(xs) * _PATH_SCALE) + 2 * _MARGIN
    height = int(max(ts) * _PATH_SCALE) + 2 * _MARGIN

    def pos(x: float, t: float) -> tuple[float, float]:
        return (_MARGIN + x * _PATH_SCALE, height - _MARGIN - t * _PATH_SCALE)

    parts = [_HEADER.format(w=width, h=height)]
    svg_points = " ".join("{:g},{:g}".format(*pos(x, t)) for x, t in zip(xs, ts))
    parts.append(
        f'<polyline points="{svg_points}" fill="none" stroke="#1040c0" stroke-width="3"/>'
    )
    for x, t in zip(xs, ts):
        px, py = pos(x, t)
        parts.append(f'<circle cx="{px:g}" cy="{py:g}" r="4" fill="#1040c0"/>')
    sx, sy = pos(xs[0], ts[0])
    parts.append(f'<text x="{sx + 8:g}" y="{sy + 4:g}" font-size="12">start</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
