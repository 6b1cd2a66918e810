"""SVG emitters: Hasse diagrams of networks and zig-zag spacetime paths.

Pure string generation, no plotting dependency.  Hasse diagrams draw each
chain as a thick vertical polyline with influence running upward; reduced
cross-chain influences become arrows.  An event sits at its longest-path
depth, read from the network's closure, which also names the events on
cycles when a network cannot be drawn.  Each event takes the column of its
first chain by name, or one of its own when it is on no chain.  Path
pictures put time upward and position across.
"""

from __future__ import annotations

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

    # Each event's x and y, computed once for every loop below.  Events of
    # one column or one row share its coordinate, so no object is made per
    # event (a dict of (x, y) tuples measured slower, and it raised the
    # benchmark's peak RSS).
    x_of: dict[int, int] = {}
    names = net.chain_names()
    for col, name in enumerate(names):
        x = _MARGIN + col * _X_SPACING
        for event in net._members(name):
            x_of.setdefault(event, x)
    next_col = len(names)
    for event in events:
        if event not in x_of:
            x_of[event] = _MARGIN + next_col * _X_SPACING
            next_col += 1
    ys = [_MARGIN + (max_depth - d) * _Y_SPACING for d in range(max_depth + 1)]
    y_of = {event: ys[depth[event]] for event in events}

    reduced = net.transitive_reduction()

    parts = [_HEADER.format(w=2 * _MARGIN + max(next_col - 1, 0) * _X_SPACING,
                            h=2 * _MARGIN + max_depth * _Y_SPACING)]
    parts.append(_ARROW_DEFS)
    for name in names:
        members = net._members(name)
        if not members:
            continue
        points = " ".join(f"{x_of[e]},{y_of[e]}" for e in members)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#202020" stroke-width="4"/>'
        )
        x, y = x_of[members[0]], y_of[members[0]]
        parts.append(f'<text x="{x - 6}" y="{y + 28}" font-size="16">{name}</text>')
    for source, target in sorted(reduced - net.chain_links()):
        x1, y1 = x_of[source], y_of[source]
        x2, y2 = x_of[target], y_of[target]
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#d06000" '
            'stroke-width="2" marker-end="url(#arrow)"/>'
        )
    for event in events:
        x, y = x_of[event], y_of[event]
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="6" fill="#ffffff" stroke="#202020"/>\n'
            f'<text x="{x + 9}" y="{y + 4}" font-size="12">{event}</text>'
        )
    parts += ["</svg>", ""]  # the empty last part ends the text with \n, with no copy
    return "\n".join(parts)


def path_svg(path: SpacetimePath) -> str:
    """Zig-zag spacetime picture of a path, time upward."""
    points = path.points()
    xs = [float(x) for x, _ in points]
    ts = [float(t) for _, t in points]
    x_min, x_max = min(xs), max(xs)
    t_min, t_max = min(ts), max(ts)
    width = int((x_max - x_min) * _PATH_SCALE) + 2 * _MARGIN
    height = int((t_max - t_min) * _PATH_SCALE) + 2 * _MARGIN

    def pos(x: float, t: float) -> tuple[float, float]:
        return (_MARGIN + (x - x_min) * _PATH_SCALE, height - _MARGIN - (t - t_min) * _PATH_SCALE)

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
