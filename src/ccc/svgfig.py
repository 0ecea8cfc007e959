"""Deterministic SVG figures: skeleton phase plots and region diagrams, as text.

All geometry stays in exact rationals until the final coordinate strings,
which are rendered with twelve decimal digits so identical inputs always
produce identical bytes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InvalidArgument
from .exactlin import pair, solve_square

WIDTH = 800
HEIGHT = 600
MARGIN = 40

_AXIS_STYLE = 'stroke="#999999" stroke-width="1"'
_SPIKE_STYLE = 'stroke="#202020" stroke-width="2"'
_EDGE_COLOR = "#1f3d5c"


def _dec12(value) -> str:
    fr = Fraction(value)
    sign = "-" if fr < 0 else ""
    scaled = abs(fr) * 10**12
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled - n) >= 1:
        n += 1
    whole, frac = divmod(n, 10**12)
    return f"{sign}{whole}.{frac:012d}"


class _Canvas:
    def __init__(self, box):
        self.box = Fraction(box)
        if self.box <= 0:
            raise InvalidArgument("plot box must be positive")
        self.elements: list[str] = []
        self.line((-self.box, 0), (self.box, 0), _AXIS_STYLE)
        self.line((0, -self.box), (0, self.box), _AXIS_STYLE)

    def to_canvas(self, x, y):
        sx = MARGIN + (Fraction(x) + self.box) / (2 * self.box) * (WIDTH - 2 * MARGIN)
        sy = HEIGHT - MARGIN - (Fraction(y) + self.box) / (2 * self.box) * (HEIGHT - 2 * MARGIN)
        return sx, sy

    def line(self, p, q, style):
        (x1, y1), (x2, y2) = self.to_canvas(*p), self.to_canvas(*q)
        self.elements.append(
            f'<line x1="{_dec12(x1)}" y1="{_dec12(y1)}" x2="{_dec12(x2)}" y2="{_dec12(y2)}" {style}/>'
        )

    def polygon(self, pts, fill):
        rendered = " ".join(
            "{},{}".format(*map(_dec12, self.to_canvas(*p))) for p in pts
        )
        self.elements.append(f'<polygon points="{rendered}" fill="{fill}" fill-opacity="0.25" stroke="none"/>')

    def circle(self, p, radius, filled, color):
        x, y = self.to_canvas(*p)
        fill = color if filled else "#ffffff"
        self.elements.append(
            f'<circle cx="{_dec12(x)}" cy="{_dec12(y)}" r="{radius}" fill="{fill}" stroke="{color}" stroke-width="2"/>'
        )

    def text(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"


def _stroke(strict: bool, color: str) -> str:
    dash = ' stroke-dasharray="6 4"' if strict else ""
    return f'stroke="{color}" stroke-width="2"{dash}'


def _draw_interval(canvas, poly, fill):
    """A 1d polyhedron clipped to [-box, box], with a dot at each end inside the box."""
    lo, hi = -canvas.box, canvas.box
    lo_strict = hi_strict = False
    for normal, rhs, strict in poly.canonical():
        a = normal[0]
        bound = Fraction(rhs, a)
        if a > 0:
            if bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
        elif bound < hi or (bound == hi and strict):
            hi, hi_strict = bound, strict
    if lo > hi or (lo == hi and (lo_strict or hi_strict)):
        return
    band = canvas.box / 12
    canvas.polygon([(lo, -band), (hi, -band), (hi, band), (lo, band)], fill)
    canvas.line((lo, 0), (hi, 0), _stroke(False, fill))
    if lo > -canvas.box:
        canvas.circle((lo, 0), 5, not lo_strict, fill)
    if hi < canvas.box:
        canvas.circle((hi, 0), 5, not hi_strict, fill)


def _vertices_2d(constraints):
    """Vertices of the closure of an H-polytope, sorted counterclockwise."""
    pts = set()
    for (n1, r1, _), (n2, r2, _) in itertools.combinations(constraints, 2):
        try:
            x = tuple(solve_square([list(n1), list(n2)], [r1, r2]))
        except InvalidArgument:
            continue
        if all(pair(x, n) >= r for n, r, _ in constraints):
            pts.add(x)
    pts = sorted(pts)
    if len(pts) < 3:
        return pts
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)

    def angle(p):
        # counterclockwise from +x: the half-plane, then minus the cotangent, rising in each
        dx, dy = p[0] - cx, p[1] - cy
        half = 0 if dy > 0 or (dy == 0 and dx > 0) else 1
        return half, dy != 0, -dx / dy if dy else 0

    return sorted(pts, key=angle)


def _draw_region_2d(canvas, poly, fill):
    box_cons = [(unit, -canvas.box, False) for unit in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    cons = list(poly.canonical())
    verts = _vertices_2d(cons + box_cons)
    if len(verts) >= 3:
        canvas.polygon(verts, fill)
    for normal, rhs, strict in cons:
        on_line = sorted(v for v in verts if pair(v, normal) == rhs)
        if len(on_line) >= 2:
            canvas.line(on_line[0], on_line[-1], _stroke(strict, _EDGE_COLOR))


def skeleton_svg(fan, pieces, box) -> str:
    """The skeleton phase plot: the zero section and one spike per base point."""
    canvas = _Canvas(box)
    spike = canvas.box / 2
    for piece in pieces:
        if piece.base is None:
            canvas.line((-canvas.box, 0), (canvas.box, 0), _SPIKE_STYLE)
            continue
        # the fiber is -sigma: the spike points against the ray
        direction = -fan.v(piece.fiber_cone.ray_indices[0])[0]
        canvas.line((piece.base, 0), (piece.base, spike * direction), _SPIKE_STYLE)
    return canvas.text()


def regions_svg(regions, box) -> str:
    """Each (polyhedron, fill) region, drawn as an interval or a polygon by its dimension."""
    canvas = _Canvas(box)
    for poly, fill in regions:
        (_draw_interval if poly.dim == 1 else _draw_region_2d)(canvas, poly, fill)
    return canvas.text()
