"""Deterministic SVG figures: skeleton phase plots and region diagrams.

All geometry stays in exact rationals until the final coordinate strings,
which are rendered with twelve decimal digits so identical inputs always
produce identical bytes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

from .errors import InvalidArgument
from .exactlin import pair, solve_square

WIDTH = 800
HEIGHT = 600
MARGIN = 40

_AXIS_STYLE = 'stroke="#999999" stroke-width="1"'
_SPIKE_STYLE = 'stroke="#202020" stroke-width="2"'
_FILLS = ("#4682b4", "#b44682", "#46b482", "#b48246")
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

    def axes(self):
        self.line((-self.box, 0), (self.box, 0), _AXIS_STYLE)
        self.line((0, -self.box), (0, self.box), _AXIS_STYLE)

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


def _interval(poly, box):
    """Clip a 1d polyhedron to [-box, box]; None when nothing remains."""
    lo, hi = -box, box
    lo_strict = hi_strict = False
    for normal, rhs, strict in poly.canonical():
        a = normal[0]
        bound = Fraction(rhs, a)
        if a > 0:
            if bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
        else:
            if bound < hi or (bound == hi and strict):
                hi, hi_strict = bound, strict
    if lo > hi or (lo == hi and (lo_strict or hi_strict)):
        return None
    return lo, hi, lo_strict, hi_strict


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

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if dy > 0 or (dy == 0 and dx > 0) else 1

    def compare(a, b):
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = (a[0] - cx) * (b[1] - cy) - (a[1] - cy) * (b[0] - cx)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(pts, key=cmp_to_key(compare))


def _draw_region_2d(canvas, poly, fill):
    box = canvas.box
    box_cons = [
        ((1, 0), -box, False),
        ((-1, 0), -box, False),
        ((0, 1), -box, False),
        ((0, -1), -box, False),
    ]
    cons = list(poly.canonical())
    verts = _vertices_2d(cons + box_cons)
    if len(verts) >= 3:
        canvas.polygon(verts, fill)
    for normal, rhs, strict in cons:
        on_line = sorted(v for v in verts if pair(v, normal) == rhs)
        if len(on_line) >= 2:
            canvas.line(on_line[0], on_line[-1], _stroke(strict, _EDGE_COLOR))


def _scene_lagrangian(canvas, data):
    fan = data["fan"]
    spike = canvas.box / 2
    for piece in data["pieces"]:
        if piece.fiber_cone.dim == 0:
            canvas.line((-canvas.box, 0), (canvas.box, 0), _SPIKE_STYLE)
            continue
        normal, rhs, _ = piece.base.canonical()[0]
        x0 = Fraction(rhs, normal[0])
        if abs(x0) > canvas.box:
            continue
        # the fiber is -sigma: the spike points against the ray
        direction = -fan.v(piece.fiber_cone.ray_indices[0])[0]
        canvas.line((x0, 0), (x0, spike * direction), _SPIKE_STYLE)


def _scene_region_1d(canvas, data):
    band = canvas.box / 12
    for k, entry in enumerate(data["regions"]):
        poly = entry["polyhedron"]
        if poly.dim != 1:
            raise InvalidArgument("region-1d needs one-dimensional polyhedra")
        clipped = _interval(poly, canvas.box)
        if clipped is None:
            continue
        lo, hi, lo_strict, hi_strict = clipped
        color = entry.get("fill", _FILLS[k % len(_FILLS)])
        canvas.polygon([(lo, -band), (hi, -band), (hi, band), (lo, band)], color)
        canvas.line((lo, 0), (hi, 0), _stroke(False, color))
        if lo > -canvas.box:
            canvas.circle((lo, 0), 5, not lo_strict, color)
        if hi < canvas.box:
            canvas.circle((hi, 0), 5, not hi_strict, color)


def _scene_region_2d(canvas, data):
    for k, entry in enumerate(data["regions"]):
        poly = entry["polyhedron"]
        if poly.dim != 2:
            raise InvalidArgument("region-2d needs two-dimensional polyhedra")
        _draw_region_2d(canvas, poly, entry.get("fill", _FILLS[k % len(_FILLS)]))


_SCENES = {
    "lagrangian": _scene_lagrangian,
    "region-1d": _scene_region_1d,
    "region-2d": _scene_region_2d,
}


def render_svg(scene: str, data: dict, out_path) -> None:
    """Render one scene to a deterministic SVG file at out_path."""
    if scene not in _SCENES:
        raise InvalidArgument(f"unknown scene {scene!r}")
    canvas = _Canvas(data.get("box", 1))
    canvas.axes()
    _SCENES[scene](canvas, data)
    try:
        Path(out_path).write_text(canvas.text(), encoding="utf-8")
    except OSError as exc:
        raise InvalidArgument(f"cannot write {out_path}: {exc}") from None
