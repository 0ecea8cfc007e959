"""The three transforms on theta indices, at the poset and support level.

Case 1 pushes thresholds along a change of ray weights over a fixed base
fan.  Cases 2 and 3 push and pull along a weighted-blowup contraction,
where the image of a single theta sheaf is a staircase glued from
infinitely many translated dual cones.  A pulled-back staircase is its
chart (``Chart``): an exact membership predicate, with the polyhedral
bounds that sandwich it built only when read.
Discrepancy comparisons gate the hom-level checks, and a pixel raster
decides contractibility of planar region differences.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InvalidArgument, PreconditionError, ValidationError
from .exactlin import (
    ceil_div,
    ceil_frac,
    cone_basis,
    pair,
)
from .stackyfan import (
    Cone,
    ContractionSetup,
    SameBaseSetup,
    StackyFan,
    is_complete,
    j_image,
)
from .thetapos import (
    HOM_CONTRACTIBLE_DIFFERENCE,
    HOM_INCLUSION,
    HomResult,
    Polyhedron,
    ThetaIndex,
    leq,
    support,
)


# ---------------------------------------------------------------------------
# Case 1: one base fan, two weightings


def fm_case1(setup: SameBaseSetup, theta: ThetaIndex) -> ThetaIndex:
    """Push a theta index from the s-weighted fan to the r-weighted fan.

    The cone is unchanged; the threshold over ray i becomes
    ceil(r_i * t_i / s_i).  Equals pullback to the lcm weighting followed
    by pushforward (see case1_pullback / case1_pushforward).
    """
    if theta.fan != setup.fan_s:
        raise InvalidArgument("theta does not live over the s-weighted fan")
    t = tuple(
        ceil_div(setup.r[i] * tk, setup.s[i])
        for tk, i in zip(theta.t, theta.cone.ray_indices)
    )
    return ThetaIndex(fan=setup.fan_r, cone=theta.cone, t=t)


def case1_pullback(setup: SameBaseSetup, theta: ThetaIndex) -> ThetaIndex:
    """Pull back from the s-weighted fan to the common refinement (weights t)."""
    if theta.fan != setup.fan_s:
        raise InvalidArgument("theta does not live over the s-weighted fan")
    t = tuple(setup.n[i] * tk for tk, i in zip(theta.t, theta.cone.ray_indices))
    return ThetaIndex(fan=setup.fan_t, cone=theta.cone, t=t)


def case1_pushforward(setup: SameBaseSetup, theta: ThetaIndex) -> ThetaIndex:
    """Push forward from the common refinement down to the r-weighted fan."""
    if theta.fan != setup.fan_t:
        raise InvalidArgument("theta does not live over the lcm-weighted fan")
    t = tuple(ceil_div(tk, setup.m[i]) for tk, i in zip(theta.t, theta.cone.ray_indices))
    return ThetaIndex(fan=setup.fan_r, cone=theta.cone, t=t)


def fm_line_bundle_case1(setup: SameBaseSetup, c) -> tuple[int, ...]:
    """Image of the line bundle with coefficients c.

    The character of the bundle has threshold -c_i over ray i, and fm_case1
    pushes each threshold on its own, so the pushed thresholds glue across
    cones by construction: ray i goes to -fm_case1(-c_i), that is
    floor(r_i * c_i / s_i).
    """
    c = tuple(int(x) for x in c)
    if len(c) != len(setup.base.rays):
        raise InvalidArgument("one coefficient per ray required")
    if not is_complete(setup.base):
        raise InvalidArgument("bundle pushforward needs a complete fan")
    return tuple(
        -fm_case1(setup, ThetaIndex(fan=setup.fan_s, cone=Cone((i,)), t=(-ci,))).t[0]
        for i, ci in enumerate(c)
    )


# ---------------------------------------------------------------------------
# Case 2: pushing along a divisorial contraction


def _check_fan(fan: StackyFan, name: str, *thetas: ThetaIndex) -> None:
    """Refuse a theta that does not live in the fan; name says which fan of the setup it is."""
    for th in thetas:
        if th.fan is not fan and th.fan != fan:
            raise InvalidArgument(f"theta does not live in the {name} fan")


def _extra_threshold(setup: ContractionSetup, t: dict[int, int]) -> int:
    """The threshold ceil(sum alpha_i t_i) over the extra ray; t maps ray i to t_i.

    With the weights over their common denominator D (setup.scaled_alpha),
    it is one ceil_div of sum D*alpha_i t_i by D, as in Chart.gamma.
    """
    scale, weights = setup.scaled_alpha
    return ceil_div(sum(weights[i] * t[i] for i in setup.i_prime), scale)


def fm_case2(setup: ContractionSetup, theta: ThetaIndex) -> tuple[Polyhedron, list[ThetaIndex]]:
    """Image support and resolving terms for a theta pushed to the blowup.

    When the cone misses part of the subdivided block the sheaf is just
    reinterpreted.  Otherwise the image support picks up one extra strict
    constraint with threshold t_{n+1} = ceil(sum alpha_k t_k), and the
    image is resolved by the terms on the cones (sigma - S) + extra ray,
    one per nonempty S inside the subdivided block.
    """
    _check_fan(setup.sigma2, "contracted", theta)
    sigma = theta.cone
    image = support(theta, open=True)
    iset = set(setup.i_prime)
    if not iset <= set(sigma.ray_indices):
        return image, [ThetaIndex(fan=setup.sigma1, cone=sigma, t=theta.t)]

    coords = theta.thresholds.copy()  # a copy: the extra ray joins it
    coords[setup.extra_index] = t_extra = _extra_threshold(setup, coords)
    extra_con = (setup.extra.v, Fraction(t_extra, setup.extra.weight), True)
    image = Polyhedron(dim=image.dim, constraints=image.constraints + (extra_con,))

    terms = []
    for size in range(1, len(setup.i_prime) + 1):
        for removed in itertools.combinations(setup.i_prime, size):
            cone = Cone(tuple(
                i for i in sigma.ray_indices + (setup.extra_index,) if i not in removed
            ))
            t = tuple(coords[i] for i in cone.ray_indices)
            terms.append(ThetaIndex(fan=setup.sigma1, cone=cone, t=t))
    return image, terms


def fm_line_bundle_case2(setup: ContractionSetup, c) -> tuple[int, ...]:
    """Bundle coefficients after the push: c gains floor(sum alpha_i c_i).

    sigma2 is one maximal cone, so nothing is glued: the bundle character
    has thresholds -c, and the extra coefficient is minus their extra
    threshold.
    """
    c = tuple(int(x) for x in c)
    if len(c) != setup.n:
        raise InvalidArgument("one coefficient per contracted ray required")
    return c + (-_extra_threshold(setup, {i: -ci for i, ci in enumerate(c)}),)


def ext_case2(setup: ContractionSetup, theta1: ThetaIndex, theta2: ThetaIndex) -> HomResult:
    """Hom after pushing both thetas to the blowup.

    Valid under the discrepancy hypothesis sum(alpha) >= 1, where the push
    is fully faithful: C[0] exactly on support inclusion upstairs, and any
    failed inclusion leaves a contractible difference of image regions.
    """
    if setup.discrepancy not in (">=", "="):
        raise PreconditionError("push direction needs discrepancy sum(alpha) >= 1")
    _check_fan(setup.sigma2, "contracted", theta1, theta2)
    return HOM_INCLUSION if leq(theta1, theta2) else HOM_CONTRACTIBLE_DIFFERENCE


# ---------------------------------------------------------------------------
# Case 3: pulling back along the contraction


class Chart:
    """The pullback of a theta of sigma1, the staircase region, as its chart.

    J is the theta's cone, c its thresholds (``ThetaIndex.thresholds``),
    i0 the least index of the subdivided block outside J, m_index the rest
    of the block in increasing order, and j_prime indexes the contracted
    cone sigma_{J'}.  Charts come from ``fm3_region``, a new one per call.

    The region is an infinite union of shifted dual cones with exact
    membership (one ceiling evaluation via the minimal staircase character
    gamma(m0)), sandwiched between the polyhedra ``inner`` and ``outer``,
    which are built on first read.  When the extra ray is not in J the
    region degenerates to a plain open support and inner is outer.  inner
    is None when the sandwich hypothesis sum(alpha) <= 1 fails.
    """

    def __init__(self, setup: ContractionSetup, J, c, i0, j_prime, m_index):
        self.setup, self.J, self.c, self.i0 = setup, J, c, i0
        self.j_prime, self.m_index = j_prime, m_index
        self._characters = {}

    @property
    def stepped(self) -> bool:
        """Whether J holds the extra ray, so that the pullback is a staircase."""
        return self.setup.extra_index in self.c

    def _floors(self) -> tuple:
        """The strict constraints <x, b_j> > c_j over the rays of J but the extra one."""
        b = self.setup.sigma1.b
        return tuple(
            (b(j), Fraction(cj), True) for j, cj in self.c.items() if j != self.setup.extra_index
        )

    @cached_property
    def outer(self) -> Polyhedron:
        """The open support of the theta upstairs; it holds the region."""
        su = self.setup
        constraints = self._floors()
        if self.stepped:
            constraints += ((su.extra.b, Fraction(self.c[su.extra_index]), True),)
        return Polyhedron(dim=su.sigma1.dim, constraints=constraints)

    @cached_property
    def s1(self) -> Fraction | None:
        """Inner hyperplane height s1 = c_{n+1} + eps of the sandwich bound.

        None for an unstepped chart, or when sum(alpha) > 1.  eps is
        1 - (alpha_{i0}/2) min A, where A collects the fractional defects
        u + 1 - ceil(u) of the staircase heights u; A is finite since u
        moves in u0 + Z + sum_i (alpha_i/alpha_{i0}) Z over i in m_index,
        and min A is the residue of u0 modulo that subgroup's generator, or
        the generator itself when the residue is 0.  On integers: with
        (D, w) = setup.scaled_alpha, u0 = N / w_{i0} for
        N = D c_{n+1} - sum w_i c_i over m_index inside J, and the subgroup
        is (G / w_{i0}) Z for G = gcd(w_{i0}, w_i over m_index).  So the
        residue is (N mod G) / w_{i0}, and
        eps = 1 - ((N mod G) or G) / (2D).
        """
        su = self.setup
        if not self.stepped or su.discrepancy not in ("<=", "="):
            return None
        scale, weights = su.scaled_alpha
        c_extra = self.c[su.extra_index]
        num = scale * c_extra - sum(weights[i] * self.c[i] for i in self.m_index if i in self.c)
        step = gcd(weights[self.i0], *(weights[i] for i in self.m_index))
        return c_extra + 1 - Fraction(num % step or step, 2 * scale)

    @cached_property
    def inner(self) -> Polyhedron | None:
        """The polyhedron D(c, s1) inside the region, validated before it is kept.

        A failed validation raises and keeps nothing.
        """
        if not self.stepped:
            return self.outer
        if self.s1 is None:
            return None
        _validate_inner(self)
        su = self.setup
        return Polyhedron(
            dim=su.sigma1.dim, constraints=self._floors() + ((su.extra.b, self.s1, False),)
        )

    def gamma(self, m) -> ThetaIndex:
        """The staircase character gamma(m) on the contracted cone sigma_{J'}.

        m is indexed by m_index, nonnegative on indices inside J and
        unrestricted on the rest.  The height over i0 is
        ceil((c_{n+1} - sum alpha_i t_i) / alpha_{i0}), found on integers:
        with the weights scaled by their common denominator D
        (``setup.scaled_alpha``), it is one ceil_div of the scaled numerator
        by D * alpha_{i0}.
        """
        key = tuple(m)
        if key in self._characters:
            return self._characters[key]
        if not self.stepped:
            raise InvalidArgument("gamma characters need the extra ray in J")
        if any(int(x) != x for x in key):
            raise InvalidArgument("m must be integral")
        m = tuple(int(x) for x in key)
        if len(m) != len(self.m_index):
            raise InvalidArgument("m must be indexed by I' minus the chosen i0")
        su = self.setup
        scale, weights = su.scaled_alpha
        coords = dict(self.c)
        num = self.c[su.extra_index] * scale
        for mk, i in zip(m, self.m_index):
            if i in self.c and mk < 0:
                raise InvalidArgument(f"m_{i} must be nonnegative inside J")
            coords[i] = self.c.get(i, 0) + mk
            num -= weights[i] * coords[i]
        coords[self.i0] = ceil_div(num, weights[self.i0])
        g = ThetaIndex(
            fan=su.sigma2,
            cone=Cone(self.j_prime),
            t=tuple(coords[j] for j in self.j_prime),
        )
        self._characters[key] = g
        return g

    def contains(self, x) -> bool:
        """Exact membership of a point in the region."""
        if not self.stepped:
            return self.outer.contains(x)
        fan = self.setup.sigma2
        return self.contains_pairings({j: pair(x, fan.b(j)) for j in self.j_prime})

    def contains_pairings(self, p) -> bool:
        """Membership of a point of a stepped region, given as its pairings.

        p[j] is the exact pairing of the point with ray j of sigma2, for at
        least every j of J'; a sweep that probes many charts at one point
        pairs it once and decides each chart here.
        """
        for j in self.j_prime:
            if j in self.c and not p[j] > self.c[j]:
                return False
        m0 = tuple(ceil_frac(p[i]) - 1 - self.c.get(i, 0) for i in self.m_index)
        return p[self.i0] > self.gamma(m0).t[self.j_prime.index(self.i0)]


def fm3_region(setup: ContractionSetup, theta: ThetaIndex) -> Chart:
    """Pull a theta of sigma1 back to the contracted side: its chart.

    A cone of sigma1 misses some index of the subdivided block, so i0
    exists.
    """
    _check_fan(setup.sigma1, "subdivided", theta)
    J, c = theta.cone.ray_indices, theta.thresholds
    i0 = min(i for i in setup.i_prime if i not in c)
    m_index = tuple(i for i in setup.i_prime if i != i0)
    return Chart(setup=setup, J=J, c=c, i0=i0, j_prime=j_image(setup, J), m_index=m_index)


def chart_theta(setup: ContractionSetup, J, phi) -> ThetaIndex:
    """The theta of sigma1 on the cone J with threshold phi[k] on ray J[k].

    J comes in any order, as ``--J`` gives it.  ``Cone`` refuses a repeated
    index, and ``ThetaIndex`` a J that is no cone of sigma1: an index out
    of range, or the whole subdivided block.
    """
    J, phi = tuple(J), tuple(phi)
    if len(phi) != len(J):
        raise InvalidArgument("phi must have one threshold per index of J")
    cone, thresholds = Cone(J), dict(zip(J, phi))
    return ThetaIndex(fan=setup.sigma1, cone=cone, t=tuple(thresholds[j] for j in cone.ray_indices))


def _validate_inner(ch: Chart) -> None:
    # a few exact points of D(c, s1) must land inside the region
    su = ch.setup
    dim = su.sigma1.dim
    rows = tuple(su.sigma1.b(j) for j in ch.J)
    rhs = [
        ch.s1 if j == su.extra_index else Fraction(cj) + Fraction(1, 2)
        for j, cj in ch.c.items()
    ]
    # column k of the inverse pairs to 1 with row k and to 0 with the others
    columns = list(zip(*cone_basis(rows, dim).inverse))[: len(rows)]
    corner = tuple(sum(h * col[i] for h, col in zip(rhs, columns)) for i in range(dim))
    ray = tuple(sum(col[i] for col in columns) for i in range(dim))
    points = [corner]
    for scale in (Fraction(1, 2), Fraction(2)):
        points.append(tuple(a + scale * b for a, b in zip(corner, ray)))
    for bump in columns:
        points.append(tuple(a + b for a, b in zip(corner, bump)))
    for pt in points:
        if not ch.contains(pt):
            raise ValidationError("internal: inner bound escapes the staircase region")


def ext_case3(setup: ContractionSetup, theta1: ThetaIndex, theta2: ThetaIndex) -> HomResult:
    """Hom after pulling two thetas of sigma1 back to the contracted side.

    Valid under the discrepancy hypothesis sum(alpha) <= 1, where the pull
    is fully faithful: C[0] exactly on support inclusion upstairs (``leq``),
    else a contractible region difference.  No chart is built.
    """
    if setup.discrepancy not in ("<=", "="):
        raise PreconditionError("pull direction needs discrepancy sum(alpha) <= 1")
    _check_fan(setup.sigma1, "subdivided", theta1, theta2)
    return HOM_INCLUSION if leq(theta1, theta2) else HOM_CONTRACTIBLE_DIFFERENCE


def fm_line_bundle_case3(setup: ContractionSetup, c) -> tuple[int, ...] | None:
    """Pull a bundle on the blowup back to the contraction, when possible.

    The image is the bundle dropping the extra coefficient, provided the
    extra coefficient dominates the weighted sum of the block coefficients;
    otherwise the image is not a single bundle and None is returned.
    """
    c = tuple(int(x) for x in c)
    if len(c) != setup.n + 1:
        raise InvalidArgument("one coefficient per ray of the blowup required")
    total = sum(setup.alpha[i] * c[i] for i in setup.i_prime)
    if total <= c[setup.extra_index]:
        return c[: setup.n]
    return None


# ---------------------------------------------------------------------------
# planar contractibility raster


# the most pixels per side of a raster grid; the largest default grid of a
# bundled setup, contract_om3's at window 10 (box 42, step 1/6), has 504
MAX_GRID_SIDE = 1 << 12


def _grid(bbox, step, origin) -> tuple:
    """The first pixel center, the step and the side count of a checked grid."""
    bbox = Fraction(bbox)
    step = Fraction(step)
    if bbox <= 0 or step <= 0:
        raise InvalidArgument("bbox and step must be positive")
    count = (2 * bbox) / step
    if count.denominator != 1:
        raise InvalidArgument("the box must hold a whole number of pixels")
    if count > MAX_GRID_SIDE:
        raise InvalidArgument(
            f"the raster grid has {count} pixels per side, over the cap of {MAX_GRID_SIDE}"
        )
    ox, oy = (Fraction(o) for o in origin)
    return (-bbox + step / 2 + ox, -bbox + step / 2 + oy), step, int(count)


def raster_pixels(member, bbox, step, origin) -> tuple:
    """The raster of one membership predicate, walked pixel by pixel.

    Pixel centers sit at -bbox + step*(i + 1/2) + origin on each axis.  Row
    i holds the maximal half-open runs (start, stop) of the y indices j
    with member((x_i, y_j)).  This walk, on Fraction, is the oracle for
    raster_runs: the two agree when no center lies on a line of the region,
    which the sweep's origin (``sweeps.raster_origin``) guarantees.
    """
    (x0, y0), step, side = _grid(bbox, step, origin)
    ys = [y0 + step * j for j in range(side)]
    return tuple(
        _merged((j, j + 1) for j, y in enumerate(ys) if member((x0 + step * i, y)))
        for i in range(side)
    )


def _merged(spans) -> tuple:
    """Maximal runs of sorted, disjoint half-open spans; empty spans are dropped."""
    runs: list = []
    for start, stop in spans:
        if start >= stop:
            continue
        if runs and runs[-1][1] == start:
            start = runs.pop()[0]
        runs.append((start, stop))
    return tuple(runs)


def _bounds(constraints, x, y0, step, side) -> tuple[int, int]:
    """Pixels [start, stop) of [0, side) in the row at x that meet every constraint.

    Constraints are (normal, threshold) pairs.  The coordinates x, y0 and
    step and the thresholds are integers scaled by the raster's common
    denominator, so the crossing u = q + r/b of each constraint comes from
    one divmod: the floor is q and the ceiling q + (r != 0).  No pixel
    center lies on a line (raster_runs), so strict and closed constraints
    agree.
    """
    start, stop = 0, side
    for (n0, n1), threshold in constraints:
        a, b = n0 * x + n1 * y0, n1 * step  # the pairing at pixel j is a + b*j
        if b == 0:
            stop = stop if a > threshold else start
            continue
        q, r = divmod(threshold - a, b)
        if b > 0:
            start = max(start, q + 1)
        else:
            stop = min(stop, q + (r != 0))
    return start, stop


def _step_segments(a, slope, scale, lo, hi):
    """The segments of [lo, hi) on which the step pairing keeps one ceiling.

    The scaled step pairing at pixel j is a + slope*j.  Yields (first, end,
    n) in increasing j for the nonempty segments [first, end) of [lo, hi)
    between its crossings of the lines n*scale, with n the ceiling of the
    pairing over scale on the segment.  The crossings are visited in
    pairing order, one floor division each: the quotient q is the last
    pixel on the near side of the line, and on it when the division is
    exact.  A segment that ends at the crossing of n has ceiling n going up
    and n + 1 going down; a pixel on the line itself would be misfiled going
    down, and no pixel center lies on one (raster_runs).  A zero slope
    leaves one segment.
    """
    if lo >= hi:
        return
    near, last = a + slope * lo, a + slope * (hi - 1)
    if slope > 0:
        crossings, above = range(-(-near // scale), last // scale + 1), 0
    elif slope < 0:
        crossings, above = range(near // scale, -(-last // scale) - 1, -1), 1
    else:
        crossings, above = (), 0
    first = lo
    for n in crossings:
        q = (n * scale - a) // slope
        if first <= q:
            yield first, q + 1, n + above
            first = q + 1
    if first < hi:  # the last segment has the ceiling of the last pixel
        yield first, hi, -(-last // scale)


def _staircase_spans(ch: Chart, y0, step, side, scale):
    """The row spans of the staircase region of a chart that holds the extra ray.

    Returns spans(x), the maximal runs of the row at x as a tuple,
    with the same integer scaling as _bounds; the rays, floors, weights and
    step heights are read once per raster, and each height is one integer
    Chart.gamma.  A planar chart steps along one ray k: where ceil(p_k) = n,
    m0 = n - 1 - c_k and membership is p_i0 > h(n) = gamma(m0)[i0] past the
    floors of J, the only one being k's own (p_k > c_k).

    Only a band of each row is walked.  With the block weights over their
    common denominator, (D, w) = setup.scaled_alpha, set
    L = w_i0 p_i0 + w_k p_k - D c_{n+1}.  As h(n) is the ceiling of
    (D c_{n+1} - w_k (n - 1)) / w_i0 and n - 1 < p_k <= n, a pixel with
    L <= 0 is outside the region, a pixel with L >= w_k + w_i0 that clears
    the floors is inside, and every i0-face pixel (p_i0 = h(n)) has
    0 < L < w_k + w_i0.  L is affine along a row, so the undecided pixels
    form one interval [lo, hi), found with two floor divisions; the pixels
    past it on the side where L grows are one run clipped to the floor span
    [start, stop).  Inside the band the row is one walk over the crossings
    of p_k with the integers (_step_segments), with one more floor
    division per segment against its height.  A segment under the floor
    (m0 < 0 with k in J) is skipped; the floor span is a union of whole
    segments, so clipping to it drops nothing else.  Spans are merged as
    they are emitted, so the row comes out maximal.
    """
    su = ch.setup
    rays, c = {j: su.sigma2.b(j) for j in ch.j_prime}, ch.c
    floors = [(rays[j], c[j] * scale) for j in ch.j_prime if j in c]
    (k,) = ch.m_index  # a planar contraction subdivides two rays
    (k0, k1), (h0, h1) = rays[k], rays[ch.i0]
    slope, rise = k1 * step, h1 * step
    offset, held, pos = c.get(k, 0), k in c, ch.j_prime.index(ch.i0)
    denominator, weights = su.scaled_alpha
    wk, wi = weights[k], weights[ch.i0]
    base, top = denominator * c[su.extra_index] * scale, (wk + wi) * scale
    tilt = wi * rise + wk * slope  # the change of the scaled L per pixel
    heights: dict = {}  # n -> the scaled gamma(m0)[i0], None under a floor

    def height(n):
        m0 = n - 1 - offset
        heights[n] = None if held and m0 < 0 else ch.gamma((m0,)).t[pos] * scale
        return heights[n]

    def spans(x) -> tuple:
        start, stop = _bounds(floors, x, y0, step, side)
        a, b = k0 * x + k1 * y0, h0 * x + h1 * y0  # p_k and p_i0 at pixel 0, scaled
        level = wi * b + wk * a - base  # the scaled L at pixel 0
        # the band [lo, hi) where 0 < L < w_k + w_i0; the decided inside
        # pixels are [hi, side) when L grows along the row, else [0, lo)
        if tilt > 0:
            lo, hi = -level // tilt + 1, -((level - top) // tilt)
        elif tilt < 0:
            lo, hi = (level - top) // -tilt + 1, -(-level // -tilt)
        elif level <= 0:
            lo = hi = 0
        else:
            lo, hi = (side, side) if level >= top else (0, side)
        lo = 0 if lo < 0 else side if lo > side else lo
        hi = 0 if hi < 0 else side if hi > side else hi
        out = []
        if tilt <= 0:
            end = lo if lo < stop else stop
            if start < end:
                out.append((start, end))
        for first, end, n in _step_segments(a, slope, scale, lo, hi):
            bound = heights[n] if n in heights else height(n)
            if bound is None:
                continue
            if rise:  # p_i0 meets the bound at j = q + r/rise
                q, r = divmod(bound - b, rise)
                if rise > 0 and q >= first:
                    first = q + 1
                elif rise < 0 and q + (r != 0) < end:
                    end = q + (r != 0)
            elif b <= bound:
                end = first
            # max and min inline, cheaper here than the builtin calls
            first, end = first if first > start else start, end if end < stop else stop
            if first < end:
                if out and out[-1][1] == first:
                    first = out.pop()[0]
                out.append((first, end))
        if tilt > 0:
            first = hi if hi > start else start
            if first < stop:
                if out and out[-1][1] == first:
                    first = out.pop()[0]
                out.append((first, stop))
        return tuple(out)

    return spans


def raster_runs(obj, bbox, step, origin) -> tuple:
    """Row runs of a planar polyhedron or chart, one exact bound per constraint.

    Precondition: no pixel center lies on a line of obj, that is on a
    constraint line of a polyhedron, or on a line <x, b_j> = integer of a
    chart (its floors, step lines and i0 faces).  ``sweeps.raster_origin``
    places the grid so that this holds for every box and step, and the
    raster does not check it again.  Under it, the runs are those of
    ``raster_pixels(obj.contains, bbox, step, origin)``.  The raster is
    scaled once by the common denominator of its first center, its step
    and the thresholds, so every bound is found on integers.  A
    polyhedron row is one span.  A staircase row walks only the band of
    pixels whose membership its step heights decide (_staircase_spans).
    Each row comes out of its spans already maximal; a row equal to the
    row before it is that row's tuple object, so a consumer can tell
    repeated rows by identity (difference_contractible).
    """
    (x0, y0), step, side = _grid(bbox, step, origin)
    if isinstance(obj, Chart) and not obj.stepped:
        obj = obj.outer
    if isinstance(obj, Polyhedron) and obj.dim == 2:
        thresholds = [Fraction(t) for _, t, _ in obj.constraints]
    elif isinstance(obj, Chart) and obj.setup.sigma2.dim == 2:
        thresholds = []  # staircase thresholds and step heights are integers
    else:
        raise InvalidArgument(f"no planar raster for {type(obj).__name__}")
    scale = lcm(*(v.denominator for v in (x0, y0, step, *thresholds)))
    sx, sy, sstep = (int(v * scale) for v in (x0, y0, step))
    if isinstance(obj, Polyhedron):
        constraints = [
            (normal, int(t * scale)) for (normal, _, _), t in zip(obj.constraints, thresholds)
        ]

        def spans(x) -> tuple:
            start, stop = _bounds(constraints, x, sy, sstep, side)
            return ((start, stop),) if start < stop else ()

    else:
        spans = _staircase_spans(obj, sy, sstep, side, scale)
    rows = []
    for i in range(side):
        row = spans(sx + sstep * i)
        rows.append(rows[-1] if rows and rows[-1] == row else row)
    return tuple(rows)


def _row_minus(row, cut):
    """The nonempty pieces of a row's runs outside the cut's runs, in order."""
    for start, stop in row:
        for lo, hi in cut:
            if lo < stop and start < hi:
                if start < lo:
                    yield start, lo
                start = hi
        if start < stop:
            yield start, stop


def difference_contractible(first, second) -> bool:
    """Whether the closed pixels of first minus second have a contractible union.

    Both rasters hold maximal runs on the same grid.  Each row difference
    is walked as _row_minus yields it, and its pieces are already maximal:
    two pieces of one run are split by a nonempty cut run, and pieces of
    two runs by the gap between those maximal runs, so only empty pieces
    are dropped.  Maximal runs are closed rectangles that meet only across
    adjacent rows (corner contact included), and no three share a point,
    so the union is homotopy equivalent to the graph of meeting runs:
    contractible exactly when that graph is a tree: no edge closes a
    cycle, and the edges join the nodes into one component.  An empty
    difference counts as not contractible.

    A row pair that is the very pair below it, the same two objects as
    raster_runs shares them between equal rows, is skipped.  Runs in one
    row are at least one pixel apart, so in a stack of identical
    difference rows each run meets only its own copies above and below:
    the stack adds one vertical path per run, and contracting each path to
    one node keeps the graph a tree or not, and empty or not.  Equal rows
    that are distinct objects are walked, with the same verdict.
    """
    parent: list[int] = []

    def root(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    joins = 0  # each edge merges two components
    below: list = []
    last_row = last_cut = None
    for row, cut in zip(first, second):
        if row is last_row and cut is last_cut:
            continue
        last_row, last_cut = row, cut
        here = []
        for start, stop in _row_minus(row, cut):
            node = len(parent)
            parent.append(node)
            for lo, hi, other in below:
                if lo <= stop and start <= hi:
                    top, bottom = root(node), root(other)
                    if top == bottom:
                        return False  # a cycle of runs: the union has a hole
                    parent[top] = bottom
                    joins += 1
            here.append((start, stop, node))
        below = here
    return len(parent) - joins == 1

