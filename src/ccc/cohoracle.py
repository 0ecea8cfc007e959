"""Brute-force coherent-side oracle over truncated character sets.

Everything here recomputes, by finite enumeration, quantities that
thetapos and fm obtain in closed form: hom spaces from actual lattice
point containment, and Euler counts for the contraction-pullback
resolution and its stalk complexes.  The code paths are deliberately
independent of the fast ones so the two sides can be compared in tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import gt, mul

from .errors import BoundaryPointError, InvalidArgument, WindowTooSmall
from .exactlin import Rational, RationalVector, cone_basis, pair
from .fm import Chart, fm3_region
from .stackyfan import ContractionSetup, StackyFan
from .thetapos import HOM_INCLUSION, HOM_NON_INCLUSION, HomResult, ThetaIndex

# _euler_sum refuses a point whose m window would pass this cap
_MAX_WINDOW = 16
# refined oracle boxes enumerate at most this many lattice points
_MAX_BOX_POINTS = 1 << 18


def refined_denominator(fan: StackyFan) -> int:
    """Common denominator D with every chart lattice inside (1/D)Z^n."""
    return lcm(*(
        abs(cone_basis(tuple(fan.b(i) for i in cone.ray_indices), fan.dim).det)
        for cone in fan.all_cones
    ))


def _check_box(limits, name: str = "oracle box") -> None:
    """Refuse a box |k_j| <= limits[j] of more than _MAX_BOX_POINTS lattice points."""
    count = prod(2 * lim + 1 for lim in limits)
    if count > _MAX_BOX_POINTS:
        raise InvalidArgument(
            f"the {name} holds {count} lattice points, over the limit {_MAX_BOX_POINTS}"
        )


def _refined_scaled(
    theta: ThetaIndex, bound: Rational, denominator: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The refined support in the box as one interval of the last coordinate per line.

    Points are integer k with x = k/D, D the denominator, and |k_j| <= L =
    floor(bound * D).  Returns (lows, highs): for each k' over the leading
    axes, in itertools.product order, the k_last with (k', k_last) in the
    support are exactly lows[i] <= k_last <= highs[i].  An empty line is
    (L+1, -L-1), so that containment of lines is containment of intervals,
    empty or not.  The whole box counts against _MAX_BOX_POINTS.
    """
    fan = theta.fan
    limit = bound.numerator * denominator // bound.denominator
    _check_box([limit] * fan.dim)
    # <x, v_i> >= t_i/r_i over x = k/D is <k, v_i> >= ceil(t_i*D / r_i); v_i
    # is split into its leading coordinates and its last one
    rows = [
        (fan.v(i)[:-1], fan.v(i)[-1], -(-tk * denominator // fan.weight(i)))
        for tk, i in zip(theta.t, theta.cone.ray_indices)
    ]
    lows, highs = [], []
    for head in itertools.product(range(-limit, limit + 1), repeat=fan.dim - 1):
        lo, hi = -limit, limit
        for w, w_last, least in rows:
            # w_last * k_last >= rest
            rest = least - sum(map(mul, head, w))
            if w_last > 0:
                lo = max(lo, -(-rest // w_last))
            elif w_last < 0:
                hi = min(hi, rest // w_last)
            elif rest > 0:
                lo = hi + 1
                break
        if lo > hi:
            lo, hi = limit + 1, -limit - 1
        lows.append(lo)
        highs.append(hi)
    return tuple(lows), tuple(highs)


def module_points(theta: ThetaIndex, bound: Rational) -> frozenset[RationalVector]:
    """All chart-lattice points of the closed support in the box |x_j| <= bound.

    The chart lattice of theta's cone is spanned by the inverse columns of
    the cone basis of its weighted generators.  The enumerated box is the
    one in chart coordinates that covers the character box, so the cap of
    _MAX_BOX_POINTS counts every point enumerated, kept or not (481 on p112
    cone (1, 2) at bound 6, of which 169 land in the box).
    """
    if bound <= 0:
        raise InvalidArgument("box bound must be positive")
    fan = theta.fan
    basis = cone_basis(tuple(fan.b(i) for i in theta.cone.ray_indices), fan.dim)
    columns = list(zip(*basis.inverse))  # x = sum m_i * column_i
    limits = [int(bound * sum(abs(c) for c in row)) for row in basis.rows]
    thresholds = [
        (fan.v(i), Fraction(tk, fan.weight(i)))
        for tk, i in zip(theta.t, theta.cone.ray_indices)
    ]
    points = set()
    _check_box(limits, "chart-coordinate box")
    for m in itertools.product(*[range(-lim, lim + 1) for lim in limits]):
        x = tuple(sum(mi * col[j] for mi, col in zip(m, columns)) for j in range(fan.dim))
        if any(abs(c) > bound for c in x):
            continue
        if all(pair(x, v) >= rhs for v, rhs in thresholds):
            points.add(x)
    return frozenset(points)


def _check_thresholds(theta: ThetaIndex, bound: Rational) -> None:
    """Refuse a bound that is not positive or too small for theta's thresholds.

    The bound must strictly dominate every threshold by more than one unit.
    The guard runs on the integers of the bound and the weights: bound
    p/q <= |t/r| + 1 exactly when p*r <= (|t| + r)*q.
    """
    p, q = bound.numerator, bound.denominator
    if p <= 0:
        raise InvalidArgument("box bound must be positive")
    for tk, i in zip(theta.t, theta.cone.ray_indices):
        r = theta.fan.weight(i)
        if p * r <= (abs(tk) + r) * q:
            raise InvalidArgument("box too small for these thresholds")


# a theta's oracle support: the ray set of its cone, and the packed lanes
# of its refined intervals with their guard mask (_pack_lanes)
OracleSupport = tuple[frozenset[int], int, int]


def _pack_lanes(lows, highs, limit: int) -> tuple[int, int]:
    """(packed, guard): the intervals of one support as guarded lanes of one integer.

    Every lane value v of (*lows, *(-h for h in highs)) lies in [-L, L+1],
    L = limit, the empty line (L+1, -L-1) included.  packed holds v + L in
    a lane of w = (2L+1).bit_length() + 1 bits per value, the first value
    in the highest lane, so the top bit of each lane is a zero guard bit;
    guard has exactly those top bits set.
    """
    width = (2 * limit + 1).bit_length() + 1
    packed = 0
    for v in lows:
        packed = packed << width | v + limit
    for h in highs:
        packed = packed << width | limit - h
    # the top bit of each of the 2 * len(lows) lanes: a repunit in base 2^w
    ones = ((1 << width * 2 * len(lows)) - 1) // ((1 << width) - 1)
    return packed, ones << width - 1


def oracle_support(theta: ThetaIndex, bound: Rational, denominator: int) -> OracleSupport:
    """One theta's side of the module oracle: (rays, packed, guard).

    Runs the threshold guard, then reads the per-line intervals (lows,
    highs) from _refined_scaled on (1/denominator)Z^n, which refuses a box
    over _MAX_BOX_POINTS, and packs them into one guarded integer with
    _pack_lanes at L = floor(bound * denominator).  A sweep builds this
    once per theta and compares pairs with hom_from_supports.
    """
    _check_thresholds(theta, bound)
    limit = bound.numerator * denominator // bound.denominator
    packed, guard = _pack_lanes(*_refined_scaled(theta, bound, denominator), limit)
    return frozenset(theta.cone.ray_indices), packed, guard


def hom_from_supports(support1: OracleSupport, support2: OracleSupport) -> HomResult:
    """Hom from two oracle supports: the face test, then interval containment.

    C[0] when the second cone is a face of the first and, on every line,
    the first support's interval lies in the second's (lo2 <= lo1 and
    hi1 <= hi2); otherwise zero.  Both are one test on the lanes of
    _pack_lanes: setting every guard bit of packed1 and subtracting
    packed2 gives, in a lane of w bits, 2^(w-1) + (v1 + L) - (v2 + L),
    where both v + L lie in [0, 2L+1] and so below 2^(w-1).  That lies in
    [1, 2^w - 1], so no borrow crosses a lane, and the lane's guard bit
    survives exactly when v1 >= v2: lo1 >= lo2 on a lows lane, and
    -hi1 >= -hi2 on a highs lane.  Two supports of different lane layouts
    (unequal guards: another line count or lane width) are refused rather
    than compared.  Equal guards do not prove one bound: on a 1-D fan, two
    bounds whose 2L+1 have one bit length share a guard, so both supports
    must come from one bound and denominator, as in every caller.
    """
    rays1, packed1, guard = support1
    rays2, packed2, guard2 = support2
    if guard != guard2:
        raise InvalidArgument("the two oracle supports have different lane layouts")
    if rays2 <= rays1 and ((packed1 | guard) - packed2) & guard == guard:
        return HOM_INCLUSION
    return HOM_NON_INCLUSION


def hom_module_oracle(theta1: ThetaIndex, theta2: ThetaIndex, bound: Rational) -> HomResult:
    """Hom by comparing truncated character modules in the box |x_j| <= bound.

    C[0] exactly when the cone of the second is a face of the first and
    every point of (1/D)Z^n, D = refined_denominator, in the first support
    lies in the second.  Both thetas pass the threshold guard first; a
    non-face pair is then zero without building either support, so a box
    over _MAX_BOX_POINTS refuses only face pairs.  Otherwise both
    oracle_supports are built and compared by hom_from_supports.
    """
    if theta1.fan != theta2.fan:
        raise InvalidArgument("theta indices live in different fans")
    for th in (theta1, theta2):
        _check_thresholds(th, bound)
    if not set(theta2.cone.ray_indices) <= set(theta1.cone.ray_indices):
        return HOM_NON_INCLUSION
    denominator = refined_denominator(theta1.fan)
    return hom_from_supports(
        oracle_support(theta1, bound, denominator), oracle_support(theta2, bound, denominator)
    )


# ---------------------------------------------------------------------------
# Koszul resolution and stalk Euler counts for the contraction pullback


@lru_cache(maxsize=1 << 10)
def _euler_terms(ch: Chart, scale: int, w: int):
    """The terms of _euler_sum that do not depend on the point, built once.

    Returns (floors, subsets) for the chart at this scale and m window w:
    floors[k] is scale * gamma(m).t on J' for the k-th m of the window, in
    itertools.product order over m_index (0..w inside J, -w..w outside),
    and subsets holds (bumps, (-1)^|S|) per subset S of m_index, with
    bumps[j] = scale * [j in S] on J'.
    """
    shifts = ch.m_index
    ranges = [range(0, w + 1) if i in ch.c else range(-w, w + 1) for i in shifts]
    floors = tuple(
        tuple(scale * tk for tk in ch.gamma(m).t) for m in itertools.product(*ranges)
    )
    subsets = tuple(
        (tuple(scale * (j in s_set) for j in ch.j_prime), (-1) ** size)
        for size in range(len(shifts) + 1)
        for s_set in itertools.combinations(shifts, size)
    )
    return floors, subsets


def _euler_sum(ch: Chart, pairings, scale: int) -> int:
    """Alternating count over m and subsets S of m_index, over the point's m window.

    pairings[j] is scale times the pairing of the point with ray j of J',
    an integer, so every test below is on integers.  The (m, S) term is
    (-1)^|S| when pairings[j] > scale * (gamma(m)_j + [j in S]) for every
    j of J'.  Any term surviving the alternating sum pins every m
    coordinate to one rung determined by the pairings, so with
    P_i = pairings[i] / scale a window w holds every such term once
    w >= ceil(P_i) - c_i - 1 on each axis i inside J, and w >= ceil(P_i) - 1
    and w >= -floor(P_i) on each axis outside J.  The least such w >= 1 is
    rounded up to a power of two, so that each chart keeps few tables, and
    a w past _MAX_WINDOW is refused.
    The scaled floors and subset bumps of each window come from
    _euler_terms, once per chart, scale and window.
    """
    need = 1
    for i in ch.m_index:
        # ceil(P_i) - 1 and -floor(P_i)
        top, bottom = -(-pairings[i] // scale) - 1, -(pairings[i] // scale)
        need = max(need, top - ch.c[i]) if i in ch.c else max(need, top, bottom)
    if need > _MAX_WINDOW:
        raise WindowTooSmall(f"the point needs an m window of {need}, over the cap {_MAX_WINDOW}")
    floors, subsets = _euler_terms(ch, scale, min(1 << (need - 1).bit_length(), _MAX_WINDOW))
    values = [pairings[j] for j in ch.j_prime]
    total = 0
    for f in floors:
        if not all(map(gt, values, f)):
            continue  # bumps only raise the floors, so no term of this m survives
        for bumps, sign in subsets:
            if all(v > a + b for v, a, b in zip(values, f, bumps)):
                total += sign
    return total


def _probe_chart(setup: ContractionSetup, theta: ThetaIndex, probe, unstepped: str):
    """(chart, probe as ints) for a Q2 route; unstepped is the route's refusal."""
    ch = fm3_region(setup, theta)
    if not ch.stepped:
        raise InvalidArgument(unstepped)
    probe = tuple(int(x) for x in probe)
    if len(probe) != setup.n:
        raise InvalidArgument("probe must be a character of the contracted chart")
    return ch, probe


def koszul_euler(setup: ContractionSetup, theta: ThetaIndex, probe) -> int:
    """Alternating character count of the pullback resolution at one probe.

    Terms are the shifted modules f_{gamma(m) + sum_S b*} B2 over subsets
    S of I' - {i0}; the probe is an integer character of the contracted
    chart.  The sum telescopes to the Q2-membership indicator, so the
    return value is always 0 or 1.  For integers q >= t exactly when
    q + 1/2 > t, so this is the stalk count at the pairings q_j + 1/2,
    passed to _euler_sum at scale 2 as the integers 2 q_j + 1.
    """
    ch, probe = _probe_chart(setup, theta, probe, "the resolution needs the extra ray in J")
    return _euler_sum(ch, {j: 2 * probe[j] + 1 for j in ch.j_prime}, 2)


def scaled_pairings(fan: StackyFan, p) -> tuple[int, tuple[int, ...]]:
    """A rational point as (scale, pairings) for the stalk count.

    scale is the lcm of the denominators of p, and pairings[j] is scale
    times the pairing of p with the weighted generator of ray j of the fan,
    paired on the integer numerators of the scaled point.
    """
    p = tuple(Fraction(c) for c in p)
    if len(p) != fan.dim:
        raise InvalidArgument("point has the wrong dimension")
    scale = lcm(*(c.denominator for c in p))
    scaled = [c.numerator * (scale // c.denominator) for c in p]
    return scale, tuple(sum(map(mul, scaled, ray.b)) for ray in fan.rays)


def stalk_euler_scaled(ch: Chart, scale: int, pairings) -> int:
    """Euler count of the stalk complex at a point given as scaled_pairings of sigma2.

    Same alternating sum as koszul_euler but with open support membership
    of the point in place of character dominance; equals the chart's
    region indicator at the point.  The pairings come from the point's
    integer numerators (scaled_pairings), so the count never goes through
    the region's own pairing.  The point is on a chart face or a step
    exactly when a scaled pairing on J' is a multiple of the scale; there
    the count is undefined.
    """
    if not ch.stepped:
        raise InvalidArgument("stalk complexes need the extra ray in J")
    if any(pairings[j] % scale == 0 for j in ch.j_prime):
        raise BoundaryPointError("point pairs integrally with a chart ray")
    return _euler_sum(ch, pairings, scale)


def q2_member(setup: ContractionSetup, theta: ThetaIndex, probe) -> bool:
    """Exact Q2 membership of an integer character, via the pinned gamma.

    The resolution pins the only gamma(m) that can contain the probe: its
    coordinates on I' - {i0} must match the probe exactly.
    """
    ch, probe = _probe_chart(setup, theta, probe, "Q2 membership needs the extra ray in J")
    if any(probe[i] < ch.c[i] for i in ch.m_index if i in ch.c):
        return False
    g = ch.gamma(tuple(probe[i] - ch.c.get(i, 0) for i in ch.m_index))
    return all(probe[j] >= tk for j, tk in zip(ch.j_prime, g.t))


def q2_member_enum(setup: ContractionSetup, theta: ThetaIndex, probe) -> bool:
    """Q2 membership by unioning over an m window wide enough for the probe.

    Independent of q2_member: enumerates characters gamma(m) and asks for
    coordinatewise dominance with equality off i0, growing the window from
    the probe size so the search is provably exhaustive.
    """
    ch, probe = _probe_chart(setup, theta, probe, "Q2 membership needs the extra ray in J")
    span = 1
    for i in ch.m_index:
        span = max(span, abs(probe[i]) + abs(ch.c.get(i, 0)) + 1)
    ranges = [range(0, span + 1) if i in ch.c else range(-span, span + 1) for i in ch.m_index]
    pinned = set(ch.m_index)
    for m in itertools.product(*ranges):
        t = ch.gamma(m).t
        if all(
            probe[j] == tk if j in pinned else probe[j] >= tk
            for j, tk in zip(ch.j_prime, t)
        ):
            return True
    return False
