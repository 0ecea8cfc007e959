"""Brute-force coherent-side oracle over truncated character sets.

Everything here recomputes, by finite enumeration, quantities that
thetapos and fm obtain in closed form: hom spaces from actual lattice
point containment, and Euler counts for the contraction-pullback
resolution and its stalk complexes.  The code paths are deliberately
independent of the fast ones so the two sides can be compared in tests.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable
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


def _lane_order(supports, limit: int) -> Callable[[int, int], HomResult]:
    """oracle_order's packing and pair test, on (rays, lows, highs) supports at L = limit.

    Lane strings are formatted once per value seen and joined into one
    int() per support, linear in the lane count.  The guard takes its lane
    count from the first support, which has passed the box cap.
    """
    width = (2 * limit + 1).bit_length() + 1
    spec = f"0{width}b"
    strings = {}  # lane value v -> v + limit in w bits
    packed = []
    for rays, lows, highs in supports:
        values = (*lows, *(-h for h in highs))
        strings.update((v, format(v + limit, spec)) for v in set(values).difference(strings))
        if not packed:
            guard = int(("1" + "0" * (width - 1)) * len(values), 2)
        packed.append((rays, int("".join(map(strings.__getitem__, values)), 2)))

    def contains(i: int, j: int) -> HomResult:
        rays1, packed1 = packed[i]
        rays2, packed2 = packed[j]
        if rays2 <= rays1 and ((packed1 | guard) - packed2) & guard == guard:
            return HOM_INCLUSION
        return HOM_NON_INCLUSION

    return contains


def oracle_order(
    fan: StackyFan, thetas: Iterable[ThetaIndex], bound: Rational
) -> Callable[[int, int], HomResult]:
    """Hom between thetas of the fan by support containment in one box.

    D = refined_denominator(fan), L = floor(bound * D) and the lane width
    are worked out once.  Each theta in turn passes the threshold guard,
    then _refined_scaled reads its line intervals (lows, highs) on
    (1/D)Z^n, refusing a box over _MAX_BOX_POINTS, and they are packed
    into one integer: each lane value v of (*lows, *(-h for h in highs))
    lies in [-L, L+1] and is held as v + L in w = (2L+1).bit_length() + 1
    bits, the first value highest, so each lane's top bit is a zero guard
    bit.  The guard has exactly those bits set.

    Returns contains(i, j), the Hom from thetas[i] to thetas[j]: C[0] when
    the j-th cone is a face of the i-th and each line's i-th interval lies
    in its j-th (lo_j <= lo_i and hi_i <= hi_j), else zero.  Setting every
    guard bit of packed_i and subtracting packed_j gives, in a lane,
    2^(w-1) + (v_i + L) - (v_j + L) with both v + L in [0, 2L+1], so below
    2^(w-1).  That lies in [1, 2^w - 1], so no borrow crosses a lane, and
    the guard bit survives exactly when v_i >= v_j.  Supports never leave
    the call, so every pair it compares shares one box and lane layout.
    """
    denominator = refined_denominator(fan)

    def supports():
        for theta in thetas:
            _check_thresholds(theta, bound)
            yield frozenset(theta.cone.ray_indices), *_refined_scaled(theta, bound, denominator)

    return _lane_order(supports(), bound.numerator * denominator // bound.denominator)


def hom_module_oracle(theta1: ThetaIndex, theta2: ThetaIndex, bound: Rational) -> HomResult:
    """Hom by comparing truncated character modules in the box |x_j| <= bound.

    C[0] exactly when the cone of the second is a face of the first and
    every point of (1/D)Z^n, D = refined_denominator, in the first support
    lies in the second.  Both thetas pass the threshold guard first; a
    non-face pair is then zero without building either support, so a box
    over _MAX_BOX_POINTS refuses only face pairs.  Otherwise the pair is
    compared by a two-theta oracle_order.
    """
    if theta1.fan != theta2.fan:
        raise InvalidArgument("theta indices live in different fans")
    for th in (theta1, theta2):
        _check_thresholds(th, bound)
    if not set(theta2.cone.ray_indices) <= set(theta1.cone.ray_indices):
        return HOM_NON_INCLUSION
    return oracle_order(theta1.fan, (theta1, theta2), bound)(0, 1)


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
