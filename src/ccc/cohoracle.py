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
from math import lcm, prod
from operator import mul

from .errors import InvalidArgument, WindowTooSmall
from .exactlin import Rational, RationalVector, cone_basis, pair
from .fm import Chart, fm3_region
from .stackyfan import ContractionSetup, StackyFan
from .thetapos import HOM_INCLUSION, HOM_NON_INCLUSION, HomResult, ThetaIndex

# stalk_euler refuses a point whose m window would pass this cap; a batch
# of points is summed over one window, the least that covers every point
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


def _euler_terms(ch: Chart, scale: int, w: int):
    """The terms of stalk_euler that do not depend on the points.

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


def stalk_euler(ch: Chart, scale: int, points) -> list[int | None]:
    """Euler counts of the chart's stalk complexes at many points of one scale.

    points[k][j] is scale times the pairing of the k-th point with ray j of
    sigma2 (``scaled_pairings``), an integer, for at least every j of J',
    so every test below is on integers.  A point with a pairing on J' that
    is a multiple of the scale lies on a chart face or a step, where the
    count is undefined: its entry is None.  Every other point, a live one,
    gets the alternating count over the (m, S) terms of ``_euler_terms``,
    m in an m window and S a subset of m_index: with v_j = points[k][j],
    f = scale * gamma(m) and b_j = scale * [j in S], the term adds
    (-1)^|S| when v_j > f_j + b_j on every j of J'.  The count equals the
    chart's region indicator at the point, and never goes through the
    region's own pairing.

    One window gives every live point its own count.  For a fixed m the
    bumps raise only floors on m_index, and v_k > f_k + scale implies
    v_k > f_k, so the S-sum factors as
    [v > f(m)] * prod_k (1 - [v_k > f_k(m) + scale]) over k in m_index.
    As f_k(m) = scale * (c_k + m_k), with c_k = 0 off J, each factor
    vanishes unless m_k = ceil(P_k) - 1 - c_k, P_k = v_k / scale: only the
    point's rung contributes, so every window holding that rung gives the
    same count, 0 or 1.  Off a face ceil(P_k) - 1 = floor(P_k), so the rung
    lies in window w once w >= floor(P_k) - c_k on each axis inside J (a
    rung below 0 there is in no window and counts 0) and
    w >= |floor(P_k)| on each axis outside J; the least such w >= 1 is the
    point's need.  The first live point, in order, that needs a window past
    _MAX_WINDOW is refused with WindowTooSmall.  Otherwise the window
    summed is the greatest live need.

    Each term is tested on every point at once, one lane of `width` bits
    per point, the first point highest; a face point's lane is computed
    and not read.  On ray j, with lo and hi the least and greatest v_j, a
    lane holds v_j - lo below its guard bit 2^g, g = (hi - lo).bit_length()
    on the widest ray, so v_j - lo < 2^g.  A floor F = f_j + b_j is read as
    q = F + 1 - lo clamped to [0, hi - lo + 1], which changes no test as
    every v_j lies in [lo, hi], and q <= 2^g.  Setting every guard bit and
    subtracting q from every lane leaves 2^g + (v_j - lo) - q in the lane,
    in [0, 2^(g+1) - 1], so no borrow crosses a lane and the guard bit
    survives exactly when v_j > F.  The guard bits left on every ray of J'
    mark the lanes the term survives at.  Shifted down to the foot of each
    lane, they are added to one tally with the term's sign.  The tally
    starts each lane at 2^(width-1), and a lane moves by at most
    T = len(floors) * len(subsets) either way; width exceeds both g and
    T.bit_length(), so T < 2^(width-1), every lane stays in
    [1, 2^width - 1] and no tally carries or borrows out of its lane.  A
    floor that no lane clears is skipped with its subsets, which only
    raise it.
    """
    if not ch.stepped:
        raise InvalidArgument("stalk complexes need the extra ray in J")
    columns = [[p[j] for p in points] for j in ch.j_prime]
    # a product of residues is zero exactly on a chart face
    residues = [1] * len(points)
    for col in columns:
        residues = [r * (v % scale) for r, v in zip(residues, col)]
    needs = [1] * len(points)
    for i in ch.m_index:
        col = columns[ch.j_prime.index(i)]
        if i in ch.c:
            axis = [v // scale - ch.c[i] for v in col]
        else:
            axis = [abs(v // scale) for v in col]
        needs = list(map(max, needs, axis))
    needs = [own for own, r in zip(needs, residues) if r]
    if not needs:
        return [None] * len(points)
    need = max(needs)
    if need > _MAX_WINDOW:
        need = next(own for own in needs if own > _MAX_WINDOW)
        raise WindowTooSmall(f"the point needs an m window of {need}, over the cap {_MAX_WINDOW}")
    floors, subsets = _euler_terms(ch, scale, need)
    lows = [min(col) for col in columns]
    # the clamp's top, hi - lo + 1, on each ray
    tops = [max(col) - lo + 1 for col, lo in zip(columns, lows)]
    g = (max(tops) - 1).bit_length()
    width = max(g, (len(floors) * len(subsets)).bit_length()) + 1
    spec = f"0{width}b"
    ones = int(("0" * (width - 1) + "1") * len(points), 2)
    guard = ones << g
    rays = []
    for col, lo, top in zip(columns, lows, tops):
        strings = {v: format(v - lo, spec) for v in set(col)}
        rays.append((int("".join(map(strings.__getitem__, col)), 2) | guard, lo, top))

    def survivors(floor, bumps):
        mask = guard
        for (high, lo, top), f, b in zip(rays, floor, bumps):
            mask &= high - min(max(f + b + 1 - lo, 0), top) * ones
            if not mask:
                break
        return mask >> g

    bias = 1 << (width - 1)
    tally = bias * ones
    zero = subsets[0][0]  # the bumps of the empty S, which comes first
    for f in floors:
        if not survivors(f, zero):
            continue  # bumps only raise the floors, so no term of this m survives
        for bumps, sign in subsets:
            tally += sign * survivors(f, bumps)
    tally = format(tally, f"0{len(points) * width}b")
    return [
        int(tally[start:start + width], 2) - bias if r else None
        for start, r in zip(range(0, len(tally), width), residues)
    ]


def _probe_chart(setup: ContractionSetup, theta: ThetaIndex, probe, unstepped: str):
    """(chart, probe as ints) for a Q2 route; unstepped is the route's refusal."""
    ch = fm3_region(setup, theta)
    if not ch.stepped:
        raise InvalidArgument(unstepped)
    if any(int(x) != x for x in probe):
        raise InvalidArgument("probe must be an integer character")
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
    passed to stalk_euler as one point of scale 2, the integers 2 q_j + 1;
    none of them is even, so the point is never on a chart face.
    """
    ch, probe = _probe_chart(setup, theta, probe, "the resolution needs the extra ray in J")
    return stalk_euler(ch, 2, [{j: 2 * probe[j] + 1 for j in ch.j_prime}])[0]


def scaled_pairings(fan: StackyFan, points) -> tuple[int, list[tuple[int, ...]]]:
    """Rational points as (scale, pairings) for stalk_euler, at one common scale.

    scale is the lcm of the denominators of every coordinate of every
    point, and pairings[k][j] is scale times the pairing of the k-th point
    with the weighted generator of ray j of the fan, paired on the integer
    numerators of the scaled point.
    """
    points = [tuple(Fraction(c) for c in p) for p in points]
    if any(len(p) != fan.dim for p in points):
        raise InvalidArgument("point has the wrong dimension")
    scale = lcm(*(c.denominator for p in points for c in p))
    rays = [ray.b for ray in fan.rays]
    pairings = []
    for p in points:
        scaled = [c.numerator * (scale // c.denominator) for c in p]
        pairings.append(tuple(sum(map(mul, scaled, b)) for b in rays))
    return scale, pairings


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
