"""The four verification sweeps behind ``ccc check``, on finite windows.

Each sweep checks a closed-form rule against an independent route on
every theta or staircase chart with thresholds in [-window, window], and
returns a frozen report of what it checked and where the routes
disagreed.  The chart enumerator here and ``thetapos.window_thetas`` are
the only enumerators.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .cohoracle import (
    hom_from_supports,
    hom_module_oracle,
    oracle_support,
    refined_denominator,
    scaled_pairings,
    stalk_euler_scaled,
)
from .errors import BoundaryPointError, InvalidArgument
from .exactlin import cone_basis, pair
from .fm import (
    difference_contractible,
    ext_case2,
    ext_case3,
    fm3_region,
    fm_case1,
    fm_case2,
    raster_runs,
)
from .stackyfan import ContractionSetup, SameBaseSetup, StackyFan
from .thetapos import (
    HomResult,
    Polyhedron,
    ThetaIndex,
    check_window,
    hom_constructible,
    leq,
    window_thetas,
)

# grid offset keeping raster pixel centers off every constraint line of the
# bundled setups, including the diagonal ones a half-step grid would hit
RASTER_ORIGIN = (Fraction(1, 64), Fraction(1, 128))


def _chart_cones(setup: ContractionSetup):
    """Each J of ``charts``: the extra ray plus free rays short of all of I'."""
    free = list(range(setup.n))
    for size in range(len(free) + 1):
        for rest in itertools.combinations(free, size):
            J = tuple(sorted(rest + (setup.extra_index,)))
            if not set(setup.i_prime) <= set(J):
                yield J


def charts(setup: ContractionSetup, window: int):
    """All (J, phi) with the extra ray in J, in deterministic order."""
    check_window(window)
    for J in _chart_cones(setup):
        for phi in itertools.product(range(-window, window + 1), repeat=len(J)):
            yield J, phi


def witness_box(fan: StackyFan, window: int) -> Fraction:
    """Box bound meant to hold a witness of every non-inclusion.

    Witnesses of a support non-inclusion between window thetas are sought
    near the corner of the first support: <x, v_i> = t_i / r_i on its rays
    and zero on the unit rows of the cone basis of its primitive rays.  The
    corner's coordinates are bounded by the window times the worst row sum
    of the inverses of those bases; the 2 leaves room past it.
    """
    worst = Fraction(1)
    for cone in fan.all_cones:
        basis = cone_basis(tuple(fan.v(i) for i in cone.ray_indices), fan.dim)
        for row in basis.inverse:
            worst = max(worst, sum(abs(c) for c in row))
    return window * worst + 2


# the most pairs one sweep compares (chart-probe pairs for the sandwich);
# contract_om3's contractibility sweep at window 10 compares 815 409
MAX_PAIRS = 1 << 20


def _theta_count(fan: StackyFan, window: int) -> int:
    """How many thetas ``window_thetas`` enumerates, counted from the cones."""
    return sum((2 * window + 1) ** cone.dim for cone in fan.all_cones)


def _chart_count(setup: ContractionSetup, window: int) -> int:
    """How many charts ``charts`` enumerates, counted from the chart cones."""
    return sum((2 * window + 1) ** len(J) for J in _chart_cones(setup))


def _check_pairs(sweep: str, pairs: int, what: str = "theta pairs") -> None:
    """Refuse a sweep of more than ``MAX_PAIRS`` pairs, counted before anything is built."""
    if pairs > MAX_PAIRS:
        raise InvalidArgument(
            f"{sweep} sweep would test {pairs} {what}, "
            f"over the cap of {MAX_PAIRS}; use a smaller window"
        )


class FFReport(namedtuple("FFReport", "window pairs_checked violations verdict")):
    """Outcome of an exhaustive order-embedding sweep on a threshold window.

    Violations are (theta1, theta2, "forward" or "backward").
    """

    __slots__ = ()

    def __new__(cls, window: int, pairs_checked: int, violations: tuple, verdict: str):
        if verdict not in ("embedding", "violated"):
            raise InvalidArgument(f"bad verdict {verdict!r}")
        if (verdict == "embedding") != (len(violations) == 0):
            raise InvalidArgument("verdict must be embedding exactly when no violations")
        return super().__new__(cls, window, pairs_checked, violations, verdict)


def poset_embedding_report(setup: SameBaseSetup, window: int) -> FFReport:
    """Check both order implications for all theta pairs with |t| <= window.

    forward violation: order held before the transform but not after;
    backward: order appeared only after.  Embedding is expected exactly
    when r >= s componentwise.
    """
    check_window(window, least=1)
    _check_pairs("poset-embedding", _theta_count(setup.fan_s, window) ** 2)
    thetas = window_thetas(setup.fan_s, window)
    images = [fm_case1(setup, th) for th in thetas]
    violations = []
    for a, fa in zip(thetas, images):
        for b, fb in zip(thetas, images):
            src = leq(a, b)
            img = leq(fa, fb)
            if src and not img:
                violations.append((a, b, "forward"))
            elif img and not src:
                violations.append((a, b, "backward"))
    verdict = "embedding" if not violations else "violated"
    return FFReport(window, len(thetas) ** 2, tuple(violations), verdict)


class HomOracleReport(NamedTuple):
    """Disagreements are (theta1, theta2, rule value, oracle value)."""

    window: int
    box: Fraction
    pairs: int
    disagreements: tuple[tuple[ThetaIndex, ThetaIndex, str, str], ...]


def hom_oracle_pair(
    th1: ThetaIndex, th2: ThetaIndex, box: Fraction | None = None
) -> tuple[HomResult, Fraction]:
    """The module oracle's hom for one pair, and its box (default: witness_box)."""
    window = max((abs(t) for th in (th1, th2) for t in th.t), default=0)
    bound = box if box is not None else witness_box(th1.fan, window)
    return hom_module_oracle(th1, th2, bound), bound


def hom_oracle_sweep(
    fan: StackyFan, window: int, box: Fraction | None = None
) -> HomOracleReport:
    """Compare the hom rule with the module oracle on every window theta pair.

    The oracle box defaults to ``witness_box``, large enough that every
    support non-inclusion in the window shows inside it.  Each theta's
    ``oracle_support`` is built once, in window order, so the box guard
    and the lattice-point cap refuse before any pair is compared; each
    pair then compares two prebuilt supports (``hom_from_supports``).
    """
    check_window(window)
    _check_pairs("hom-oracle", _theta_count(fan, window) ** 2)
    thetas = window_thetas(fan, window)
    bound = box if box is not None else witness_box(fan, window)
    denominator = refined_denominator(fan)
    keyed = [(th, oracle_support(th, bound, denominator)) for th in thetas]
    disagreements = []
    for (th1, s1), (th2, s2) in itertools.product(keyed, repeat=2):
        fast = hom_constructible(th1, th2)
        slow = hom_from_supports(s1, s2)
        if fast.value != slow.value:
            disagreements.append((th1, th2, fast.value, slow.value))
    return HomOracleReport(window, bound, len(thetas) ** 2, tuple(disagreements))


class SandwichReport(NamedTuple):
    """Violations are (J, phi, point, kind): inner-escapes, outer-misses or stalk-mismatch."""

    window: int
    charts: int
    points: int
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[Fraction, ...], str], ...]


def sandwich_probes(dim: int, window: int) -> list[tuple[Fraction, ...]]:
    """The probe grid of sandwich_sweep: axis k at a/2^(k+1) + 1/2^(k+4), |a| <= 2*window + 3."""
    span = 2 * window + 3
    axes = [
        [Fraction(a, 2 << k) + Fraction(1, 16 << k) for a in range(-span, span + 1)]
        for k in range(dim)
    ]
    return list(itertools.product(*axes))


def _columns(bound: Polyhedron, column: dict) -> tuple[int, ...]:
    """The sigma1 ray index of each constraint normal of a bound, in order."""
    return tuple(column[normal] for normal, _, _ in bound.constraints)


def sandwich_sweep(setup: ContractionSetup, window: int) -> SandwichReport:
    """Check inner <= region <= outer and the stalk Euler count on a probe grid.

    Probes on a region boundary, where the stalk count is undefined, are
    skipped and not counted in ``points``; a chart on which every probe is
    skipped would pass without a single stalk comparison, so it is refused.
    So is a sweep of more than ``MAX_PAIRS`` chart-probe pairs,
    counted before any grid or chart is built.

    The grid (``sandwich_probes``) is the same for every chart, so each
    probe is paired once per route.  The region route pairs it exactly,
    through ``pair``, with every ray of sigma1: the rays of sigma2, which
    decide region membership, then the extra ray.  Every constraint normal
    of the inner and outer bounds is one of those rays (b_{n+1} is the
    extra normal of both), so each chart maps its bounds' normals to ray
    indices once and both bounds are decided from the same table
    (``Polyhedron.holds``).  The stalk route scales the probe to integers
    (``scaled_pairings``); neither route's table is derived from the other.
    """
    check_window(window)
    dim = setup.sigma1.dim
    # sandwich_probes puts 4 * window + 7 probes on each axis
    work = _chart_count(setup, window) * (4 * window + 7) ** dim
    _check_pairs("sandwich", work, "chart-probe pairs")
    keys = list(charts(setup, window))
    rays = setup.sigma1.rays
    column = {ray.b: j for j, ray in enumerate(rays)}
    probes = [
        (x, tuple(pair(x, ray.b) for ray in rays), scaled_pairings(setup.sigma2, x))
        for x in sandwich_probes(dim, window)
    ]
    violations = []
    points = 0
    for J, phi in keys:
        ch = fm3_region(setup, J, phi)  # every chart holds the extra ray: it is stepped
        inner, outer = ch.inner, ch.outer
        inner_at = None if inner is None else _columns(inner, column)
        outer_at = _columns(outer, column)
        before = points
        for x, paired, (scale, scaled) in probes:
            inside = ch.contains_pairings(paired)
            if inside:
                if not outer.holds(map(paired.__getitem__, outer_at)):
                    violations.append((J, phi, x, "outer-misses"))
            elif inner is not None and inner.holds(map(paired.__getitem__, inner_at)):
                violations.append((J, phi, x, "inner-escapes"))
            try:
                euler = stalk_euler_scaled(ch, scale, scaled)
            except BoundaryPointError:
                continue
            points += 1
            if euler != int(inside):
                violations.append((J, phi, x, "stalk-mismatch"))
        if points == before:
            raise InvalidArgument(
                f"chart J={J} phi={phi}: every probe pairs integrally with a chart ray, "
                "so no stalk count is compared"
            )
    return SandwichReport(window, len(keys), points, tuple(violations))


class ContractibilityReport(NamedTuple):
    """Witnesses are (direction, key1, key2): push keys are thetas, pull keys charts."""

    window: int
    bbox: Fraction
    step: Fraction
    discrepancy: str
    pairs: int
    confirmed: int
    witnesses: tuple[tuple, ...]


def contractibility_sweep(
    setup: ContractionSetup, window: int, bbox: Fraction, step: Fraction
) -> ContractibilityReport:
    """Rasterize every contractible-difference Ext verdict of the valid directions.

    Push runs when sum(alpha) >= 1 and pull when sum(alpha) <= 1.  A pair
    is confirmed when the pixel difference of its two images is contractible.
    """
    if setup.sigma2.dim != 2:
        raise InvalidArgument("contractibility rasters need a two-dimensional setup")
    bbox, step = Fraction(bbox), Fraction(step)
    push, pull = setup.discrepancy in (">=", "="), setup.discrepancy in ("<=", "=")
    check_window(window)
    work = push * _theta_count(setup.sigma2, window) ** 2 + pull * _chart_count(setup, window) ** 2
    _check_pairs("contractibility", work, "key pairs")
    # (witness tag, keys, image of one key, Ext verdict on a key pair)
    directions = []
    if push:
        thetas = window_thetas(setup.sigma2, window)
        directions.append(("push", thetas, lambda th: fm_case2(setup, th)[0], ext_case2))
    if pull:
        keys = list(charts(setup, window))
        directions.append(("pull", keys, lambda key: fm3_region(setup, *key), ext_case3))
    witnesses = []
    pairs = 0
    for tag, keys, image, ext in directions:
        rasters = {
            key: raster_runs(image(key), bbox, step, origin=RASTER_ORIGIN) for key in keys
        }
        for key1, key2 in itertools.product(keys, repeat=2):
            verdict = ext(setup, key1, key2)
            if verdict.value != "Zero" or verdict.reason != "contractible-difference":
                continue
            pairs += 1
            if not difference_contractible(rasters[key1], rasters[key2]):
                witnesses.append((tag, key1, key2))
    return ContractibilityReport(
        window, bbox, step, setup.discrepancy, pairs, pairs - len(witnesses), tuple(witnesses)
    )
