"""Brute-force module enumeration against the closed-form routines."""

import copy
import functools
import itertools
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc import cohoracle, sweeps
from ccc.cohoracle import (
    _lane_order,
    _refined_scaled,
    hom_module_oracle,
    koszul_euler,
    module_points,
    oracle_order,
    q2_member,
    q2_member_enum,
    refined_denominator,
    scaled_pairings,
    stalk_euler,
)
from ccc.errors import InvalidArgument, WindowTooSmall
from ccc.exactlin import pair
from ccc.fm import chart_theta, fm3_region
from ccc.stackyfan import (
    Cone,
    WeightedRay,
    build_contraction,
    build_same_base,
    parse_contraction,
    parse_same_base,
    parse_stacky_fan,
)
from ccc.sweeps import charts, hom_oracle_sweep, sandwich_probes, sandwich_sweep, witness_box
from ccc.thetapos import (
    HomResult,
    Polyhedron,
    ThetaIndex,
    hom_constructible,
    leq,
    window_thetas,
)

from conftest import load_data, planar_contractions


def theta(fan, cone, t):
    return ThetaIndex(fan=fan, cone=Cone(tuple(cone)), t=tuple(t))


def refined_points(th, bound, denominator):
    """The refined support on (1/denominator)Z^n, expanded from _refined_scaled's intervals."""
    limit = math.floor(bound * denominator)
    heads = itertools.product(range(-limit, limit + 1), repeat=th.fan.dim - 1)
    return frozenset(
        tuple(Fraction(kj, denominator) for kj in head + (k,))
        for head, lo, hi in zip(heads, *_refined_scaled(th, bound, denominator))
        for k in range(lo, hi + 1)
    )


# (refined_denominator, witness_box at window 3) of every bundled fan
CHART_BOUNDS = {
    ("p1.json", None): (1, 5),
    ("p13.json", None): (3, 5),
    ("p112.json", None): (2, 11),
    ("a1_resolution.json", None): (2, 11),
    ("contract_crepant_a1.json", "sigma1"): (2, 11),
    ("contract_crepant_a1.json", "sigma2"): (2, 5),
    ("contract_discrepancy.json", "sigma1"): (2, 8),
    ("contract_discrepancy.json", "sigma2"): (2, 5),
    ("contract_om2.json", "sigma1"): (2, 11),
    ("contract_om2.json", "sigma2"): (2, 5),
    ("contract_om3.json", "sigma1"): (3, 14),
    ("contract_om3.json", "sigma2"): (3, 5),
    ("samebase_p12_p13.json", "fan_r"): (3, 5),
    ("samebase_p12_p13.json", "fan_s"): (2, 5),
    ("samebase_p12_p13.json", "fan_t"): (6, 5),
    ("samebase_rev.json", "fan_r"): (2, 5),
    ("samebase_rev.json", "fan_s"): (3, 5),
    ("samebase_rev.json", "fan_t"): (6, 5),
}


def test_refined_denominator(p1, p13, p112, a1_resolution):
    assert refined_denominator(p1) == 1
    assert refined_denominator(p13) == 3
    # the ray (-1,-2) completes to determinant 2 in both surface fans
    assert refined_denominator(p112) == 2
    assert refined_denominator(a1_resolution) == 2
    parsers = {"contract": parse_contraction, "samebase": parse_same_base}
    for (name, attr), expected in CHART_BOUNDS.items():
        doc = load_data(name)
        parse = parsers.get(name.split("_")[0], parse_stacky_fan)
        fan = parse(doc) if attr is None else getattr(parse(doc), attr)
        assert (refined_denominator(fan), witness_box(fan, 3)) == expected, (name, attr)
    # the 3-D contraction: rays e1, e2, e3 of weights 2, 2, 1, extra ray (1,1,0)
    rays = [WeightedRay((1, 0, 0), 2), WeightedRay((0, 1, 0), 2), WeightedRay((0, 0, 1), 1)]
    blowup = build_contraction(rays, WeightedRay((1, 1, 0), 1))
    assert (refined_denominator(blowup.sigma1), witness_box(blowup.sigma1, 3)) == (2, 8)
    assert (refined_denominator(blowup.sigma2), witness_box(blowup.sigma2, 3)) == (4, 5)


def test_witness_box_holds_every_witness_on_generated_fans():
    """At window 1 the oracle at its default box agrees with the rule on both fans.

    witness_box is a bound no proof covers, so it is checked on sigma1 and
    sigma2 of generated contractions.  A sweep that the 2^18-point cap
    refuses is counted, and its message is checked against the box it was
    given.  About half the sweeps get past the cap; at least a fifth must.
    """
    outcomes = Counter()

    @given(setup=planar_contractions())
    @settings(max_examples=100, deadline=None, database=None)
    def check(setup):
        for fan in (setup.sigma1, setup.sigma2):
            try:
                report = hom_oracle_sweep(fan, 1)
            except InvalidArgument as exc:
                points = (2 * math.floor(witness_box(fan, 1) * refined_denominator(fan)) + 1) ** 2
                assert str(exc) == (
                    f"the oracle box holds {points} lattice points, over the limit {1 << 18}"
                )
                outcomes["refused"] += 1
                continue
            assert report.disagreements == (), report.disagreements
            outcomes["agreed"] += 1

    check()
    assert 5 * outcomes["agreed"] >= outcomes.total(), outcomes


def test_module_points_weighted_ray(p13):
    pts = module_points(theta(p13, (0,), (1,)), 2)
    assert pts == {
        (Fraction(1, 3),),
        (Fraction(2, 3),),
        (Fraction(1),),
        (Fraction(4, 3),),
        (Fraction(5, 3),),
        (Fraction(2),),
    }
    assert (Fraction(1, 3),) in pts
    assert len(pts) == 6


def test_module_points_zero_cone(p13):
    pts = module_points(theta(p13, (), ()), 2)
    assert pts == {(Fraction(k),) for k in range(-2, 3)}


def test_module_points_outside_box_is_empty(p13):
    pts = module_points(theta(p13, (0,), (7,)), 2)
    assert len(pts) == 0


def test_module_points_refined_lattice(p13):
    assert refined_denominator(p13) == 3
    ref = refined_points(theta(p13, (0,), (1,)), 2, 3)
    nat = module_points(theta(p13, (0,), (1,)), 2)
    assert ref == nat
    finer = refined_points(theta(p13, (0,), (1,)), 2, 6)
    assert len(finer) == 11  # sixths from 2/6 up to 12/6


def test_module_points_natural_box_limit(p13):
    # the zero cone's lattice is Z, so the bound 2^17 gives 2^18 + 1 points
    with pytest.raises(InvalidArgument, match="262145 lattice points"):
        module_points(theta(p13, (), ()), 1 << 17)


def test_module_points_rejects_bad_input(p13):
    for bound in (0, -2):
        with pytest.raises(InvalidArgument, match="^box bound must be positive$"):
            module_points(theta(p13, (0,), (1,)), bound)


def test_natural_points_land_in_refined_lattice(p112):
    for cone in p112.all_cones:
        th = theta(p112, cone.ray_indices, (1,) * cone.dim)
        nat = module_points(th, 3)
        ref = refined_points(th, 3, refined_denominator(p112))
        assert nat <= ref


def test_module_points_monotone_under_leq(p13, p112):
    for fan in (p13, p112):
        thetas = window_thetas(fan, 2)
        sets = {th: refined_points(th, 4, refined_denominator(fan)) for th in thetas}
        for th1, th2 in itertools.product(thetas, repeat=2):
            if leq(th1, th2):
                assert sets[th1] <= sets[th2]


@pytest.mark.parametrize("fixture", ["p1", "p13", "p112", "a1_resolution"])
def test_hom_oracle_matches_constructible(fixture, request):
    fan = request.getfixturevalue(fixture)
    thetas = window_thetas(fan, 2)
    # the sweep's route: one call for the box, then one test per pair by index
    contains = oracle_order(fan, thetas, 6)
    for (i, th1), (j, th2) in itertools.product(enumerate(thetas), repeat=2):
        direct = hom_module_oracle(th1, th2, 6)
        assert direct == hom_constructible(th1, th2)
        assert contains(i, j) == direct


def test_hom_oracle_non_face_pair_skips_the_box_cap(p13):
    # cone 1 is no face of cone 0: the pair is zero before either support
    # is built, so a box over the lattice-point cap refuses only face pairs
    box = 100000
    th1, th2 = theta(p13, (0,), (0,)), theta(p13, (1,), (0,))
    assert hom_module_oracle(th1, th2, box) == HomResult(value="Zero", reason="non-inclusion")
    refusal = "^the oracle box holds 600001 lattice points, over the limit 262144$"
    with pytest.raises(InvalidArgument, match=refusal):
        hom_module_oracle(th1, th1, box)
    with pytest.raises(InvalidArgument, match=refusal):
        oracle_order(p13, [th2], box)


def test_hom_oracle_box_guard(p13):
    th1 = theta(p13, (1,), (3,))
    th2 = theta(p13, (1,), (0,))
    with pytest.raises(InvalidArgument):
        hom_module_oracle(th1, th2, 4)
    assert hom_module_oracle(th1, th2, Fraction(9, 2)).value == "C0"


def test_hom_oracle_box_guard_on_weighted_ray(p13):
    # ray 0 of p13 has weight 3: |t| = 4 needs a bound above 4/3 + 1 = 7/3
    high, low, deep = (theta(p13, (0,), (t,)) for t in (4, -2, -4))
    for pair in ((high, low), (low, high), (deep, low), (low, deep)):
        with pytest.raises(InvalidArgument, match="^box too small for these thresholds$"):
            hom_module_oracle(*pair, Fraction(7, 3))
    box = Fraction(7, 3) + Fraction(1, 30)
    assert hom_module_oracle(high, low, box).value == "C0"
    assert hom_module_oracle(low, high, box).value == "Zero"
    assert hom_module_oracle(low, deep, box).value == "C0"


def test_hom_oracle_rejects_mixed_fans(p1, p13):
    with pytest.raises(InvalidArgument):
        hom_module_oracle(theta(p1, (0,), (0,)), theta(p13, (0,), (0,)), 3)


ORACLE_FANS = ("p1.json", "p13.json", "p112.json", "a1_resolution.json")


@pytest.mark.parametrize("window", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ORACLE_FANS)
def test_the_derived_box_passes_the_threshold_guard(name, window):
    # witness_box >= |t| + 2 > |t|/r + 1, so no box the sweeps derive is too small
    fan = parse_stacky_fan(load_data(name))
    box = witness_box(fan, window)
    for th in window_thetas(fan, window):
        cohoracle._check_thresholds(th, box)


@pytest.mark.parametrize("name, window", [
    ("p1.json", 3), ("p13.json", 3), ("p112.json", 2), ("a1_resolution.json", 2),
])
def test_twice_the_derived_box_gives_the_same_verdicts(name, window):
    # a larger box shows more of each support, so it could expose a
    # non-inclusion the derived box misses: none appears
    fan = parse_stacky_fan(load_data(name))
    thetas = window_thetas(fan, window)
    box = witness_box(fan, window)
    derived, doubled = oracle_order(fan, thetas, box), oracle_order(fan, thetas, 2 * box)
    for i, j in itertools.product(range(len(thetas)), repeat=2):
        assert derived(i, j) == doubled(i, j), (thetas[i], thetas[j])


@functools.lru_cache(maxsize=None)
def _window3_thetas(name, weights):
    fan = parse_stacky_fan(load_data(name))
    return window_thetas(build_same_base(fan, weights, weights).fan_r, 3)


def _filtered_points(th, bound, denominator):
    """The refined support by testing every box point, on integers scaled by the denominator."""
    fan = th.fan
    rows = [
        (fan.v(i), fan.weight(i), tk * denominator) for tk, i in zip(th.t, th.cone.ray_indices)
    ]
    limit = math.floor(bound * denominator)
    return frozenset(
        tuple(Fraction(kj, denominator) for kj in k)
        for k in itertools.product(range(-limit, limit + 1), repeat=fan.dim)
        if all(r * sum(a * b for a, b in zip(k, w)) >= rhs for w, r, rhs in rows)
    )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_refined_intervals_match_point_filter(data):
    name = data.draw(st.sampled_from(ORACLE_FANS))
    # reweighted, so that the ceilings of the rows differ from floors
    rays = len(load_data(name)["rays"])
    thetas = _window3_thetas(name, data.draw(st.tuples(*[st.integers(1, 3)] * rays)))
    th1, th2 = data.draw(st.tuples(st.sampled_from(thetas), st.sampled_from(thetas)))
    fan = th1.fan
    q = data.draw(st.integers(1, 3))
    bound = Fraction(data.draw(st.integers(1, 7 * q)), q)
    denominator = data.draw(st.integers(1, 4))
    last = math.floor(bound * denominator)
    for th in (th1, th2):
        # every line is a sub-interval of [-L, L] or exactly the empty (L+1, -L-1)
        for lo, hi in zip(*_refined_scaled(th, bound, denominator)):
            assert -last <= lo <= hi <= last or (lo, hi) == (last + 1, -last - 1)
    ref1, ref2 = (_filtered_points(th, bound, denominator) for th in (th1, th2))
    assert refined_points(th1, bound, denominator) == ref1
    assert refined_points(th2, bound, denominator) == ref2
    too_small = any(
        bound <= abs(Fraction(tk, fan.weight(i))) + 1
        for th in (th1, th2)
        for tk, i in zip(th.t, th.cone.ray_indices)
    )
    if too_small:
        with pytest.raises(InvalidArgument, match="box too small for these thresholds"):
            hom_module_oracle(th1, th2, bound)
        return
    # the oracle's pair test, on the drawn lattice rather than the fan's
    supports = [
        (frozenset(th.cone.ray_indices), *_refined_scaled(th, bound, denominator))
        for th in (th1, th2)
    ]
    face = set(th2.cone.ray_indices) <= set(th1.cone.ray_indices)
    expected = "C0" if face and ref1 <= ref2 else "Zero"
    assert _lane_order(supports, last)(0, 1).value == expected


@st.composite
def _lines(draw, limit, count):
    """count intervals of [-limit, limit], the empty (L+1, -L-1) among them, ends at the edges."""
    end = st.one_of(st.sampled_from([-limit, limit]), st.integers(-limit, limit))
    empty = (limit + 1, -limit - 1)
    line = st.one_of(st.just(empty), st.tuples(end, end).map(sorted).map(tuple))
    return draw(st.lists(line, min_size=count, max_size=count))


# L at the lane-width edges, where 2L+1 is all ones (2^k - 1) or one past (2^k)
_LIMITS = st.one_of(
    st.integers(0, 40),
    st.integers(0, 20).flatmap(lambda k: st.sampled_from([(1 << k) - 1, 1 << k])),
)


def _lanewise(first, second):
    """Hom from the first (rays, lows, highs) support to the second, line by line."""
    (rays1, lows1, highs1), (rays2, lows2, highs2) = first, second
    inside = all(map(operator.le, lows2, lows1)) and all(map(operator.le, highs1, highs2))
    return "C0" if rays2 <= rays1 and inside else "Zero"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_packed_containment_is_lanewise_containment(data):
    limit = data.draw(_LIMITS)
    count = data.draw(st.integers(1, 6))
    supports = [
        (frozenset(data.draw(st.sets(st.integers(0, 1)))), *zip(*data.draw(_lines(limit, count))))
        for _ in range(2)
    ]
    contains = _lane_order(supports, limit)
    for i, j in itertools.product(range(2), repeat=2):
        assert contains(i, j).value == _lanewise(supports[i], supports[j])


# rays e1, e2, e3 and -(e1+e2+e3), D = 1: at bound 31 the box holds 63^3
# points, under the cap, so every support has 3969 lines, 7938 lanes
P3 = {
    "dim": 3,
    "rays": [{"v": list(v)} for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))],
    "max_cones": [list(cone) for cone in itertools.combinations(range(4), 3)],
}


def test_large_3d_supports_pack_lane_for_lane():
    fan = parse_stacky_fan(P3)
    cones = [((0, 1), (1, -2)), ((0, 1), (1, -1)), ((0,), (1,)), ((), ())]
    thetas = [theta(fan, cone, t) for cone, t in cones]
    supports = [(frozenset(th.cone.ray_indices), *_refined_scaled(th, 31, 1)) for th in thetas]
    assert {len(lows) for _, lows, _ in supports} == {3969}
    contains = oracle_order(fan, thetas, 31)
    for i, j in itertools.product(range(len(thetas)), repeat=2):
        assert contains(i, j).value == _lanewise(supports[i], supports[j])
        assert contains(i, j) == hom_constructible(thetas[i], thetas[j])
    # one lane of the first support moved by one, at both ends and the
    # middle of each half: the packed test turns exactly as the lanes do
    for half, k, step in itertools.product((1, 2), (0, 1984, 3968), (-1, 1)):
        moved = list(supports[0])
        values = list(moved[half])
        # a lows value stays in [-L, L+1], a highs value in [-L-1, L]
        values[k] = min(max(values[k] + step, -31 - (half == 2)), 32 - (half == 2))
        moved[half] = tuple(values)
        pair = (supports[0], tuple(moved))
        contains = _lane_order(pair, 31)
        for i, j in itertools.product(range(2), repeat=2):
            assert contains(i, j).value == _lanewise(pair[i], pair[j])


def test_koszul_euler_examples(crepant_a1):
    key = chart_theta(crepant_a1, (1, 2), (0, 0))
    assert koszul_euler(crepant_a1, key, (0, 0)) == 1
    assert koszul_euler(crepant_a1, key, (-1, 0)) == 0
    assert koszul_euler(crepant_a1, key, (-1, 1)) == 1
    assert koszul_euler(crepant_a1, key, (-5, 0)) == 0
    # pinned m = 5 needs a window of at least 5
    assert koszul_euler(crepant_a1, key, (0, 5)) == 1


@pytest.mark.parametrize("route", [koszul_euler, q2_member, q2_member_enum])
def test_q2_routes_refuse_a_non_integral_probe(crepant_a1, route):
    # int() would read (-1/2, 0) as (0, 0), which is a member
    key = chart_theta(crepant_a1, (1, 2), (0, 0))
    assert route(crepant_a1, key, (0, 0))
    with pytest.raises(InvalidArgument, match="probe must be an integer character"):
        route(crepant_a1, key, (Fraction(-1, 2), 0))
    assert route(crepant_a1, key, (Fraction(0), Fraction(4, 2)))


def test_koszul_requires_extra_ray(crepant_a1):
    with pytest.raises(InvalidArgument):
        koszul_euler(crepant_a1, chart_theta(crepant_a1, (1,), (0,)), (0, 0))
    with pytest.raises(InvalidArgument):
        koszul_euler(crepant_a1, chart_theta(crepant_a1, (1, 2), (0, 0)), (0,))


def stalk_at(setup, key, p):
    """The stalk count of one chart at one rational point, as a batch of one."""
    scale, pairings = scaled_pairings(setup.sigma2, [p])
    return stalk_euler(fm3_region(setup, key), scale, pairings)[0]


def test_koszul_matches_q2_membership(crepant_a1, om3, discrepancy_setup):
    charts = [((1, 2), (0, 0)), ((1, 2), (1, -2)), ((2,), (0,)), ((2,), (-1,)), ((0, 2), (0, 1))]
    for setup in (crepant_a1, om3, discrepancy_setup):
        for J, phi in charts:
            key = chart_theta(setup, J, phi)
            for probe in itertools.product(range(-4, 5), repeat=2):
                k = koszul_euler(setup, key, probe)
                assert k in (0, 1)
                member = q2_member(setup, key, probe)
                assert bool(k) == member
                assert q2_member_enum(setup, key, probe) == member


def test_koszul_window_cap(crepant_a1, monkeypatch):
    key = chart_theta(crepant_a1, (1, 2), (0, 0))
    monkeypatch.setattr(cohoracle, "_MAX_WINDOW", 4)
    with pytest.raises(WindowTooSmall):
        koszul_euler(crepant_a1, key, (0, 9))
    monkeypatch.setattr(cohoracle, "_MAX_WINDOW", 16)
    assert koszul_euler(crepant_a1, key, (0, 9)) == 1


@pytest.mark.parametrize("route", [koszul_euler, q2_member, q2_member_enum])
@pytest.mark.parametrize("probe", [(0, 0, 5), (0,)], ids=["long", "short"])
def test_q2_routes_refuse_a_probe_of_the_wrong_length(crepant_a1, route, probe):
    with pytest.raises(InvalidArgument, match="probe must be a character of the contracted chart"):
        route(crepant_a1, chart_theta(crepant_a1, (1, 2), (0, 0)), probe)


def test_stalk_euler_values(crepant_a1):
    key = chart_theta(crepant_a1, (1, 2), (0, 0))
    assert stalk_at(crepant_a1, key, (Fraction(1, 2), Fraction(-3, 8))) == 1
    assert stalk_at(crepant_a1, key, (Fraction(1, 2), Fraction(5, 16))) == 0
    assert stalk_at(crepant_a1, key, (Fraction(-1, 2), Fraction(-9, 8))) == 1


def test_stalk_euler_boundary_guard(crepant_a1):
    # a point on a chart face has no count
    assert stalk_at(crepant_a1, chart_theta(crepant_a1, (1, 2), (0, 0)), (1, Fraction(1, 3))) is None
    with pytest.raises(InvalidArgument):
        unstepped = chart_theta(crepant_a1, (0,), (0,))
        stalk_at(crepant_a1, unstepped, (Fraction(1, 2), Fraction(1, 4)))


def test_stalk_euler_matches_region(crepant_a1, om3, discrepancy_setup):
    charts = [((1, 2), (0, 0)), ((1, 2), (-1, 1)), ((2,), (0,)), ((0, 2), (1, 0))]
    for setup in (crepant_a1, om3, discrepancy_setup):
        for J, phi in charts:
            key = chart_theta(setup, J, phi)
            region = fm3_region(setup, key)
            checked = 0
            for a in range(-5, 6):
                for b in range(-5, 6):
                    p = (Fraction(a, 2) + Fraction(1, 16), Fraction(b, 4) + Fraction(1, 32))
                    pairings = [
                        sum(x * c for x, c in zip(p, setup.sigma2.b(j)))
                        for j in region.j_prime
                    ]
                    if any(Fraction(v).denominator == 1 for v in pairings):
                        continue
                    checked += 1
                    assert stalk_at(setup, key, p) == int(region.contains(p))
            assert checked > 80


CONTRACTIONS_2D = (
    "contract_crepant_a1.json",
    "contract_discrepancy.json",
    "contract_om2.json",
    "contract_om3.json",
)


@functools.lru_cache(maxsize=None)
def _contraction(name):
    return parse_contraction(load_data(name))


def _rational(denominator):
    return st.integers(-4 * denominator, 4 * denominator).map(
        lambda k: Fraction(k, denominator)
    )


def _past_cap(ch, scale, pairings, cap):
    """Whether a point off the chart faces needs an m window past the cap, read rung by rung.

    pairings[j] is scale times the point's pairing with ray j of J'.
    """
    return any(
        pairings[i] > scale * (ch.c[i] + cap + 1) if i in ch.c
        else not -cap * scale <= pairings[i] <= (cap + 1) * scale
        for i in ch.m_index
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_euler_counts_match_region_and_q2(data):
    setup = _contraction(data.draw(st.sampled_from(CONTRACTIONS_2D)))
    key = data.draw(st.sampled_from(charts(setup, 2)))
    region = fm3_region(setup, key)
    rational = st.integers(1, 12).flatmap(_rational)
    p = data.draw(st.tuples(rational, rational))
    pairings = {
        j: sum((x * c for x, c in zip(p, setup.sigma2.b(j))), Fraction(0))
        for j in region.j_prime
    }
    if any(v.denominator == 1 for v in pairings.values()):
        assert stalk_at(setup, key, p) is None
    elif _past_cap(region, 1, pairings, cohoracle._MAX_WINDOW):
        with pytest.raises(WindowTooSmall):
            stalk_at(setup, key, p)
    else:
        assert stalk_at(setup, key, p) == int(region.contains(p))
    probe = data.draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    assert koszul_euler(setup, key, probe) == int(q2_member(setup, key, probe))


# ---------------------------------------------------------------------------
# the sandwich sweep's hoisted route against the one-point entries

SANDWICH_2D = ("contract_om3.json", "contract_crepant_a1.json", "contract_discrepancy.json")

# the crepant 3-D contraction (3,3,3)/(1,1,1): rays e1, e2, e3 of weight 3
# and the extra ray (1,1,1) of weight 1, so alpha = 1/3 on each ray
CREPANT_333 = {
    "rays": [
        {"v": [1, 0, 0], "weight": 3},
        {"v": [0, 1, 0], "weight": 3},
        {"v": [0, 0, 1], "weight": 3},
    ],
    "extra": {"v": [1, 1, 1]},
}


def _outcome(route, *args):
    """The route's value, or the class of the error it raised."""
    try:
        return route(*args)
    except WindowTooSmall as exc:
        return type(exc)


def _stalks(region, scale, scaled):
    """A batch's counts, or the class of the error it raised once per point."""
    try:
        return stalk_euler(region, scale, scaled)
    except WindowTooSmall:
        return [WindowTooSmall] * len(scaled)


def _from_table(setup, bound, table):
    # a bound decided from the sigma1 table: each normal is a ray of sigma1
    if bound is None:
        return None
    column = {ray.b: j for j, ray in enumerate(setup.sigma1.rays)}
    return bound.holds(table[column[normal]] for normal, _, _ in bound.constraints)


def _hoisted(setup, region, x, stalk):
    # what sandwich_sweep does per probe: one table for the region route,
    # read by the region and both bounds, beside the chart batch's stalk count
    table = tuple(pair(x, ray.b) for ray in setup.sigma1.rays)
    return (
        region.contains_pairings(table),
        _from_table(setup, region.inner, table),
        _from_table(setup, region.outer, table),
        stalk,
    )


def _one_point(setup, key, region, x):
    return (
        region.contains(x),
        None if region.inner is None else region.inner.contains(x),
        region.outer.contains(x),
        _outcome(stalk_at, setup, key, x),
    )


def _sandwich_setup(name):
    if name == "crepant_333":
        return parse_contraction(CREPANT_333), 0
    return _contraction(name), 1


@pytest.mark.parametrize("name", [*SANDWICH_2D, "crepant_333"])
def test_hoisted_sandwich_route_matches_one_point_entries_on_the_grid(name):
    setup, window = _sandwich_setup(name)
    grid = sandwich_probes(setup.sigma1.dim, window)
    scale, scaled = scaled_pairings(setup.sigma2, grid)
    seen = Counter()
    for key in charts(setup, window):
        region = fm3_region(setup, key)
        assert region.stepped
        for x, stalk in zip(grid, _stalks(region, scale, scaled)):
            got = _hoisted(setup, region, x, stalk)
            assert got == _one_point(setup, key, region, x), (key, x)
            assert got[3] == int(got[0]), (key, x)
            seen[got[3]] += 1
            # both bounds are decided on every probe, on either side of them
            seen["outer", got[2]] += 1
            if got[1] is not None:
                seen["inner", got[1]] += 1
    assert {0, 1, ("outer", False), ("outer", True)} <= set(seen)
    if setup.discrepancy != ">=":
        assert {("inner", False), ("inner", True)} <= set(seen)


def _random_point(rng, dim):
    return tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(dim))


def _face_point(rng, setup, ch):
    # a point whose pairing with a ray of J' is an integer
    b = setup.sigma2.b(rng.choice(ch.j_prime))
    x = list(_random_point(rng, len(b)))
    k = next(i for i, c in enumerate(b) if c)
    rest = sum(x[i] * b[i] for i in range(len(b)) if i != k)
    x[k] = (rng.randint(-6, 6) - rest) / b[k]
    return tuple(x)


@pytest.mark.parametrize("name", SANDWICH_2D)
def test_hoisted_sandwich_route_matches_on_random_points(name, monkeypatch):
    setup = _contraction(name)
    keys = charts(setup, 1)
    rng = random.Random(name)
    seen = Counter()
    # at the cap 1 the m window cannot double, so far points stop stabilizing
    for cap in (16, 1):
        monkeypatch.setattr(cohoracle, "_MAX_WINDOW", cap)
        for _ in range(200):
            key = rng.choice(keys)
            region = fm3_region(setup, key)
            x = _random_point(rng, setup.sigma1.dim)
            got = _hoisted(setup, region, x, _stalks(region, *scaled_pairings(setup.sigma2, [x]))[0])
            assert got == _one_point(setup, key, region, x), (cap, key, x)
            seen[cap, got[3]] += 1
            seen["outer", got[2]] += 1
            face = _face_point(rng, setup, region)
            stalk = _stalks(region, *scaled_pairings(setup.sigma2, [face]))[0]
            got = _hoisted(setup, region, face, stalk)
            assert got == _one_point(setup, key, region, face), (cap, key, face)
            assert got[3] is None, (key, face)
    assert seen[16, 0] and seen[16, 1]
    assert seen[1, WindowTooSmall] > 0
    assert seen["outer", False] and seen["outer", True]


def test_euler_terms_are_the_scaled_characters(om3):
    setup_3d = parse_contraction(CREPANT_333)
    for setup, window in ((om3, 1), (setup_3d, 0)):
        for key in charts(setup, window):
            ch = fm3_region(setup, key)
            for scale, w in ((1, 1), (16, 4), (32, 2)):
                floors, subsets = cohoracle._euler_terms(ch, scale, w)
                ranges = [range(0, w + 1) if i in ch.c else range(-w, w + 1) for i in ch.m_index]
                ms = list(itertools.product(*ranges))
                assert len(floors) == len(ms)
                for m, f in zip(ms, floors):
                    assert f == tuple(scale * t for t in ch.gamma(m).t), (key, m)
                assert len(subsets) == 2 ** len(ch.m_index)
                assert len(set(bumps for bumps, _ in subsets)) == len(subsets)
                for bumps, sign in subsets:
                    raised = [j for j, bump in zip(ch.j_prime, bumps) if bump]
                    assert set(raised) <= set(ch.m_index)
                    assert set(bumps) <= {0, scale}
                    assert sign == (-1) ** len(raised)


# each chart of crepant_a1 below steps along axis 1 only; (e, d) is an edge
# pairing band (e, e + 1) whose points need a window of exactly the cap, and
# the band one rung further, in direction d, needs one more
WINDOW_EDGES = {
    # inside J, a pairing P needs ceil(P) - c_1 - 1
    ((1, 2), (0, 0)): lambda cap: [(cap, 1)],
    ((1, 2), (1, -1)): lambda cap: [(cap + 1, 1)],
    # outside J, it needs ceil(P) - 1 and -floor(P)
    ((2,), (0,)): lambda cap: [(cap, 1), (-cap, -1)],
}


@pytest.mark.parametrize("key", WINDOW_EDGES, ids=str)
def test_derived_window_edges(crepant_a1, key):
    cap = cohoracle._MAX_WINDOW
    J, phi = key
    chart = chart_theta(crepant_a1, J, phi)
    ch = fm3_region(crepant_a1, chart)
    assert ch.m_index == (1,) and (1 in ch.c) == (1 in J)
    counts = Counter()
    for e, d in WINDOW_EDGES[key](cap):
        for q0 in range(-3 * cap, 3 * cap):
            # an integer probe pairs as q + 1/2, so q1 = e sits in the band
            probe = (q0, e)
            value = koszul_euler(crepant_a1, chart, probe)
            assert value == int(q2_member(crepant_a1, chart, probe)), probe
            counts["probe", value] += 1
            with pytest.raises(WindowTooSmall):
                koszul_euler(crepant_a1, chart, (q0, e + d))
            for k in (1, 2, 3):
                # pairings at scale 4: P0 = q0 + 1/4, P1 in (e, e + 1)
                pairings = {0: 4 * q0 + 1, 1: 4 * e + k}
                value = stalk_euler(ch, 4, [pairings])[0]
                inside = ch.contains_pairings({j: Fraction(v, 4) for j, v in pairings.items()})
                assert value == int(inside), pairings
                counts["point", value] += 1
                with pytest.raises(WindowTooSmall):
                    stalk_euler(ch, 4, [{0: 4 * q0 + 1, 1: 4 * (e + d) + k}])
    assert set(counts) == {("probe", 0), ("probe", 1), ("point", 0), ("point", 1)}


@functools.lru_cache(maxsize=None)
def _stepped_charts(name, outside):
    """The stepped charts that have (or have not) an m axis outside J."""
    setup, window = _sandwich_setup(name)
    found = [fm3_region(setup, key) for key in charts(setup, window)]
    return [ch for ch in found if outside == any(i not in ch.c for i in ch.m_index)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stalk_count_is_the_sum_over_the_cap_window(data):
    """stalk_euler on one point against the alternating sum over the cap's tables.

    A point the count refuses is one whose pairing, on some m axis, still
    clears the last rung of the cap window, read rung by rung.
    """
    cap = cohoracle._MAX_WINDOW
    name = data.draw(st.sampled_from([*CONTRACTIONS_2D, "crepant_333"]))
    # half the draws take a chart with an m axis outside J, the one kind
    # whose window also has a lower edge
    ch = data.draw(st.sampled_from(_stepped_charts(name, data.draw(st.booleans()))))
    scale = data.draw(st.integers(2, 6))
    # no pairing a multiple of the scale: those points sit on a chart face;
    # rungs next to the cap, where the window's edges are, are drawn often
    edges = st.sampled_from([-cap - 1, -cap, *range(cap - 1, cap + 3)])
    rungs = st.one_of(edges, st.integers(-cap - 3, cap + 2))
    off_face = st.tuples(rungs, st.integers(1, scale - 1))
    pairings = {j: data.draw(off_face.map(lambda t: t[0] * scale + t[1])) for j in ch.j_prime}
    floors, subsets = cohoracle._euler_terms(ch, scale, cap)
    values = [pairings[j] for j in ch.j_prime]
    direct = sum(
        sign
        for f in floors
        for bumps, sign in subsets
        if all(v > a + b for v, a, b in zip(values, f, bumps))
    )
    if _past_cap(ch, scale, pairings, cap):
        with pytest.raises(WindowTooSmall):
            stalk_euler(ch, scale, [pairings])
    else:
        assert stalk_euler(ch, scale, [pairings]) == [direct]


def _alone(ch, scale, point):
    """One point's count as a batch of one, or the WindowTooSmall it raised."""
    try:
        return stalk_euler(ch, scale, [point])[0]
    except WindowTooSmall as exc:
        return exc


@st.composite
def _stalk_point(draw, ch, scale, need):
    """Scaled pairings on J' of a point off the chart faces that needs window `need`.

    Each m axis takes a rung that needs at most `need`, one of them exactly
    `need`; i0 and the other rays of J' sit within two rungs of the floor
    that the point's gamma(m) puts there, so both counts show.
    """
    cap_axis = draw(st.sampled_from(ch.m_index))
    rungs = {}
    for i in ch.m_index:
        if i in ch.c:
            low, high = ch.c[i] - 2, ch.c[i] + need
            rung = high if i == cap_axis else draw(st.integers(low, high))
        else:
            rung = draw(st.sampled_from([-need, need])) if i == cap_axis else draw(
                st.integers(-need, need)
            )
        rungs[i] = rung
    m = tuple(max(rungs[i] - ch.c.get(i, 0), 0) if i in ch.c else rungs[i] for i in ch.m_index)
    floor = dict(zip(ch.j_prime, ch.gamma(m).t))
    point = {}
    for j in ch.j_prime:
        rung = rungs[j] if j in rungs else floor[j] + draw(st.integers(-2, 1))
        point[j] = rung * scale + draw(st.integers(1, scale - 1))
    return point


def _on_a_face(data, ch, scale, point):
    # the same point moved onto a chart face: one pairing a multiple of the scale
    j = data.draw(st.sampled_from(ch.j_prime))
    return {**point, j: point[j] - point[j] % scale}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_a_batch_counts_each_point_as_it_would_alone(data):
    """One stalk_euler call on many points against a call per point.

    The batch mixes points that need windows from 1 to the cap, so one
    window serves points of every need, with face points, which count
    None, interleaved.  A batch that holds a point past the cap refuses with the
    message of the first such point, in order, and a face point past the
    cap is no refusal.
    """
    cap = cohoracle._MAX_WINDOW
    name = data.draw(st.sampled_from([*CONTRACTIONS_2D, "crepant_333"]))
    setup, window = _sandwich_setup(name)
    ch = fm3_region(setup, data.draw(st.sampled_from(charts(setup, window))))
    scale = data.draw(st.integers(2, 8))
    needs = data.draw(st.lists(st.integers(1, cap), min_size=1, max_size=24))
    points = [data.draw(_stalk_point(ch, scale, need)) for need in needs]
    for k in data.draw(st.lists(st.integers(0, len(points)), max_size=8)):
        # a face point, some of them past the cap
        away = data.draw(_stalk_point(ch, scale, data.draw(st.integers(1, cap + 4))))
        points.insert(k, _on_a_face(data, ch, scale, away))
    past = data.draw(st.lists(st.integers(0, len(points)), max_size=3))
    for k in past:
        points.insert(k, data.draw(_stalk_point(ch, scale, data.draw(st.integers(cap + 1, cap + 4)))))
    alone = [_alone(ch, scale, p) for p in points]
    refusals = [str(a) for a in alone if isinstance(a, WindowTooSmall)]
    assert len(refusals) == len(past)
    if refusals:
        with pytest.raises(WindowTooSmall) as refusal:
            stalk_euler(ch, scale, points)
        assert str(refusal.value) == refusals[0]
        return
    assert stalk_euler(ch, scale, points) == alone
    for p, count in zip(points, alone):
        on_face = any(v % scale == 0 for v in p.values())
        assert (count is None) == on_face
        if not on_face:
            exact = {j: Fraction(v, scale) for j, v in p.items()}
            assert count == int(ch.contains_pairings(exact)), p


@pytest.mark.parametrize("cap", [1, 2, 4])
@pytest.mark.parametrize("name", SANDWICH_2D)
def test_sandwich_refusal_names_the_first_chart_and_point_past_the_cap(name, cap, monkeypatch):
    # each probe alone, chart by chart and probe by probe in sweep order
    setup = _contraction(name)
    monkeypatch.setattr(cohoracle, "_MAX_WINDOW", cap)
    scale, scaled = scaled_pairings(setup.sigma2, sandwich_probes(setup.sigma1.dim, 1))
    key, expected = next(
        (key, str(count))
        for key, ch in ((key, fm3_region(setup, key)) for key in charts(setup, 1))
        for count in (_alone(ch, scale, p) for p in scaled)
        if isinstance(count, WindowTooSmall)
    )
    with pytest.raises(WindowTooSmall) as refusal:
        sandwich_sweep(setup, 1)
    assert str(refusal.value) == f"chart J={key.cone.ray_indices} phi={key.t}: {expected}"


def test_sandwich_sweep_three_dimensional_two_step_rays():
    setup = parse_contraction(CREPANT_333)
    assert setup.discrepancy == "="
    keys = charts(setup, 0)
    # every stepped chart steps along two rays, so the term tables run over
    # a two-dimensional m product
    assert all(len(fm3_region(setup, key).m_index) == 2 for key in keys)
    report = sandwich_sweep(setup, 0)
    assert (report.charts, report.points, report.violations) == (7, 2401, ())


def _shifted(bound, by):
    return Polyhedron(bound.dim, tuple((n, t + by, s) for n, t, s in bound.constraints))


def _with_bound(ch, name, bound):
    """A copy of the chart that holds the given polyhedron as its bound name."""
    broken = copy.copy(ch)
    vars(broken)[name] = bound
    return broken


# a chart whose outer bound is raised, or whose inner bound is widened, by
# one on every constraint, and the violation each must show
BROKEN_BOUNDS = {
    "outer-misses": lambda ch: _with_bound(ch, "outer", _shifted(ch.outer, 1)),
    "inner-escapes": lambda ch: _with_bound(ch, "inner", _shifted(ch.inner, -1)),
}


@pytest.mark.parametrize(
    "name, kind",
    [(name, "outer-misses") for name in SANDWICH_2D]
    + [(name, "inner-escapes") for name in ("contract_om3.json", "contract_crepant_a1.json")],
)
def test_sandwich_sweep_reports_broken_bounds_where_one_point_entries_do(
    name, kind, monkeypatch
):
    setup = _contraction(name)
    broken = BROKEN_BOUNDS[kind]
    monkeypatch.setattr(sweeps, "fm3_region", lambda *args: broken(fm3_region(*args)))
    expected = []
    for key in charts(setup, 1):
        region = broken(fm3_region(setup, key))
        for x in sandwich_probes(setup.sigma1.dim, 1):
            inside = region.contains(x)
            if not inside and region.inner is not None and region.inner.contains(x):
                expected.append((key, x, "inner-escapes"))
            if inside and not region.outer.contains(x):
                expected.append((key, x, "outer-misses"))
    assert expected and {v[2] for v in expected} == {kind}
    report = sandwich_sweep(setup, 1)
    assert report.violations == tuple(expected)
    assert report.points == report.charts * 11**2


# (charts, points) of the sandwich sweep at windows 0, 1 and 2, none violated
SANDWICH_REPORTS = {0: (3, 147), 1: (21, 2541), 2: (55, 12375)}


@pytest.mark.parametrize("window", SANDWICH_REPORTS)
@pytest.mark.parametrize("name", CONTRACTIONS_2D)
def test_sandwich_sweep_counts_every_probe_of_the_bundled_contractions(name, window):
    report = sandwich_sweep(_contraction(name), window)
    assert report.points == report.charts * (4 * window + 7) ** 2
    assert (report.charts, report.points, report.violations) == (*SANDWICH_REPORTS[window], ())


@pytest.mark.parametrize(
    "name, windows", [(name, (0, 1, 2)) for name in CONTRACTIONS_2D] + [("crepant_333", (0, 1))]
)
def test_sandwich_cap_counts_what_the_sweep_enumerates(name, windows, monkeypatch):
    # the cap's count restates the shapes of charts and sandwich_probes
    setup = parse_contraction(CREPANT_333) if name == "crepant_333" else _contraction(name)
    monkeypatch.setattr(sweeps, "MAX_PAIRS", 0)
    for window in windows:
        probes = sandwich_probes(setup.sigma1.dim, window)
        enumerated = len(charts(setup, window)) * len(probes)
        with pytest.raises(InvalidArgument, match=rf"would test {enumerated} chart-probe pairs"):
            sandwich_sweep(setup, window)


def _counting(monkeypatch, *names):
    """Wrap each named sweeps function so that its calls are counted in one Counter."""
    calls = Counter()
    for name in names:
        def counted(*args, _f=getattr(sweeps, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(sweeps, name, counted)
    return calls


def _refused_count(sweep, *args) -> int:
    # with the cap at 0 every sweep refuses, and its message gives its count
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweeps, "MAX_PAIRS", 0)
        with pytest.raises(InvalidArgument) as refusal:
            sweep(*args)
    return int(re.match(r"[\w-]+ sweep would test (\d+) ", str(refusal.value)).group(1))


@pytest.mark.parametrize("window", [0, 1, 2])
@pytest.mark.parametrize("name", ["p1.json", "p13.json", "p112.json", "a1_resolution.json"])
def test_hom_oracle_cap_counts_the_pairs_the_sweep_compares(name, window, monkeypatch):
    fan = parse_stacky_fan(load_data(name))
    counted = _refused_count(sweeps.hom_oracle_sweep, fan, window)
    compared = Counter()

    def counting_order(*args):
        contains = cohoracle.oracle_order(*args)

        def tallied(i, j):
            compared[i, j] += 1
            return contains(i, j)

        return tallied

    monkeypatch.setattr(sweeps, "oracle_order", counting_order)
    sweeps.hom_oracle_sweep(fan, window)
    # every ordered pair is compared once
    assert counted == sum(compared.values()) == len(window_thetas(fan, window)) ** 2
    assert set(compared.values()) == {1}


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("name", ["samebase_p12_p13.json", "samebase_rev.json"])
def test_poset_cap_counts_the_pairs_the_sweep_compares(name, window, monkeypatch):
    setup = parse_same_base(load_data(name))
    counted = _refused_count(sweeps.poset_embedding_report, setup, window)
    calls = _counting(monkeypatch, "leq")
    sweeps.poset_embedding_report(setup, window)
    assert 2 * counted == calls["leq"]  # each pair is compared before and after


@pytest.mark.parametrize("window", [0, 1])
@pytest.mark.parametrize("name", CONTRACTIONS_2D)
def test_contractibility_cap_counts_the_pairs_the_sweep_compares(name, window, monkeypatch):
    # push and pull each add the square of their key count; the grid is derived
    setup = _contraction(name)
    args = (setup, window)
    counted = _refused_count(sweeps.contractibility_sweep, *args)
    calls = _counting(monkeypatch, "ext_case2", "ext_case3")
    sweeps.contractibility_sweep(*args)
    assert counted == calls["ext_case2"] + calls["ext_case3"]
    assert (calls["ext_case2"] > 0) == (setup.discrepancy in (">=", "="))
    assert (calls["ext_case3"] > 0) == (setup.discrepancy in ("<=", "="))


@pytest.mark.parametrize("message, sweep, args", [
    ("hom-oracle sweep would test \\d{19,} theta pairs", sweeps.hom_oracle_sweep,
     lambda: (parse_stacky_fan(load_data("p112.json")), 20000)),
    ("poset-embedding sweep would test \\d{10,} theta pairs", sweeps.poset_embedding_report,
     lambda: (parse_same_base(load_data("samebase_p12_p13.json")), 20000)),
    ("contractibility sweep would test \\d{19,} key pairs", sweeps.contractibility_sweep,
     lambda: (parse_contraction(load_data("contract_om3.json")), 20000, Fraction(6), Fraction(1, 4))),
    # with no box or step, the derived grid is not worked out either
    ("contractibility sweep would test \\d{19,} key pairs", sweeps.contractibility_sweep,
     lambda: (parse_contraction(load_data("contract_om3.json")), 20000)),
])
def test_pair_sweeps_refuse_a_huge_window_before_building(message, sweep, args, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("built a key, support or raster past the cap")

    args = args()
    for built in (
        "window_thetas", "charts", "oracle_order", "witness_box", "refined_denominator",
        "raster_origin", "raster_runs",
    ):
        monkeypatch.setattr(sweeps, built, unbuilt)
    with pytest.raises(InvalidArgument, match=rf"^{message}, over the cap of 1048576; use a"):
        sweep(*args)


def test_sandwich_sweep_refuses_past_its_pair_cap_before_building(om3, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("built a grid or a chart past the cap")

    # a huge window refuses from the count alone, before a grid or chart
    with monkeypatch.context() as patch:
        for built in ("sandwich_probes", "charts", "fm3_region"):
            patch.setattr(sweeps, built, unbuilt)
        with pytest.raises(InvalidArgument, match=r"test \d{20,} chart-probe pairs, over the cap"):
            sandwich_sweep(om3, 10**5)
    # om3 at window 0 is 3 charts of 7^2 probes: 147 pairs, refused at 146
    monkeypatch.setattr(sweeps, "MAX_PAIRS", 147)
    assert sandwich_sweep(om3, 0).points == 147
    monkeypatch.setattr(sweeps, "MAX_PAIRS", 146)
    with pytest.raises(InvalidArgument, match=r"test 147 chart-probe pairs, over the cap of 146"):
        sandwich_sweep(om3, 0)
