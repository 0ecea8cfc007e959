"""Support cones, the partial order, skeleton pieces, ample polytopes."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccc import thetapos
from ccc.cohoracle import hom_module_oracle
from ccc.errors import InvalidArgument, UnsupportedOperation
from ccc.stackyfan import Cone, parse_stacky_fan
from ccc.sweeps import witness_box
from ccc.thetapos import (
    HomResult,
    Polyhedron,
    ThetaIndex,
    ample_polytope,
    format_theta,
    hom_constructible,
    lambda_skeleton,
    leq,
    minkowski_sum,
    parse_theta,
    support,
    window_thetas,
)

from conftest import load_data

F = Fraction


def theta(fan, cone, t):
    return ThetaIndex(fan=fan, cone=Cone(tuple(cone)), t=tuple(t))


def test_support_p13_ray(p13):
    poly = support(theta(p13, (0,), (1,)))
    assert poly.constraints == (((1,), F(1, 3), False),)
    assert poly.contains((F(1, 3),))
    assert not poly.contains((F(0),))


def test_support_zero_cone_is_everything(p13):
    poly = support(theta(p13, (), ()))
    assert poly.constraints == ()
    assert poly.contains((F(-1000),))


def test_support_first_quadrant(p112):
    poly = support(theta(p112, (0, 2), (0, 0)))
    assert poly.contains((F(0), F(0)))
    assert poly.contains((F(3), F(5)))
    assert not poly.contains((F(-1), F(0)))
    open_poly = support(theta(p112, (0, 2), (0, 0)), open=True)
    assert not open_poly.contains((F(0), F(0)))
    assert open_poly.contains((F(1), F(1)))


def test_leq_nested_half_lines(p13):
    assert leq(theta(p13, (0,), (2,)), theta(p13, (0,), (1,)))
    assert not leq(theta(p13, (0,), (1,)), theta(p13, (0,), (2,)))


def test_leq_zero_cone(p13):
    zero = theta(p13, (), ())
    ray = theta(p13, (0,), (0,))
    assert not leq(zero, ray)
    assert leq(ray, zero)


def test_leq_quadrant_in_half_plane(p112):
    assert leq(theta(p112, (0, 2), (0, 0)), theta(p112, (0,), (-1,)))
    assert not leq(theta(p112, (0, 2), (0, 0)), theta(p112, (0,), (1,)))


def test_leq_rejects_mixed_fans(p13, p1):
    with pytest.raises(InvalidArgument):
        leq(theta(p13, (0,), (0,)), theta(p1, (0,), (0,)))


def test_thresholds_stay_out_of_eq_hash_and_repr(p112):
    a = theta(p112, (0, 2), (1, -1))
    b = theta(p112, (0, 2), (1, -1))
    text, key = repr(a), hash(a)
    assert a.thresholds == {0: 1, 2: -1}
    assert a.thresholds is a.thresholds  # kept, not rebuilt
    assert "thresholds" in vars(a) and "thresholds" not in vars(b)
    assert a == b and hash(a) == hash(b) == key
    assert repr(a) == repr(b) == text
    assert "thresholds" not in text


def test_leq_on_equal_parsed_fans_matches_one_fan(p112):
    doc = load_data("p112.json")
    fan_a, fan_b = parse_stacky_fan(doc), parse_stacky_fan(doc)
    assert fan_a == fan_b and fan_a is not fan_b
    same = window_thetas(p112, 1)
    left, right = window_thetas(fan_a, 1), window_thetas(fan_b, 1)
    for i, j in itertools.product(range(len(same)), repeat=2):
        assert leq(left[i], right[j]) == leq(same[i], same[j])


def test_partial_order_axioms(p13, p112):
    for fan, window in ((p13, 3), (p112, 2)):
        thetas = window_thetas(fan, window)
        rel = {
            (i, j)
            for i, a in enumerate(thetas)
            for j, b in enumerate(thetas)
            if leq(a, b)
        }
        for i in range(len(thetas)):
            assert (i, i) in rel
        for i, j in rel:
            if (j, i) in rel:
                assert i == j
        below = {}
        above = {}
        for i, j in rel:
            above.setdefault(i, set()).add(j)
            below.setdefault(j, set()).add(i)
        for k in range(len(thetas)):
            for i in below.get(k, ()):
                for j in above.get(k, ()):
                    assert (i, j) in rel


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_leq_matches_threshold_shortcut(p112, data):
    # the module oracle is the independent route; its box holds every witness
    box = witness_box(p112, 4)
    cones = [c.ray_indices for c in p112.all_cones]
    ints = st.integers(min_value=-4, max_value=4)
    c1 = data.draw(st.sampled_from(cones))
    c2 = data.draw(st.sampled_from(cones))
    t1 = theta(p112, c1, [data.draw(ints) for _ in c1])
    t2 = theta(p112, c2, [data.draw(ints) for _ in c2])
    assert leq(t1, t2) == (hom_module_oracle(t1, t2, box).value == "C0")


def test_leq_matches_rational_sample_oracle(p13, p112):
    rng = random.Random(7)
    for fan, denom, box in ((p13, 3, 4), (p112, 2, 7)):
        thetas = window_thetas(fan, 2)
        pool = [rng.sample(thetas, 2) for _ in range(120)]
        grid = [F(k, denom) for k in range(-box * denom, box * denom + 1)]
        for t1, t2 in pool:
            s1, s2 = support(t1), support(t2)
            points = [
                p
                for p in itertools.product(grid, repeat=fan.dim)
                if s1.contains(p)
            ]
            sampled = all(s2.contains(p) for p in points)
            if leq(t1, t2):
                assert sampled
            else:
                assert not sampled, (t1, t2)


def test_hom_constructible(p13):
    assert hom_constructible(theta(p13, (0,), (2,)), theta(p13, (0,), (1,))) == HomResult(
        value="C0", reason="inclusion"
    )
    res = hom_constructible(theta(p13, (0,), (1,)), theta(p13, (0,), (2,)))
    assert res.value == "Zero"
    assert res.reason == "non-inclusion"
    th = theta(p13, (0,), (5,))
    assert hom_constructible(th, th).value == "C0"


def test_hom_result_invariant():
    with pytest.raises(InvalidArgument):
        HomResult(value="C0", reason="non-inclusion")
    with pytest.raises(InvalidArgument):
        HomResult(value="Zero", reason="inclusion")


def test_lambda_skeleton_p13(p13):
    pieces = lambda_skeleton(p13, char_window=3, box=1)
    down = sorted(p.base for p in pieces if p.fiber_cone.ray_indices == (0,))
    up = sorted(p.base for p in pieces if p.fiber_cone.ray_indices == (1,))
    assert down == [F(k, 3) for k in range(-3, 4)]
    assert up == [F(-1), F(0), F(1)]
    zero = [p for p in pieces if p.fiber_cone.ray_indices == ()]
    assert len(zero) == 1
    assert zero[0].base is None


def test_lambda_skeleton_p1(p1):
    pieces = lambda_skeleton(p1, char_window=1, box=1)
    for p in pieces:
        if p.fiber_cone.dim == 1:
            assert p.base.denominator == 1


def test_lambda_skeleton_is_read_off_the_thresholds(p13, monkeypatch):
    # each base is t / b_i, in (cone, t) order, with no feasibility test; past
    # the box the window adds no piece, so a huge window costs what a small one does
    monkeypatch.setattr(thetapos, "linear_feasible", lambda *args: pytest.fail("LP solved"))
    pieces = lambda_skeleton(p13, char_window=10**7, box=F(7, 3))
    assert pieces == lambda_skeleton(p13, char_window=7, box=F(7, 3))
    assert [(p.fiber_cone.ray_indices, p.t) for p in pieces] == sorted(
        (p.fiber_cone.ray_indices, p.t) for p in pieces
    )
    for p in pieces[1:]:
        (i,) = p.fiber_cone.ray_indices
        assert p.base * p13.b(i)[0] == p.t[0] and abs(p.base) <= F(7, 3)
    assert len(pieces) == 1 + 15 + 5


def test_lambda_skeleton_refuses_past_its_piece_cap(p13, monkeypatch):
    # p13 at window 3 and box 1 has 1 + 7 + 3 = 11 pieces
    monkeypatch.setattr(thetapos, "MAX_SKELETON_PIECES", 11)
    assert len(lambda_skeleton(p13, 3, 1)) == 11
    monkeypatch.setattr(thetapos, "MAX_SKELETON_PIECES", 10)
    with pytest.raises(InvalidArgument, match=r"^the skeleton has 11 pieces, over the cap of 10;"):
        lambda_skeleton(p13, 3, 1)
    monkeypatch.undo()
    with pytest.raises(InvalidArgument, match=r"has 400003 pieces, over the cap of 4096"):
        lambda_skeleton(p13, 10**5, 10**5)


def test_ample_polytope_p13(p13):
    poly, ok = ample_polytope(p13, (1, 1))
    assert ok
    assert poly.contains((F(0),))
    assert poly.contains((F(-1, 3),))
    assert not poly.contains((F(-1, 2),))


def test_ample_polytope_degenerate(p1, p13):
    _, ok = ample_polytope(p1, (1, -1))
    assert not ok
    _, ok = ample_polytope(p13, (0, 0))
    assert not ok
    _, ok = ample_polytope(p1, (2, -1))
    assert ok


def test_ample_polytope_unbounded(a1_resolution):
    # incomplete fan: the polytope has a recession direction
    _, ok = ample_polytope(a1_resolution, (1, 1, 1))
    assert not ok


def test_minkowski_intervals():
    p = Polyhedron(dim=1, constraints=(((1,), F(-1), True), ((-1,), F(-2), True)))
    q = Polyhedron(dim=1, constraints=(((1,), F(-2), True), ((-1,), F(-1), True)))
    s = minkowski_sum(p, q)
    assert set(s.constraints) == {((1,), F(-3), True), ((-1,), F(-3), True)}


def test_minkowski_ample(p1):
    p, _ = ample_polytope(p1, (1, 2))
    q, _ = ample_polytope(p1, (2, 1))
    expected, _ = ample_polytope(p1, (3, 3))
    assert minkowski_sum(p, q).canonical() == expected.canonical()


def test_minkowski_identity(p1):
    p, _ = ample_polytope(p1, (1, 2))
    zero, _ = ample_polytope(p1, (0, 0))
    assert minkowski_sum(p, zero).canonical() == p.canonical()


def test_minkowski_rejects_mismatch(p1, p13):
    p, _ = ample_polytope(p1, (1, 1))
    q = Polyhedron(dim=1, constraints=(((1,), F(0), False),))
    with pytest.raises(UnsupportedOperation):
        minkowski_sum(p, q)


def test_theta_text_round_trip(p112):
    th = theta(p112, (0, 2), (3, -4))
    assert format_theta(th) == "cone=0,2;t=3,-4"
    assert parse_theta(p112, "cone=0,2;t=3,-4") == th
    zero = parse_theta(p112, "cone=;t=")
    assert zero.cone.ray_indices == ()
    assert format_theta(zero) == "cone=;t="


def test_parse_theta_rejects_malformed(p112):
    for bad in ("cone=0,2", "t=1;cone=0", "cone=2,0;t=1,1", "cone=0;t=x"):
        with pytest.raises(InvalidArgument):
            parse_theta(p112, bad)
