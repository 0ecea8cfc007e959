"""End-to-end acceptance sweep: ten criteria, one pass/fail line each.

Each criterion carries its own runtime budget; the assertion on elapsed
time is part of the criterion.  Windows, boxes and sample grids below are
the smallest that still exercise every advertised identity.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import ccc
from ccc.cli import run
from ccc.cohoracle import koszul_euler, q2_member
from ccc.fm import (
    as_pixel_predicate,
    ext_case2,
    ext_case3,
    fm3_region,
    fm_case2,
    fm_line_bundle_case1,
    fm_line_bundle_case2,
    fm_line_bundle_case3,
)
from ccc.stackyfan import build_same_base
from ccc.sweeps import (
    charts,
    contractibility_sweep,
    hom_oracle_sweep,
    poset_embedding_report,
    raster_origin,
    sandwich_sweep,
)
from ccc.thetapos import ample_polytope, lambda_skeleton, leq, minkowski_sum, window_thetas

from conftest import gamma_union, raster_contractible_2d

DATA = Path(ccc.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _criterion(num, desc, budget, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    except BaseException:
        print(f"criterion {num:02d} FAIL  {desc}")
        raise
    print(f"criterion {num:02d} pass  {desc} ({elapsed:.2f}s)")


# -- 1 ------------------------------------------------------------------


def test_criterion_01_weight_change_bundle_map(p1):
    setup = build_same_base(p1, r=(3, 1), s=(2, 1))

    def body():
        for c1 in range(-10, 11):
            for c2 in range(-5, 6):
                image = fm_line_bundle_case1(setup, (c1, c2))
                assert image == ((3 * c1) // 2, c2), (c1, c2, image)

    _criterion(1, "weight-change bundle map on the weighted line", 1.0, body)


# -- 2 ------------------------------------------------------------------


def test_criterion_02_crepant_bundle_images_and_composite(crepant_a1):
    def body():
        for c1 in range(-8, 9):
            for c2 in range(-8, 9):
                push = fm_line_bundle_case2(crepant_a1, (c1, c2))
                assert push == (c1, c2, (c1 + c2) // 2), (c1, c2, push)
                if (c1 + c2) % 2 == 0:
                    c3 = (c1 + c2) // 2
                    pulled = fm_line_bundle_case3(crepant_a1, (c1, c2, c3))
                    assert pulled == (c1, c2)
                    assert fm_line_bundle_case2(crepant_a1, pulled) == (c1, c2, c3)
                else:
                    c3 = (c1 + c2 + 1) // 2
                    pulled = fm_line_bundle_case3(crepant_a1, (c1, c2, c3))
                    assert pulled == (c1, c2)
                    assert fm_line_bundle_case2(crepant_a1, pulled) == (c1, c2, c3 - 1)

    _criterion(2, "crepant surface bundle images and round trip parity", 5.0, body)


# -- 3 ------------------------------------------------------------------


def test_criterion_03_positive_discrepancy_bundle_images(discrepancy_setup):
    def body():
        for c1 in range(-8, 9):
            for c2 in range(-8, 9):
                push = fm_line_bundle_case2(discrepancy_setup, (c1, c2))
                assert push == (c1, c2, c1 // 2 + c2), (c1, c2, push)

    _criterion(3, "positive-discrepancy bundle images", 1.0, body)


# -- 4 ------------------------------------------------------------------


def test_criterion_04_hom_oracle_equivalence(p1, p13, p112, a1_resolution):
    def body():
        total = 0
        for fan in (p1, p13, p112, a1_resolution):
            report = hom_oracle_sweep(fan, 3)
            assert not report.disagreements, report.disagreements
            total += report.pairs
        assert total > 2000, total

    _criterion(4, "hom verdicts agree with the module oracle", 30.0, body)


# -- 5 ------------------------------------------------------------------


def test_criterion_05_poset_embedding_and_reversal(p1):
    def body():
        forward = poset_embedding_report(build_same_base(p1, (3, 1), (2, 1)), 4)
        assert forward.verdict == "embedding"
        assert forward.pairs_checked > 0

        reverse = poset_embedding_report(build_same_base(p1, (2, 1), (3, 1)), 4)
        assert reverse.verdict == "violated"
        assert reverse.violations
        a, b, direction = reverse.violations[0]
        setup = build_same_base(p1, (2, 1), (3, 1))
        from ccc.fm import fm_case1

        fa, fb = fm_case1(setup, a), fm_case1(setup, b)
        if direction == "forward":
            assert leq(a, b) and not leq(fa, fb)
        else:
            assert leq(fa, fb) and not leq(a, b)

    _criterion(5, "order embedding holds, reversal yields a witness", 10.0, body)


# -- 6 ------------------------------------------------------------------


def _shifted_cone_union(setup):
    """Chart.contains against the union of shifted cones, on a 15x15 grid."""
    for key in charts(setup, 3):
        ch = fm3_region(setup, key)
        union, narrower = gamma_union(ch, 12), gamma_union(ch, 11)
        for a in range(-7, 8):
            for b in range(-7, 8):
                x = (Fraction(a, 4) + Fraction(1, 16), Fraction(b, 8) + Fraction(1, 32))
                # window saturation: one more shell of shifts changes nothing here
                assert union(x) == narrower(x) == ch.contains(x), (key, x)


def test_criterion_06_staircase_sandwich_and_stalks(crepant_a1, om3):
    def body():
        crepant_doc = (DATA / "contract_crepant_a1.json").read_text()
        om2_doc = (DATA / "contract_om2.json").read_text()
        assert json.loads(crepant_doc) == json.loads(om2_doc)  # same contraction
        for setup in (crepant_a1, om3):
            report = sandwich_sweep(setup, 3)
            assert report.violations == ()
            assert report.points / report.charts >= 200, report
            _shifted_cone_union(setup)

    _criterion(6, "staircase sandwich, stalk counts and shifted-cone union", 60.0, body)


# -- 7 ------------------------------------------------------------------


def test_criterion_07_koszul_euler_matches_membership(crepant_a1, om3):
    def body():
        for setup in (crepant_a1, om3):
            probes = 0
            for key in charts(setup, 1):
                width = len(fm3_region(setup, key).j_prime)
                for q in itertools.product(range(-3, 4), repeat=width):
                    probes += 1
                    value = koszul_euler(setup, key, q)
                    assert value in (0, 1), (key, q, value)
                    assert (value == 1) == q2_member(setup, key, q), (key, q)
            assert probes >= 200, probes

    _criterion(7, "Koszul Euler counts are pushforward membership", 60.0, body)


# -- 8 ------------------------------------------------------------------


def _first_zero_pair(setup, comparison):
    """Images of the first contractible-difference pair in the sweep's order."""
    if comparison in (">=", "="):
        pairs = itertools.product(window_thetas(setup.sigma2, 1), repeat=2)
        th1, th2 = next(p for p in pairs if ext_case2(setup, *p).value == "Zero")
        return fm_case2(setup, th1)[0], fm_case2(setup, th2)[0]
    pairs = itertools.product(charts(setup, 1), repeat=2)
    k1, k2 = next(p for p in pairs if ext_case3(setup, *p).value == "Zero")
    return fm3_region(setup, k1), fm3_region(setup, k2)


def _contractibility_sweep(setup, comparison):
    bbox, step = Fraction(12), Fraction(1, 8)
    report = contractibility_sweep(setup, window=1, bbox=bbox, step=step)
    assert not report.witnesses, report.witnesses
    assert report.confirmed == report.pairs > 0
    assert report.discrepancy == comparison
    # one verdict per setup re-confirmed through the one-shot predicate walk
    first, second = _first_zero_pair(setup, comparison)
    assert raster_contractible_2d(
        as_pixel_predicate(first),
        as_pixel_predicate(second),
        bbox,
        step,
        origin=raster_origin(setup, bbox, step),
    )
    return report.confirmed


def test_criterion_08_zero_verdicts_raster_confirmed(crepant_a1, discrepancy_setup, om3):
    def body():
        total = 0
        total += _contractibility_sweep(crepant_a1, "=")
        total += _contractibility_sweep(discrepancy_setup, ">=")
        total += _contractibility_sweep(om3, "<=")
        assert total > 900, total

    _criterion(8, "contractible-difference verdicts survive the raster", 120.0, body)


# -- 9 ------------------------------------------------------------------


def test_criterion_09_skeleton_figure(p13, tmp_path):
    def body():
        pieces = lambda_skeleton(p13, 3, 1)
        down, up = set(), set()
        for piece in pieces:
            if piece.fiber_cone.dim != 1:
                continue
            ray = piece.fiber_cone.ray_indices[0]
            v = p13.v(ray)[0]
            base = Fraction(piece.t[0], p13.weight(ray)) / v
            (down if v > 0 else up).add(base)
        assert down == {Fraction(k, 3) for k in range(-3, 4)}, down
        assert up == {Fraction(k) for k in (-1, 0, 1)}, up

        outs = [tmp_path / "first.svg", tmp_path / "second.svg"]
        for out in outs:
            assert run(["plot", "lagrangian", str(DATA / "p13.json"), "-o", str(out)]) == 0
        first, second = (out.read_bytes() for out in outs)
        assert first == second
        assert first == (GOLDEN / "lagrangian_p13.svg").read_bytes()

    _criterion(9, "skeleton base points and byte-stable figure", 30.0, body)


# -- 10 -----------------------------------------------------------------


def test_criterion_10_ample_polytopes_add(p1, p13):
    def body():
        rng = random.Random(20260819)
        for fan in (p1, p13):
            pairs = 0
            while pairs < 50:
                c = tuple(rng.randint(-6, 12) for _ in fan.rays)
                d = tuple(rng.randint(-6, 12) for _ in fan.rays)
                poly_c, ample_c = ample_polytope(fan, c)
                poly_d, ample_d = ample_polytope(fan, d)
                if not (ample_c and ample_d):
                    continue
                pairs += 1
                total = ample_polytope(fan, tuple(x + y for x, y in zip(c, d)))[0]
                assert minkowski_sum(poly_c, poly_d).canonical() == total.canonical(), (c, d)
            assert pairs == 50

    _criterion(10, "ample support polytopes add under Minkowski sum", 30.0, body)
