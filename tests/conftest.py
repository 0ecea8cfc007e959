import itertools
import json
import math
from importlib import resources

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from ccc.exactlin import pair
from ccc.fm import chart_theta, difference_contractible, fm3_region, raster_pixels
from ccc.stackyfan import WeightedRay, build_contraction, parse_contraction, parse_stacky_fan


def load_data(name: str) -> dict:
    return json.loads(resources.files("ccc.data").joinpath(name).read_text())


@pytest.fixture(scope="session")
def p1():
    return parse_stacky_fan(load_data("p1.json"))


@pytest.fixture(scope="session")
def p13():
    return parse_stacky_fan(load_data("p13.json"))


@pytest.fixture(scope="session")
def p112():
    return parse_stacky_fan(load_data("p112.json"))


@pytest.fixture(scope="session")
def a1_resolution():
    return parse_stacky_fan(load_data("a1_resolution.json"))


@pytest.fixture(scope="session")
def crepant_a1():
    return parse_contraction(load_data("contract_crepant_a1.json"))


@pytest.fixture(scope="session")
def discrepancy_setup():
    return parse_contraction(load_data("contract_discrepancy.json"))


@pytest.fixture(scope="session")
def om3():
    return parse_contraction(load_data("contract_om3.json"))


def pulled(setup, J, phi):
    """The chart of the sigma1 theta with threshold phi[k] on ray J[k]."""
    return fm3_region(setup, chart_theta(setup, J, phi))


def gamma_frontier(ch, width) -> list[tuple[int, ...]]:
    """The Pareto-minimal threshold vectors gamma(m).t of a chart over an m window.

    m runs over [0, width] on the indices of m_index inside J and over
    [-width, width] off it.  Each vector lists a threshold per ray of J'.
    """
    ranges = [range(0, width + 1) if i in ch.c else range(-width, width + 1) for i in ch.m_index]
    frontier = []
    for m in itertools.product(*ranges):
        t = ch.gamma(m).t
        if any(all(f <= u for f, u in zip(vec, t)) for vec in frontier):
            continue
        frontier = [vec for vec in frontier if not all(u <= f for u, f in zip(t, vec))]
        frontier.append(t)
    return frontier


def gamma_union(ch, width):
    """Membership in the union of a chart's shifted cones over an m window.

    A point is in the union when its pairing with each ray of J' clears
    the threshold of one vector of ``gamma_frontier``.
    """
    frontier = gamma_frontier(ch, width)
    rays = [ch.setup.sigma2.b(j) for j in ch.j_prime]

    def member(x) -> bool:
        p = [pair(x, b) for b in rays]
        return any(all(a > t for a, t in zip(p, vec)) for vec in frontier)

    return member


def raster_contractible_2d(member_a, member_b, bbox, step, origin) -> bool:
    """Contractibility of {A and not B} in a box, walking both predicates."""
    return difference_contractible(
        raster_pixels(member_a, bbox, step, origin), raster_pixels(member_b, bbox, step, origin)
    )


def _primitive_vector(draw, lo=-3, hi=3):
    return draw(
        st.tuples(st.integers(lo, hi), st.integers(lo, hi)).filter(
            lambda v: v != (0, 0) and math.gcd(*v) == 1
        )
    )


# (u0, u1, d) with 1/u0 + 1/u1 = 1/d: block weights c_i u_i and extra weight
# g d make alpha = (d/u0, d/u1), which sums to exactly 1
_UNIT_SUMS = [(2, 2, 1), (3, 6, 2), (6, 3, 2), (4, 4, 2)]


@st.composite
def planar_contractions(draw):
    """A random planar contraction in a drawn discrepancy regime.

    The contracted cone has a random primitive integer basis v0, v1 with
    positive weights; the extra ray is (c0 v0 + c1 v1) / g for positive
    c0, c1 and g the gcd of the entries, so it is primitive and strictly
    inside the cone.  About a third of the draws put the extra ray on the
    first axis (second coordinate 0), where the staircase's weighted form
    is constant along raster rows.  The regime, sum(alpha) <, = or > 1, is
    drawn first: equality comes from _UNIT_SUMS, the other two from free
    weights kept only when they land in the drawn regime.
    """
    regime = draw(st.sampled_from(["<", "=", ">"]))
    if draw(st.integers(0, 2)) == 0:  # an extra ray with second coordinate 0
        v0 = (draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        v1 = (draw(st.integers(-3, 3)), -draw(st.integers(1, 3)))
        assume(math.gcd(*v0) == 1 and math.gcd(*v1) == 1)
        shared = math.gcd(v0[1], v1[1])
        c0, c1 = -v1[1] // shared, v0[1] // shared
    else:
        v0, v1 = _primitive_vector(draw), _primitive_vector(draw)
        c0, c1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    assume(v0[0] * v1[1] != v0[1] * v1[0])
    e = (c0 * v0[0] + c1 * v1[0], c0 * v0[1] + c1 * v1[1])
    g = math.gcd(*e)
    if regime == "=":
        u0, u1, d = draw(st.sampled_from(_UNIT_SUMS))
        w0, w1, we = c0 * u0, c1 * u1, g * d
    else:
        w0, w1, we = (draw(st.integers(1, 5)) for _ in range(3))
    setup = build_contraction(
        [WeightedRay(v0, w0), WeightedRay(v1, w1)],
        WeightedRay((e[0] // g, e[1] // g), we),
    )
    total = sum(setup.alpha)
    assume({"<": total < 1, "=": total == 1, ">": total > 1}[regime])
    return setup
