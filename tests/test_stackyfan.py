"""Fan parsing/validation, completeness, and the two transform setups."""

import random
from fractions import Fraction

import pytest

from ccc import stackyfan
from ccc.errors import InvalidArgument, ValidationError
from ccc.exactlin import cone_basis
from ccc.stackyfan import (
    MAX_FAN_FACES,
    Cone,
    WeightedRay,
    build_contraction,
    build_same_base,
    faces,
    is_complete,
    j_image,
    parse_contraction,
    parse_stacky_fan,
)

from conftest import load_data

F = Fraction


def test_parse_p13(p13):
    assert len(p13.max_cones) == 2
    assert len(p13.all_cones) == 3
    assert p13.b(0) == (3,)
    assert p13.b(1) == (-1,)


def test_parse_p112(p112):
    assert len(p112.max_cones) == 3
    assert len(p112.all_cones) == 7
    assert p112.has_cone(Cone(()))


def test_parse_rejects_non_primitive_ray():
    with pytest.raises(ValidationError):
        parse_stacky_fan({"dim": 2, "rays": [{"v": [2, 4]}, {"v": [0, 1]}], "max_cones": [[0, 1]]})


def test_parse_rejects_dependent_cone_rays():
    with pytest.raises(ValidationError, match="dependent"):
        parse_stacky_fan(
            {
                "dim": 2,
                "rays": [{"v": [1, 0]}, {"v": [-1, 0]}, {"v": [0, 1]}],
                "max_cones": [[0, 1]],
            }
        )


def test_parse_rejects_rank_deficiency():
    with pytest.raises(ValidationError, match="rank"):
        parse_stacky_fan({"dim": 2, "rays": [{"v": [1, 0]}], "max_cones": [[0]]})


def test_parse_rejects_overlapping_cones():
    # first quadrant and the cone x >= |y| share interior points
    with pytest.raises(ValidationError, match="overlap"):
        parse_stacky_fan(
            {
                "dim": 2,
                "rays": [{"v": [1, 0]}, {"v": [0, 1]}, {"v": [1, 1]}, {"v": [1, -1]}],
                "max_cones": [[0, 1], [2, 3]],
            }
        )


def test_parse_rejects_bad_weight():
    with pytest.raises(ValidationError):
        parse_stacky_fan({"dim": 1, "rays": [{"v": [1], "weight": 0}], "max_cones": [[0]]})


def test_faces_power_set():
    assert [c.ray_indices for c in faces(Cone((0, 1)))] == [(), (0,), (1,), (0, 1)]
    assert [c.ray_indices for c in faces(Cone(()))] == [()]
    assert len(faces(Cone((0, 1, 2)))) == 8


def test_is_complete(p1, p13, p112, a1_resolution):
    assert is_complete(p1)
    assert is_complete(p13)
    assert is_complete(p112)
    assert not is_complete(a1_resolution)


def test_is_complete_single_cone():
    fan = parse_stacky_fan(
        {"dim": 2, "rays": [{"v": [1, 0]}, {"v": [0, 1]}], "max_cones": [[0, 1]]}
    )
    assert not is_complete(fan)


def _in_cone(fan, x, sigma):
    """Whether x lies in sigma, read off the cone's completed basis.

    The coordinates of x over that basis are nonnegative on the cone's
    rays and zero on the units adjoined to them.
    """
    basis = cone_basis(tuple(fan.v(i) for i in sigma.ray_indices), fan.dim)
    coords = [sum(F(a) * c for a, c in zip(x, column)) for column in zip(*basis.inverse)]
    return all(c >= 0 for c in coords[: sigma.dim]) and not any(coords[sigma.dim :])


def _covered(fan, x):
    return any(_in_cone(fan, x, sigma) for sigma in fan.max_cones)


def test_is_complete_matches_random_direction_oracle(p1, p13, p112, a1_resolution):
    rng = random.Random(20250819)
    for fan in (p1, p13, p112, a1_resolution):
        covered_all = True
        for _ in range(300):
            x = tuple(F(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(fan.dim))
            if any(x):
                covered_all = covered_all and _covered(fan, x)
        assert covered_all == is_complete(fan)


def test_build_same_base_p12_p13(p1):
    setup = build_same_base(p1, (3, 1), (2, 1))
    assert setup.t == (6, 1)
    assert setup.m == (2, 1)
    assert setup.n == (3, 1)
    assert setup.fan_t.weight(0) == 6


def test_build_same_base_identity(p1):
    setup = build_same_base(p1, (5, 7), (5, 7))
    assert setup.t == (5, 7)
    assert setup.m == (1, 1)
    assert setup.n == (1, 1)


def test_build_same_base_lcm_symmetry(p1):
    assert build_same_base(p1, (2, 3), (3, 2)).t == (6, 6)


def test_build_same_base_rejects_bad_weights(p1):
    with pytest.raises(InvalidArgument):
        build_same_base(p1, (0, 1), (1, 1))
    with pytest.raises(InvalidArgument):
        build_same_base(p1, (1,), (1, 1))


def test_contraction_crepant_a1(crepant_a1):
    s = crepant_a1
    assert s.alpha == (F(1, 2), F(1, 2))
    assert s.i_prime == (0, 1)
    assert {c.ray_indices for c in s.sigma1.max_cones} == {(1, 2), (0, 2)}
    assert [c.ray_indices for c in s.sigma2.max_cones] == [(0, 1)]


def test_contraction_discrepancy_example(discrepancy_setup):
    s = discrepancy_setup
    assert s.alpha == (F(1, 2), F(1))


def test_contraction_om3(om3):
    assert om3.alpha == (F(1, 3), F(1, 3))


CONTRACTIONS = [
    "contract_crepant_a1.json",
    "contract_discrepancy.json",
    "contract_om2.json",
    "contract_om3.json",
]

# rays e1, e2, e3 of weights 2, 2, 1 and the extra ray (1, 1, 0) of weight 1
CREPANT_3D = {
    "rays": [{"v": [1, 0, 0], "weight": 2}, {"v": [0, 1, 0], "weight": 2}, {"v": [0, 0, 1]}],
    "extra": {"v": [1, 1, 0]},
}


@pytest.mark.parametrize("doc", [*CONTRACTIONS, CREPANT_3D], ids=[*CONTRACTIONS, "crepant_3d"])
def test_contraction_derived_fields_stay_out_of_eq_hash_and_repr(doc):
    data = load_data(doc) if isinstance(doc, str) else doc
    first, second = parse_contraction(data), parse_contraction(data)
    total = sum(first.alpha)
    assert first.discrepancy == ("=" if total == 1 else ">=" if total > 1 else "<=")
    scale, weights = first.scaled_alpha
    assert all(type(w) is int for w in weights)
    assert tuple(F(w, scale) for w in weights) == first.alpha
    # only the first parse has derived its fields
    assert {"discrepancy", "scaled_alpha"} <= set(vars(first))
    assert not {"discrepancy", "scaled_alpha"} & set(vars(second))
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert "discrepancy" not in repr(first) and "scaled_alpha" not in repr(first)


@pytest.mark.parametrize("doc", [*CONTRACTIONS, CREPANT_3D], ids=[*CONTRACTIONS, "crepant_3d"])
def test_parse_contraction_builds_two_fans(doc, monkeypatch):
    built = []
    original = stackyfan.make_fan

    def counted(*args):
        fan = original(*args)
        built.append(fan)
        return fan

    monkeypatch.setattr(stackyfan, "make_fan", counted)
    setup = parse_contraction(load_data(doc) if isinstance(doc, str) else doc)
    assert built == [setup.sigma2, setup.sigma1]


def _simplex_doc(d: int, opposite: bool = False) -> dict:
    """One cone spanned by e1..ed, and with opposite a 1-D cone on -e1 as well."""
    rays = [{"v": [int(i == j) for j in range(d)]} for i in range(d)]
    cones = [list(range(d))]
    if opposite:
        rays.append({"v": [-1] + [0] * (d - 1)})
        cones.append([d])
    return {"dim": d, "rays": rays, "max_cones": cones}


def test_fan_face_cap_counts_each_listed_cone():
    # 63 faces of the 6-D cone and 1 of the opposite ray reach the cap exactly
    assert MAX_FAN_FACES == 64
    fan = parse_stacky_fan(_simplex_doc(6, opposite=True))
    assert len(fan.all_cones) == 65  # the zero cone too
    with pytest.raises(ValidationError) as caught:
        parse_stacky_fan(_simplex_doc(7))
    assert str(caught.value) == (
        "the listed cones have 127 nonzero faces counted cone by cone, over the cap of 64"
    )


def test_four_dimensional_contraction_passes_the_face_cap():
    # sigma1 lists four 4-D cones, 60 faces counted cone by cone
    rays = [WeightedRay(tuple(int(i == j) for j in range(4)), 1) for i in range(4)]
    setup = build_contraction(rays, WeightedRay((1, 1, 1, 1), 1))
    assert len(setup.sigma1.max_cones) == 4
    assert sum(2**c.dim - 1 for c in setup.sigma1.max_cones) == 60


def test_contraction_rejects_degenerate_extra():
    rays = [WeightedRay((1, 0), 1), WeightedRay((0, 1), 1)]
    with pytest.raises(InvalidArgument, match="^extra ray must involve at least two rays$"):
        build_contraction(rays, WeightedRay((1, 0), 1))
    with pytest.raises(InvalidArgument, match="^extra ray is not in the nonnegative span"):
        build_contraction(rays, WeightedRay((-1, -1), 1))
    with pytest.raises(InvalidArgument, match="^extra ray is not in the nonnegative span"):
        build_contraction(rays, WeightedRay((1, -1), 1))


def test_contraction_names_ray_length_mismatch():
    rays = [WeightedRay((1, 0), 1), WeightedRay((0, 1, 0), 1)]
    with pytest.raises(InvalidArgument, match="ray 1 has 3 coordinates, expected 2"):
        build_contraction(rays, WeightedRay((1, 1), 1))


def test_contraction_keeps_document_ray_order():
    rays = [WeightedRay((1, 0, 0), 1), WeightedRay((0, 1, 0), 1), WeightedRay((0, 0, 1), 1)]
    s = build_contraction(rays, WeightedRay((1, 0, 1), 1))
    assert s.sigma2.rays == tuple(rays)
    assert s.sigma1.rays == (*rays, WeightedRay((1, 0, 1), 1))
    assert s.alpha == (1, 0, 1)
    assert s.i_prime == (0, 2)
    assert {c.ray_indices for c in s.sigma1.max_cones} == {(1, 2, 3), (0, 1, 3)}


@pytest.mark.parametrize("name", ["crepant_a1", "discrepancy_setup", "om3"])
def test_j_image_is_smallest_containing_cone(name, request):
    setup = request.getfixturevalue(name)
    gens = {i: setup.sigma2.v(i) for i in range(setup.n)}
    gens[setup.extra_index] = setup.extra.v
    for cone in setup.sigma1.all_cones:
        J = cone.ray_indices
        containing = [
            tau
            for tau in setup.sigma2.all_cones
            if all(_in_cone(setup.sigma2, gens[j], tau) for j in J)
        ]
        smallest = min(containing, key=lambda t: t.dim)
        assert sum(1 for t in containing if t.dim == smallest.dim) == 1
        assert j_image(setup, J) == smallest.ray_indices


def test_setup_discrepancy(crepant_a1, discrepancy_setup, om3):
    assert crepant_a1.discrepancy == "="
    assert discrepancy_setup.discrepancy == ">="
    assert om3.discrepancy == "<="
