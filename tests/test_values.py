"""The value contract of the package's immutable classes.

Each value class compares, hashes and prints by its fields alone: it hashes
to the hash of the tuple of its compared fields, two parses of one document
compare equal, and its repr reads ``Name(field=value, ...)``.  Derived and
kept values (``WeightedRay.b``, ``ThetaIndex.thresholds``, and the
``discrepancy``, ``scaled_alpha`` and ``i_prime`` of a contraction setup)
take no part.  Construction keeps its validation and its exact messages.
"""

from fractions import Fraction

import pytest
from conftest import load_data

from ccc.cli import Report
from ccc.errors import InvalidArgument, ValidationError
from ccc.exactlin import cone_basis
from ccc.stackyfan import (
    Cone,
    WeightedRay,
    parse_contraction,
    parse_same_base,
    parse_stacky_fan,
)
from ccc.sweeps import (
    FFReport,
    contractibility_sweep,
    hom_oracle_sweep,
    poset_embedding_report,
    sandwich_sweep,
)
from ccc.thetapos import HomResult, ThetaIndex, lambda_skeleton, support


def _fan(name="p112.json"):
    return parse_stacky_fan(load_data(name))


def _theta():
    return ThetaIndex(fan=_fan(), cone=Cone((2, 0)), t=(1, -1))


def _crepant():
    return parse_contraction(load_data("contract_crepant_a1.json"))


# class name -> (compared fields, a builder that parses afresh on every call)
VALUES = {
    "WeightedRay": (("v", "weight"), lambda: WeightedRay(v=(1, -2), weight=3)),
    "Cone": (("ray_indices",), lambda: Cone((2, 0))),
    "StackyFan": (("dim", "rays", "max_cones", "all_cones"), _fan),
    "SameBaseSetup": (
        ("base", "r", "s", "t", "m", "n", "fan_r", "fan_s", "fan_t"),
        lambda: parse_same_base(load_data("samebase_rev.json")),
    ),
    "ContractionSetup": (
        ("n", "extra", "alpha", "sigma1", "sigma2"),
        lambda: parse_contraction(load_data("contract_om3.json")),
    ),
    "ThetaIndex": (("fan", "cone", "t"), _theta),
    "Polyhedron": (("dim", "constraints"), lambda: support(_theta(), open=True)),
    "HomResult": (("value", "reason"), lambda: HomResult(value="Zero", reason="non-inclusion")),
    "LagrangianPiece": (
        ("base", "fiber_cone", "t"),
        lambda: lambda_skeleton(_fan("p13.json"), 2, Fraction(3))[-1],
    ),
    "ConeBasis": (("rows", "inverse", "det"), lambda: cone_basis.__wrapped__(((1, 2),), 2)),
    "FFReport": (
        ("window", "pairs_checked", "violations", "verdict"),
        lambda: poset_embedding_report(parse_same_base(load_data("samebase_rev.json")), 2),
    ),
    "HomOracleReport": (
        ("window", "box", "pairs", "disagreements"),
        lambda: hom_oracle_sweep(_fan("p1.json"), 1),
    ),
    "SandwichReport": (
        ("window", "charts", "points", "violations"),
        lambda: sandwich_sweep(_crepant(), 0),
    ),
    "ContractibilityReport": (
        ("window", "bbox", "step", "discrepancy", "pairs", "confirmed", "witnesses"),
        lambda: contractibility_sweep(_crepant(), 0, Fraction(2), Fraction(1, 2)),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_hashes_and_compares_by_its_fields(name):
    fields, build = VALUES[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert hash(first) == hash(tuple(getattr(first, f) for f in fields))
    assert repr(first) == repr(second)
    shown = ", ".join(f"{f}={getattr(first, f)!r}" for f in fields)
    assert repr(first) == f"{name}({shown})"


def test_report_compares_by_its_fields():
    def build():
        return Report(status="ok", payload={"window": 1}, witnesses=[["t"]])

    assert build() == build()
    assert build() != Report(status="ok", payload={"window": 2}, witnesses=[["t"]])
    assert repr(build()) == "Report(status='ok', payload={'window': 1}, witnesses=[['t']])"


def test_derived_values_stay_out_of_the_fields():
    ray, theta = VALUES["WeightedRay"][1](), _theta()
    assert ray.b == (3, -6) and theta.thresholds == {0: 1, 2: -1}
    assert (ray, hash(ray)) == (WeightedRay(v=(1, -2), weight=3), hash(((1, -2), 3)))
    assert "b=" not in repr(ray) and "thresholds" not in repr(theta)


def test_cones_normalise_and_order_by_their_sorted_indices():
    assert Cone((2, 0)).ray_indices == (0, 2)
    assert sorted([Cone((1, 2)), Cone((0,)), Cone((2, 0)), Cone(())]) == [
        Cone(()),
        Cone((0,)),
        Cone((0, 2)),
        Cone((1, 2)),
    ]


def test_reprs_keep_their_form():
    p1 = _fan("p1.json")
    assert repr(Cone((2, 0))) == "Cone(ray_indices=(0, 2))"
    assert repr(WeightedRay(v=[1, -2], weight=3)) == "WeightedRay(v=(1, -2), weight=3)"
    assert repr(ThetaIndex(fan=p1, cone=Cone((1,)), t=[-2])) == (
        "ThetaIndex(fan=StackyFan(dim=1, rays=(WeightedRay(v=(1,), weight=1), "
        "WeightedRay(v=(-1,), weight=1)), max_cones=(Cone(ray_indices=(0,)), "
        "Cone(ray_indices=(1,))), all_cones=(Cone(ray_indices=()), Cone(ray_indices=(0,)), "
        "Cone(ray_indices=(1,)))), cone=Cone(ray_indices=(1,)), t=(-2,))"
    )
    assert repr(HomResult(value="Zero", reason="contractible-difference")) == (
        "HomResult(value='Zero', reason='contractible-difference')"
    )


P1 = _fan("p1.json")

REFUSALS = [
    (lambda: Cone((1, 0, 1)), ValidationError, "repeated ray index in cone (1, 0, 1)"),
    (lambda: WeightedRay(v=[2, 4], weight=1), ValidationError, "ray (2, 4) is not primitive"),
    (
        lambda: WeightedRay(v=(1, 0), weight=0),
        ValidationError,
        "ray weight 0 must be a positive integer",
    ),
    (
        lambda: WeightedRay(v=(1, 0), weight=True),
        ValidationError,
        "ray weight True must be a positive integer",
    ),
    (lambda: ThetaIndex(P1, Cone((0, 1)), ()), InvalidArgument, "cone (0, 1) is not in the fan"),
    (
        lambda: ThetaIndex(P1, Cone((0,)), (1, 2)),
        InvalidArgument,
        "theta has 2 thresholds for a 1-dimensional cone",
    ),
    (lambda: HomResult("C1", "inclusion"), InvalidArgument, "bad hom value 'C1'"),
    (lambda: HomResult("C0", "maybe"), InvalidArgument, "bad hom reason 'maybe'"),
    (
        lambda: HomResult("Zero", "inclusion"),
        InvalidArgument,
        "C0 exactly when the reason is inclusion",
    ),
    (lambda: FFReport(1, 0, (), "maybe"), InvalidArgument, "bad verdict 'maybe'"),
    (
        lambda: FFReport(1, 0, (), "violated"),
        InvalidArgument,
        "verdict must be embedding exactly when no violations",
    ),
]


@pytest.mark.parametrize("build, error, message", REFUSALS, ids=[r[2] for r in REFUSALS])
def test_validation_keeps_its_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
