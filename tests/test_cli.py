"""CLI surface: exit codes, report shape, thin-adapter equality, figures."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccc
from ccc.cli import (
    _DESCRIPTION,
    _PRETTY,
    _VERB_TREE,
    Report,
    _Help,
    _parse,
    emit_report,
    run,
)
from ccc.cohoracle import hom_module_oracle
from ccc.errors import InvalidArgument
from ccc.fm import fm_case1, fm_line_bundle_case2
from ccc.stackyfan import Cone, parse_contraction, parse_same_base, parse_stacky_fan
from ccc.sweeps import poset_embedding_report, witness_box
from ccc.thetapos import (
    HOM_NON_INCLUSION,
    format_theta,
    hom_constructible,
    parse_theta,
    window_thetas,
)

DATA = Path(ccc.__file__).parent / "data"
# the benchmark's recorded outcome of each argv it runs, keyed by the argv as JSON
EXPECTED = Path(__file__).parent.parent / "perfbench" / "expected.json"


def parse_report(text: str) -> Report:
    doc = json.loads(text)
    if set(doc) != {"status", "payload", "witnesses"}:
        raise InvalidArgument("report document needs status, payload and witnesses")
    return Report(status=doc["status"], payload=doc["payload"], witnesses=doc["witnesses"])


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, parse_report(out)


def test_validate_ok(capsys):
    code, rep = invoke(capsys, "validate", str(DATA / "p13.json"))
    assert code == 0
    assert rep.status == "ok"
    assert rep.payload == {"dim": 1, "rays": 2, "max_cones": 2, "complete": True}


def test_validate_surface(capsys):
    code, rep = invoke(capsys, "validate", str(DATA / "p112.json"))
    assert code == 0
    assert rep.payload["dim"] == 2
    assert rep.payload["complete"] is True


def test_missing_file_is_invalid_input(capsys):
    code, rep = invoke(capsys, "validate", str(DATA / "no_such_fan.json"))
    assert code == 1
    assert rep.status == "invalid-input"
    assert "error" in rep.payload


def test_malformed_json_is_invalid_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, rep = invoke(capsys, "validate", str(bad))
    assert code == 1
    assert rep.status == "invalid-input"


def test_unknown_verb_is_invalid_input(capsys):
    code, rep = invoke(capsys, "frobnicate")
    assert code == 1
    assert rep.status == "invalid-input"


def test_same_base_bundle_shift(capsys):
    code, rep = invoke(
        capsys, "fm", "same-base", str(DATA / "samebase_p12_p13.json"), "--bundle", "3,0"
    )
    assert code == 0
    assert rep.payload == {"bundle": [4, 0]}


def test_same_base_theta_matches_library(capsys):
    path = DATA / "samebase_p12_p13.json"
    code, rep = invoke(capsys, "fm", "same-base", str(path), "--theta", "cone=0;t=2")
    assert code == 0
    setup = parse_same_base(json.loads(path.read_text()))
    direct = fm_case1(setup, parse_theta(setup.fan_s, "cone=0;t=2"))
    assert rep.payload == {"theta": format_theta(direct)}


def test_hom_matches_library(capsys):
    path = DATA / "p13.json"
    code, rep = invoke(
        capsys, "hom", str(path), "--theta1", "cone=0;t=0", "--theta2", "cone=0;t=1"
    )
    assert code == 0
    fan = parse_stacky_fan(json.loads(path.read_text()))
    direct = hom_constructible(parse_theta(fan, "cone=0;t=0"), parse_theta(fan, "cone=0;t=1"))
    assert rep.payload == {"value": direct.value, "reason": direct.reason}


def test_hom_oracle_agrees(capsys):
    code, rep = invoke(
        capsys,
        "hom",
        str(DATA / "p13.json"),
        "--theta1",
        "cone=0;t=1",
        "--theta2",
        "cone=0;t=0",
        "--oracle",
    )
    assert code == 0
    assert rep.payload["oracle"]["value"] == rep.payload["value"]


def test_hom_oracle_box_guard(capsys):
    code, rep = invoke(
        capsys,
        "hom",
        str(DATA / "p13.json"),
        "--theta1",
        "cone=1;t=3",
        "--theta2",
        "cone=1;t=0",
        "--oracle",
        "--box",
        "2",
    )
    assert code == 1
    assert "box" in rep.payload["error"]


def test_hom_oracle_non_face_pair_skips_the_box_cap(capsys):
    path = str(DATA / "p13.json")
    argv = ["hom", path, "--theta1", "cone=0;t=0", "--oracle", "--box", "100000"]
    code, rep = invoke(capsys, *argv, "--theta2", "cone=1;t=0")
    assert code == 0
    assert rep.payload["oracle"] == {"value": "Zero", "reason": "non-inclusion", "box": 100000}
    code, rep = invoke(capsys, *argv, "--theta2", "cone=0;t=0")
    assert code == 1
    assert rep.payload == {
        "error": "the oracle box holds 600001 lattice points, over the limit 262144"
    }


def test_hom_oracle_refuses_a_nonpositive_box_on_the_zero_cone(capsys):
    # the zero cone has no thresholds, so the bound is refused before any ray is read
    argv = ["--theta1", "cone=;t=", "--theta2", "cone=;t=", "--oracle", "--box", "0"]
    code = run(["hom", str(DATA / "p13.json"), *argv])
    assert code == 1
    assert capsys.readouterr().out == (
        '{"payload":{"error":"box bound must be positive"},'
        '"status":"invalid-input","witnesses":[]}\n'
    )


@pytest.mark.parametrize(
    "box, error",
    [
        ("0", "box bound must be positive"),
        ("-2", "box bound must be positive"),
        ("2", "box too small for these thresholds"),
        ("100000", "the oracle box holds 160000800001 lattice points, over the limit 262144"),
    ],
)
def test_check_hom_oracle_refusal_bytes(capsys, box, error):
    path = str(DATA / "p112.json")
    code = run(["check", "hom-oracle", path, "--window", "2", "--box", box])
    assert code == 1
    assert capsys.readouterr().out == (
        '{"payload":{"error":"' + error + '"},"status":"invalid-input","witnesses":[]}\n'
    )


def test_check_hom_oracle_reports_disagreements(capsys, monkeypatch):
    # a rule that never finds an inclusion disagrees on every pair the oracle calls C0
    monkeypatch.setattr("ccc.sweeps.hom_constructible", lambda th1, th2: HOM_NON_INCLUSION)
    path = DATA / "p13.json"
    code, rep = invoke(capsys, "check", "hom-oracle", str(path), "--window", "1")
    assert code == 2
    assert rep.status == "check-failed"
    fan = parse_stacky_fan(json.loads(path.read_text()))
    box = witness_box(fan, 1)
    thetas = window_thetas(fan, 1)
    expected = [
        [format_theta(th1), format_theta(th2), "Zero", "C0"]
        for th1 in thetas
        for th2 in thetas
        if hom_module_oracle(th1, th2, box).value == "C0"
    ]
    assert expected
    assert rep.payload["disagreements"] == len(expected)
    assert rep.witnesses == sorted(expected)


def test_contract_push_bundle_matches_library(capsys):
    path = DATA / "contract_crepant_a1.json"
    code, rep = invoke(capsys, "fm", "contract-push", str(path), "--bundle", "1,1")
    assert code == 0
    setup = parse_contraction(json.loads(path.read_text()))
    assert rep.payload == {"bundle": list(fm_line_bundle_case2(setup, (1, 1)))}


def test_contract_pull_reports_rationals_as_strings(capsys):
    code, rep = invoke(
        capsys,
        "fm",
        "contract-pull",
        str(DATA / "contract_crepant_a1.json"),
        "--J",
        "1,2",
        "--phi",
        "0,0",
    )
    assert code == 0
    assert rep.payload["s1"] == "3/4"
    text = emit_report(Report(**rep._asdict()))
    assert "0.75" not in text


def test_negative_phi_equals_form(capsys):
    code, rep = invoke(
        capsys,
        "fm",
        "contract-pull",
        str(DATA / "contract_crepant_a1.json"),
        "--J",
        "1,2",
        "--phi=-1,0",
    )
    assert code == 0
    assert rep.payload["J"] == [1, 2]


def test_contract_pull_pairs_each_index_with_its_threshold(capsys, tmp_path):
    path = str(DATA / "contract_crepant_a1.json")
    reports, figures = [], []
    for k, (J, phi) in enumerate([("2,1", "3,0"), ("1,2", "0,3")]):
        reports.append(invoke(capsys, "fm", "contract-pull", path, "--J", J, "--phi", phi))
        out = tmp_path / f"region{k}.svg"
        code, rep = invoke(capsys, "plot", "region", path, "--J", J, "--phi", phi, "-o", str(out))
        assert code == 0 and rep.payload["regions"] == 2
        figures.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert reports[0][1].payload["s1"] == "15/4"
    assert figures[0] == figures[1]


def test_check_poset_embedding_ok(capsys):
    code, rep = invoke(
        capsys,
        "check",
        "poset-embedding",
        str(DATA / "samebase_p12_p13.json"),
        "--window",
        "2",
    )
    assert code == 0
    assert rep.payload["verdict"] == "embedding"
    assert rep.witnesses == []


def test_check_poset_reversed_fails_with_sorted_witnesses(capsys, tmp_path):
    doc = json.loads((DATA / "samebase_p12_p13.json").read_text())
    doc["r"], doc["s"] = doc["s"], doc["r"]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = invoke(capsys, "check", "poset-embedding", str(path), "--window", "2")
    assert code == 2
    assert rep.status == "check-failed"
    assert rep.witnesses
    assert rep.witnesses == sorted(rep.witnesses)


def test_check_contractibility_quick_sweep(capsys):
    code, rep = invoke(
        capsys,
        "check",
        "contractibility-2d",
        str(DATA / "contract_crepant_a1.json"),
        "--window",
        "0",
        "--box",
        "6",
        "--step",
        "1/4",
    )
    assert code == 0
    assert rep.payload["confirmed"] == rep.payload["pairs"] > 0


@pytest.mark.parametrize("name, discrepancy, pairs, bbox, step", [
    ("contract_om3.json", "<=", 2410, 10, "1/6"),
    ("contract_om2.json", "=", 3265, 8, "1/4"),
    ("contract_crepant_a1.json", "=", 3265, 8, "1/4"),
])
def test_check_contractibility_default_grid_confirms_every_pair_at_window_2(
    capsys, name, discrepancy, pairs, bbox, step
):
    # box 6 and step 1/4 at every window confirmed only 2236, 3200 and 3200
    start = time.perf_counter()
    code, rep = invoke(capsys, "check", "contractibility-2d", str(DATA / name), "--window", "2")
    assert time.perf_counter() - start < 3  # about 0.2 s on two cores
    assert code == 0
    assert rep.payload == {
        "bbox": bbox,
        "confirmed": pairs,
        "discrepancy": discrepancy,
        "pairs": pairs,
        "step": step,
        "window": 2,
    }


def test_check_contractibility_refuses_a_huge_grid_at_once(capsys):
    path = str(DATA / "contract_om3.json")
    argv = ["--window", "1", "--box", "1000000", "--step", "1/1000"]
    start = time.perf_counter()
    code, rep = invoke(capsys, "check", "contractibility-2d", path, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert rep.payload == {
        "error": "the raster grid has 2000000000 pixels per side, over the cap of 4096"
    }


@pytest.mark.parametrize(
    "verb, name",
    [
        ("hom-oracle", "p13.json"),
        ("case3-sandwich", "contract_om3.json"),
        ("contractibility-2d", "contract_crepant_a1.json"),
    ],
)
def test_check_negative_window_is_invalid_input(capsys, verb, name):
    code, rep = invoke(capsys, "check", verb, str(DATA / name), "--window=-1")
    assert code == 1
    assert rep.payload == {"error": "window must be >= 0"}


def test_check_sandwich_report_bytes(capsys):
    code = run(["check", "case3-sandwich", str(DATA / "contract_om3.json"), "--window", "0"])
    assert code == 0
    assert capsys.readouterr().out == (
        '{"payload":{"charts":3,"points":147,"violations":0,"window":0},'
        '"status":"ok","witnesses":[]}\n'
    )


def test_check_sandwich_three_dimensional(capsys, tmp_path):
    doc = {
        "rays": [{"v": [1, 0, 0]}, {"v": [0, 1, 0]}, {"v": [0, 0, 1]}],
        "extra": {"v": [1, 1, 0]},
    }
    path = tmp_path / "blowup3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = invoke(capsys, "check", "case3-sandwich", str(path), "--window", "0")
    assert code == 0
    assert rep.payload == {"charts": 6, "points": 2058, "violations": 0, "window": 0}


@pytest.mark.parametrize("window", ["0", "1"])
def test_check_sandwich_refuses_a_vacuous_chart(capsys, tmp_path, window):
    # ray 0 of weight 16 pairs every probe a/2 + 1/16 of axis 0 to an
    # integer, so no chart compares a single stalk count: not a vacuous ok
    doc = {
        "rays": [{"v": [1, 0], "weight": 16}, {"v": [0, 1], "weight": 1}],
        "extra": {"v": [1, 1]},
    }
    path = tmp_path / "weight16.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = invoke(capsys, "check", "case3-sandwich", str(path), "--window", window)
    assert code == 1
    assert rep.status == "invalid-input"
    error = rep.payload["error"]
    assert re.match(r"chart J=\(2,\) phi=\(-?\d+,\): every probe pairs integrally", error)


def test_check_sandwich_refuses_a_huge_window_at_once(capsys):
    path = str(DATA / "contract_om3.json")
    code, rep = invoke(capsys, "check", "case3-sandwich", path, "--window", "100000")
    assert code == 1
    assert rep.payload == {
        "error": "sandwich sweep would test 12800608010000065800147 chart-probe pairs, "
        "over the cap of 1048576; use a smaller window"
    }


def test_check_sandwich_names_the_chart_of_a_point_past_the_window_cap(capsys):
    # the first chart and point in sweep order whose m window passes 16
    path = str(DATA / "contract_om3.json")
    code, rep = invoke(capsys, "check", "case3-sandwich", path, "--window", "4")
    assert code == 1
    assert rep.status == "invalid-input"
    assert rep.payload == {
        "error": "chart J=(1, 2) phi=(-4, -4): the point needs an m window of 17, over the cap 16"
    }


def test_check_sandwich_witness_points_are_rational_strings(capsys, monkeypatch):
    # a stalk count no region membership can equal: every probe is a witness
    monkeypatch.setattr("ccc.sweeps.stalk_euler", lambda ch, scale, points: [2] * len(points))
    path = str(DATA / "contract_om3.json")
    code, rep = invoke(capsys, "check", "case3-sandwich", path, "--window", "0")
    assert code == 2
    assert rep.status == "check-failed"
    assert rep.witnesses
    for _, _, point, kind in rep.witnesses:
        assert kind == "stalk-mismatch"
        assert isinstance(point, list) and len(point) == 2
        assert all(isinstance(c, str) and re.fullmatch(r"-?\d+(/\d+)?", c) for c in point)


_FAN = {"dim": 1, "rays": [{"v": [1]}, {"v": [-1]}], "max_cones": [[0], [1]]}
_BLOWUP = {"rays": [{"v": [1, 0]}, {"v": [0, 1]}], "extra": {"v": [1, 1]}}
_PUSH = ["fm", "contract-push", "--bundle", "1,1"]
_SAME_BASE = ["fm", "same-base", "--bundle", "1,1"]
_GHOST = {**_FAN, "rays": [{"v": [1]}, {"v": [-1]}, {"v": [1]}]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["validate"], {**_FAN, "max_cones": [0]}),
        (["validate"], {**_FAN, "rays": 5}),
        (["validate"], {**_FAN, "rays": [{"v": 5}]}),
        (["validate"], {**_FAN, "rays": [{"v": [1, "a"]}]}),
        (["validate"], {**_FAN, "max_cones": [["x"]]}),
        (_PUSH, {**_BLOWUP, "extra": 5}),
        (_PUSH, {**_BLOWUP, "rays": [5, 6]}),
        (_SAME_BASE, {"fan": _FAN, "r": 5, "s": [1, 1]}),
        (
            ["fm", "same-base", "--bundle", "3,0,0"],
            {"fan": _GHOST, "r": [3, 1, 1], "s": [2, 1, 1]},
        ),
        (["validate"], {**_FAN, "dim": True}),
        (["validate"], {**_FAN, "rays": [{"v": [1], "weight": True}, {"v": [-1]}]}),
        (_PUSH, {**_BLOWUP, "extra": {"v": [1, 1], "weight": True}}),
        (_SAME_BASE, {"fan": _FAN, "r": [True, 1], "s": [1, 1]}),
        (_SAME_BASE, {"fan": _FAN, "r": [1, 1], "s": [1, True]}),
        (["plot", "lagrangian", "-o", "{missing}", str(DATA / "p13.json")], None),
        (
            ["hom", str(DATA / "p1.json"), "--theta1", "cone=0;t=100000000000000000000",
             "--theta2", "cone=0;t=0", "--oracle"],
            None,
        ),
        (["validate"], b"\xff\xfe{}"),
        (["validate"], b"[" * 100000),
        # past Python's 4300-digit limit for reading an integer
        (["validate"], b'{"dim":1,"rays":[{"v":[' + b"9" * 5000 + b']}],"max_cones":[[0]]}'),
    ],
    ids=[
        "cone-not-a-list", "rays-not-a-list", "v-not-a-list", "v-not-integers",
        "cone-not-integers", "extra-not-an-object", "ray-not-an-object",
        "weights-not-a-list", "ray-in-no-cone", "dim-boolean", "weight-boolean",
        "extra-weight-boolean", "weights-r-boolean", "weights-s-boolean",
        "unwritable-figure", "oracle-box-too-large", "not-utf8", "nested-too-deep",
        "integer-too-long",
    ],
)
def test_malformed_input_is_invalid_input(capsys, tmp_path, argv, doc):
    # doc is a JSON value to write, raw bytes to write as they are, or None
    argv = [arg.replace("{missing}", str(tmp_path / "missing" / "x.svg")) for arg in argv]
    path = tmp_path / "doc.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    elif doc is not None:
        path.write_text(json.dumps(doc), encoding="utf-8")
    if doc is not None:
        argv.append(str(path))
    code = run(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 1
    rep = parse_report(lines[0])
    assert rep.status == "invalid-input"
    assert rep.payload["error"]
    if isinstance(doc, bytes):
        assert str(path) in rep.payload["error"]


# 3000 nines: under Python's 4300-digit limit for reading an integer, but
# an extra weight this long gives report integers of about 6000 digits
_NINES = "9" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ["fm", "contract-push", "--theta", f"cone=0,1;t={_NINES},0"],
        ["fm", "contract-push", "--bundle", f"{_NINES},{_NINES}"],
    ],
    ids=["theta", "bundle"],
)
def test_report_integer_past_the_digit_limit_is_invalid_input(capsys, tmp_path, argv):
    # the theta goes through format_theta, the bundle through the report's ints
    path = tmp_path / "doc.json"
    path.write_text(f'{{"rays": [{{"v": [1, 0]}}, {{"v": [0, 1]}}], '
                    f'"extra": {{"v": [1, 1], "weight": {_NINES}}}}}', encoding="utf-8")
    code = run([*argv, str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 1
    rep = parse_report(lines[0])
    assert rep.status == "invalid-input"
    limit = sys.get_int_max_str_digits()
    assert rep.payload == {
        "error": f"an integer of the report has more than {limit} digits, "
        "Python's limit for integer strings"
    }


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [["validate", "p13.json"], ["check", "case3-sandwich", "contract_om3.json", "--window", "0"]],
    ids=["validate", "check"],
)
def test_closed_stdout_exits_1_and_writes_nothing_on_stderr(argv, unbuffered):
    # a pipe with no reader: the report's write, or the flush at exit when
    # stdout is buffered, fails with EPIPE
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(ccc.__file__).parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ccc.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize(
    "verb, name, subject",
    [
        ("same-base", "samebase_p12_p13.json", []),
        ("same-base", "samebase_p12_p13.json", ["--bundle", "3,0", "--theta", "cone=0;t=2"]),
        ("contract-push", "contract_crepant_a1.json", []),
        ("contract-push", "contract_crepant_a1.json", ["--bundle", "1,1", "--theta", "cone=0;t=1"]),
    ],
)
def test_fm_needs_exactly_one_of_bundle_and_theta(capsys, verb, name, subject):
    code, rep = invoke(capsys, "fm", verb, str(DATA / name), *subject)
    assert code == 1
    assert rep.status == "invalid-input"
    assert "--bundle" in rep.payload["error"]


def test_check_contractibility_needs_dim_2(capsys, tmp_path):
    doc = {
        "fan": {"dim": 1, "rays": [{"v": [1]}, {"v": [-1]}], "max_cones": [[0], [1]]},
        "extra": {"v": [1]},
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = invoke(capsys, "check", "contractibility-2d", str(path))
    assert code == 1


def test_reports_are_deterministic(capsys):
    args = ("validate", str(DATA / "p112.json"))
    run(list(args))
    first = capsys.readouterr().out
    run(list(args))
    second = capsys.readouterr().out
    assert first == second
    assert first.count("\n") == 1  # one line per report


def test_benchmark_argvs_replay_their_expected_outcomes(capsys, tmp_path, monkeypatch):
    """Each recorded argv gives its report, exit code and SVG sha256 in-process.

    The argvs name src/ccc/data relative to the repository root and plot
    to .perfbench/figure.svg, so they run from a directory holding a link
    to src/ and an empty .perfbench/; nothing is written under perfbench/.
    """
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert expected
    (tmp_path / "src").symlink_to(Path(ccc.__file__).resolve().parent.parent)
    figure = tmp_path / ".perfbench" / "figure.svg"
    figure.parent.mkdir()
    monkeypatch.chdir(tmp_path)
    replayed = {}
    for key in expected:
        figure.unlink(missing_ok=True)
        code = run(json.loads(key))
        digest = hashlib.sha256(figure.read_bytes()).hexdigest() if figure.exists() else None
        replayed[key] = {"exit": code, "report": capsys.readouterr().out, "svg_sha256": digest}
    assert replayed == expected


def test_pretty_report_parses_to_same_document(capsys):
    args = ["hom", str(DATA / "p13.json"), "--theta1", "cone=0;t=1", "--theta2", "cone=0;t=0"]
    _, plain = invoke(capsys, *args)
    _, pretty = invoke(capsys, "--pretty", *args)
    assert plain == pretty


def test_pretty_is_the_parsed_top_level_flag(capsys):
    path = str(DATA / "p13.json")
    # the leaf takes no --pretty, so it is refused, in one line
    assert run(["validate", path, "--pretty"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert parse_report(out).payload == {"error": "unrecognized arguments: --pretty"}
    # after "--" it is the file name, not the flag
    assert run(["validate", "--", "--pretty"]) == 1
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert parse_report(out).payload["error"].startswith("cannot read --pretty")
    assert run(["--pretty", "validate", path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") > 1
    assert parse_report(out).status == "ok"


def test_abbreviated_pretty_is_refused(capsys):
    # no level takes an abbreviation, so --pret is refused like any unknown option
    code = run(["--pret", "validate", str(DATA / "p13.json")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 1
    assert parse_report(lines[0]).status == "invalid-input"


def test_emit_parse_roundtrip():
    rep = Report(status="ok", payload={"x": Fraction(1, 3), "y": [1, "a"]}, witnesses=[])
    text = emit_report(rep)
    back = parse_report(text)
    assert back.payload == {"x": "1/3", "y": [1, "a"]}
    assert emit_report(back) == text
    with pytest.raises(InvalidArgument):
        emit_report(rep, format="yaml")
    with pytest.raises(InvalidArgument):
        parse_report('{"status": "ok"}')


def _package_values():
    fan = parse_stacky_fan(json.loads((DATA / "p13.json").read_text()))
    same_base = parse_same_base(json.loads((DATA / "samebase_rev.json").read_text()))
    return [parse_theta(fan, "cone=0;t=1"), Cone((0,)), poset_embedding_report(same_base, 1)]


@pytest.mark.parametrize("value", _package_values(), ids=lambda v: type(v).__name__)
def test_report_refuses_a_package_value(value):
    # only plain lists and tuples serialize as JSON lists; a stray package
    # value is refused by name, wherever it sits in the report
    for payload in (value, {"key": value}, [1, (2, value)]):
        with pytest.raises(InvalidArgument) as caught:
            emit_report(Report(status="ok", payload=payload, witnesses=[]))
        assert str(caught.value) == f"cannot serialize {type(value).__name__} into a report"
    with pytest.raises(InvalidArgument):
        emit_report(Report(status="ok", payload={}, witnesses=[value]))


def test_plot_lagrangian_is_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        code, rep = invoke(
            capsys, "plot", "lagrangian", str(DATA / "p13.json"), "-o", str(out)
        )
        assert code == 0
        assert rep.payload["pieces"] > 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("<svg")


# figures that neither the golden skeleton nor perfbench/expected.json pins:
# 1-D supports, an unstepped staircase chart and non-default skeletons
_PINNED_FIGURES = [
    (["region", "p13.json", "--theta", "cone=0;t=1"], "region-1d", 1,
     "72e0bdfeac900f9f2fffb6bd58cbbd5d9b455a6afe1d1f97383721e9caeb2b73"),
    (["region", "p13.json", "--theta", "cone=;t=", "--box", "1/2"], "region-1d", 1,
     "cc42cc7ff4604705491cb30882bcaa21db769e23c2a2e4e916920ba5d044c51a"),
    (["region", "contract_om3.json", "--J", "0", "--phi", "2"], "region-2d", 2,
     "726fe39dcd88750115ebe038108cd9d70e29729d1508c4fad1cc3cfdd886f49b"),
    (["lagrangian", "p13.json", "--window", "0"], "lagrangian", 3,
     "eae5668eab256ce93bebbefc5ba0ca96f54a4ac7a20386eec30c106f4273b1a4"),
    (["lagrangian", "p13.json", "--window", "6", "--box", "7/3"], "lagrangian", 19,
     "c364162160b65c6dc5dd50ba7cd56e061e44f8579d557a4cf1cbdc2fa957c627"),
    (["lagrangian", "p1.json", "--box", "1/3"], "lagrangian", 3,
     "eae5668eab256ce93bebbefc5ba0ca96f54a4ac7a20386eec30c106f4273b1a4"),
]


# sha256 of the `check contractibility-2d --window 1` report when every raster
# check fails, so that every contractible-difference pair, push and pull, is a
# witness: the Ext pair sets and their [J, phi] and theta bytes
_EXT_PAIR_DIGESTS = {
    "contract_crepant_a1.json": "dd77c141c88039756758d4dc283f535f07b690147d61ff66aaeb1310db305fde",
    "contract_discrepancy.json": "6efc989fe0ba449441d25d7070234394e78d068abb35cba06cf93fcbce304f5d",
    "contract_om2.json": "dd77c141c88039756758d4dc283f535f07b690147d61ff66aaeb1310db305fde",
    "contract_om3.json": "40d2b5859d124b74999ef250894d5fe447d8be0ae393212f61424af7913f0cb0",
}


@pytest.mark.parametrize("name, digest", sorted(_EXT_PAIR_DIGESTS.items()))
def test_ext_pair_sets_keep_their_witness_bytes(capsys, monkeypatch, name, digest):
    monkeypatch.setattr("ccc.sweeps.difference_contractible", lambda first, second: False)
    code = run(["check", "contractibility-2d", str(DATA / name), "--window", "1"])
    out = capsys.readouterr().out
    rep = parse_report(out)
    assert code == 2
    assert rep.payload["confirmed"] == 0
    assert len(rep.witnesses) == rep.payload["pairs"] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of oracle reports that perfbench/expected.json does not pin: every
# bundled plain fan at window 3, and two single pairs, one at its own box
_ORACLE_DIGESTS = [
    (["check", "hom-oracle", "p1.json", "--window", "3"],
     "55e3c5a55c75f84e0d60b3b7c99bc663deeb4d8e5ba94bad29210213e3a51c93"),
    (["check", "hom-oracle", "p13.json", "--window", "3"],
     "55e3c5a55c75f84e0d60b3b7c99bc663deeb4d8e5ba94bad29210213e3a51c93"),
    (["check", "hom-oracle", "p112.json", "--window", "3"],
     "509f906ede6ae9b514d19ac46a49c83ea0e2007b6a90003f0b763a5c8666717b"),
    (["check", "hom-oracle", "a1_resolution.json", "--window", "3"],
     "eca1045eba577fbc60cf9a4df83152e3f8ed7fa435c0ceb604f46e2a949387d4"),
    (["hom", "p112.json", "--theta1", "cone=0,1;t=2,-1", "--theta2", "cone=1;t=-2", "--oracle"],
     "2b7168492650ce61fbf717ab2e9ae34f66c2e623b1d1fe24bc22b9e8db170b9d"),
    (["hom", "a1_resolution.json", "--theta1", "cone=1,2;t=0,1", "--theta2", "cone=1,2;t=1,1",
      "--oracle", "--box", "7/2"],
     "de7a04d8f500ffd19546de1fe177e9c63ece90f987a52e718c2d1428321a798f"),
]


@pytest.mark.parametrize("argv, digest", _ORACLE_DIGESTS)
def test_oracle_reports_keep_their_bytes(capsys, argv, digest):
    code = run([str(DATA / a) if a.endswith(".json") else a for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, scene, count, digest", _PINNED_FIGURES)
def test_plot_figures_keep_their_bytes(capsys, tmp_path, argv, scene, count, digest):
    out = tmp_path / "figure.svg"
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, rep = invoke(capsys, "plot", *argv, "-o", str(out))
    assert code == 0
    noun = "pieces" if scene == "lagrangian" else "regions"
    assert rep.payload == {"scene": scene, noun: count, "out": str(out)}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("extra", [[], ["--window=-1"], ["--box", "0"], ["--window", "20"]])
def test_plot_lagrangian_refuses_a_2d_fan_before_the_skeleton(
    capsys, tmp_path, monkeypatch, extra
):
    # the dimension is refused first, so a bad window or box of a 2-D fan
    # gets the same message and no skeleton is built
    monkeypatch.setattr("ccc.cli.lambda_skeleton", lambda *args: pytest.fail("skeleton built"))
    argv = ["plot", "lagrangian", str(DATA / "p112.json"), "-o", str(tmp_path / "x.svg")]
    code, rep = invoke(capsys, *argv, *extra)
    assert code == 1
    assert rep.payload == {"error": "lagrangian plots need a one-dimensional fan"}


@pytest.mark.parametrize("window, box, error", [
    ("-1", "1", "window must be >= 0"),
    ("0", "0", "box must be positive"),
    ("0", "-1/2", "box must be positive"),
])
def test_plot_lagrangian_refuses_a_bad_window_or_box(capsys, tmp_path, window, box, error):
    argv = ["plot", "lagrangian", str(DATA / "p13.json"), "-o", str(tmp_path / "x.svg")]
    code, rep = invoke(capsys, *argv, f"--window={window}", f"--box={box}")
    assert code == 1
    assert rep.payload == {"error": error}
    assert invoke(capsys, *argv, "--window", "0")[0] == 0  # window 0 draws the zero section


RATIONAL_ERROR = "expected a rational like 3 or 1/8, got ''"
INTS_ERROR = "expected comma-separated integers, got ''"
HOM_ARGV = ["hom", "p13.json", "--theta1", "cone=0;t=1", "--theta2", "cone=0;t=0"]


@pytest.mark.parametrize("argv, error", [
    (["check", "contractibility-2d", "contract_om3.json", "--box=", "--step=1/6"], RATIONAL_ERROR),
    (["check", "contractibility-2d", "contract_om3.json", "--step="], RATIONAL_ERROR),
    (["check", "hom-oracle", "p13.json", "--box="], RATIONAL_ERROR),
    ([*HOM_ARGV, "--oracle", "--box="], RATIONAL_ERROR),
    (["plot", "lagrangian", "p13.json", "--box=", "-o"], RATIONAL_ERROR),
    (["plot", "region", "p112.json", "--theta", "cone=0,1;t=1,0", "--box=", "-o"], RATIONAL_ERROR),
    (["plot", "region", "contract_crepant_a1.json", "--J=", "--phi", "0,0", "-o"], INTS_ERROR),
    (["plot", "region", "contract_crepant_a1.json", "--J", "1,2", "--phi=", "-o"], INTS_ERROR),
    # an option the verb would not read
    ([*HOM_ARGV, "--box", "abc"], "--box is the oracle's box bound: it needs --oracle"),
    (
        ["plot", "region", "contract_crepant_a1.json", "--J", "1,2", "--phi", "0,0",
         "--theta", "garbage", "-o"],
        "plot region takes either --theta or --J with --phi, not both",
    ),
])
def test_an_empty_or_unread_option_is_refused(capsys, tmp_path, argv, error):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    if argv[-1] == "-o":
        argv.append(str(tmp_path / "x.svg"))
    code, rep = invoke(capsys, *argv)
    assert code == 1
    assert rep.payload == {"error": error}
    assert not (tmp_path / "x.svg").exists()


def _readme_cli_lines() -> list[str]:
    """Every `ccc ...` line of the README's CLI code block."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("ccc ")]


def test_readme_cli_block_shows_every_verb():
    leaves = set()
    for verb, node in _VERB_TREE.items():
        leaves |= {(verb, sub) for sub in node[1]} if isinstance(node[1], dict) else {(verb,)}
    shown = set()
    for line in _readme_cli_lines():
        words = shlex.split(line)[1:]
        shown.add(tuple(words[: 1 + isinstance(_VERB_TREE[words[0]][1], dict)]))
    assert shown == leaves


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch, line):
    # run from a scratch directory: data paths point into the package, -o into the directory
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    argv = [str(DATA / Path(a).name) if a.startswith("src/ccc/data/") else a for a in argv]
    if "-o" in argv:
        at = argv.index("-o") + 1
        argv[at] = str(tmp_path / argv[at])
    code = run(argv)
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert parse_report(out).status == "ok" and code == 0


def test_plot_region_staircase(capsys, tmp_path):
    out = tmp_path / "region.svg"
    code, rep = invoke(
        capsys,
        "plot",
        "region",
        str(DATA / "contract_crepant_a1.json"),
        "--J",
        "1,2",
        "--phi",
        "0,0",
        "-o",
        str(out),
    )
    assert code == 0
    assert rep.payload == {"scene": "region-2d", "regions": 2, "out": str(out)}
    text = out.read_text()
    assert "stroke-dasharray" in text  # strict faces drawn dashed


def test_plot_region_refuses_a_3d_staircase(capsys, tmp_path):
    doc = tmp_path / "contract_3d.json"
    doc.write_text(json.dumps({
        "rays": [{"v": [1, 0, 0], "weight": 2}, {"v": [0, 1, 0], "weight": 2}, {"v": [0, 0, 1]}],
        "extra": {"v": [1, 1, 0]},
    }), encoding="utf-8")
    code, rep = invoke(
        capsys, "plot", "region", str(doc), "--J", "0,3", "--phi", "0,0",
        "-o", str(tmp_path / "x.svg"),
    )
    assert code == 1
    assert rep.status == "invalid-input"
    assert rep.payload["error"] == "staircase region plots need a two-dimensional setup"
    assert not (tmp_path / "x.svg").exists()


def test_plot_region_needs_a_subject(capsys, tmp_path):
    code, rep = invoke(
        capsys,
        "plot",
        "region",
        str(DATA / "contract_crepant_a1.json"),
        "-o",
        str(tmp_path / "x.svg"),
    )
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["--pretty", "--help"],
    ["validate", "--help"],
    ["check", "-h"],
    ["check", "contractibility-2d", "-h", "--window", "x"],
    ["fm", "contract-pull", "missing.json", "--J", "1", "--help"],
])
def test_help_is_one_ok_report(capsys, argv):
    code, rep = invoke(capsys, *argv)
    assert code == 0
    assert rep.status == "ok"
    assert rep.witnesses == []
    assert set(rep.payload) == {"help"}
    assert rep.payload["help"].startswith("usage: ccc ")


# --- fuzzing run() over real verbs, flags and documents ----------------------

_VERBS = {
    ("validate",): (),
    ("hom",): ("--theta1", "--theta2", "--oracle", "--box"),
    ("fm", "same-base"): ("--bundle", "--theta"),
    ("fm", "contract-push"): ("--bundle", "--theta"),
    ("fm", "contract-pull"): ("--J", "--phi"),
    ("check", "poset-embedding"): ("--window",),
    ("check", "hom-oracle"): ("--window", "--box"),
    ("check", "case3-sandwich"): ("--window",),
    ("check", "contractibility-2d"): ("--window", "--box", "--step"),
    ("plot", "lagrangian"): ("--window", "--box", "-o"),
    ("plot", "region"): ("--theta", "--J", "--phi", "--box", "-o"),
}


class _ReferenceHelp(Exception):
    """The reference parser's -h or --help."""


class _Reference(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidArgument(message)

    def print_help(self, file=None):
        raise _ReferenceHelp(self.format_help())


def _add_verbs(parser, tree: dict, dests: tuple[str, ...]) -> None:
    sub = parser.add_subparsers(dest=dests[0], required=True)
    for name, node in tree.items():
        p = sub.add_parser(name, help=node[0], allow_abbrev=False)
        if isinstance(node[1], dict):
            _add_verbs(p, node[1], dests[1:])
            continue
        _, handler, arguments = node
        for arg in arguments:
            if isinstance(arg, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flags, options in arg:
                    group.add_argument(*flags, **options)
            else:
                p.add_argument(*arg[0], **arg[1])
        p.set_defaults(handler=handler)


def _reference_parser() -> _Reference:
    """The verb tree as argparse reads it, with no abbreviations at any level."""
    parser = _Reference(prog="ccc", description=_DESCRIPTION, allow_abbrev=False)
    parser.add_argument(*_PRETTY[0], **_PRETTY[1])
    _add_verbs(parser, _VERB_TREE, ("verb", "subverb"))
    return parser


_REFERENCE = _reference_parser()


def _outcome(argv):
    """What the ccc parser makes of argv: its fields, its refusal, or help."""
    try:
        return "fields", vars(_parse(argv))
    except InvalidArgument as exc:
        return "refused", str(exc)
    except _Help:
        return "help", None


def _reference_outcome(argv):
    try:
        return "fields", vars(_REFERENCE.parse_args(argv))
    except InvalidArgument as exc:
        return "refused", str(exc)
    except _ReferenceHelp:
        return "help", None


def assert_parse_matches_reference(argv):
    """argv gives the fields and handler, the refusal or the help that argparse gives."""
    assert _outcome(list(argv)) == _reference_outcome(list(argv))


def _tree_paths(tree=_VERB_TREE, prefix=()):
    """Every verb path of the tree, groups and leaves, each group before its verbs."""
    for name, node in tree.items():
        yield prefix + (name,)
        if isinstance(node[1], dict):
            yield from _tree_paths(node[1], prefix + (name,))


def _node(path):
    node = ("", _VERB_TREE)
    for name in path:
        node = node[1][name]
    return node


_LEAVES = [path for path in _tree_paths() if not isinstance(_node(path)[1], dict)]


def _leaf_arguments(path) -> list[tuple[str, ...]]:
    """The flags of each argument of a leaf, one-of groups flattened."""
    return [
        flags for arg in _node(path)[2] for flags, _ in (arg if isinstance(arg, list) else [arg])
    ]


def _leaf_flags(path) -> list[str]:
    return [flag for flags in _leaf_arguments(path) for flag in flags]


def test_fuzzed_verbs_are_the_leaves_of_the_tree():
    assert sorted(_VERBS) == sorted(_LEAVES)
    for path in _LEAVES:
        options = {flags[0] for flags in _leaf_arguments(path) if flags[0].startswith("-")}
        assert set(_VERBS[path]) == options


@pytest.mark.parametrize("verb", sorted(_VERBS))
def test_parser_matches_reference_per_leaf(verb):
    path = str(DATA / "p13.json")
    for argv in (
        [*verb, path],
        [*verb, "-h"],
        [*verb, path, "--help", "--window", "x"],
        [*verb, path, "--window", "x", "--help"],
        ["--pretty", *verb, path, *_VERBS[verb][:1], "1"],
        [*verb, path, *_VERBS[verb][-1:], "-1"],
        [*verb, path, *_VERBS[verb][-1:], "-1,1"],
        [*verb, path, *(f"{flag}=-1,1" for flag in _VERBS[verb])],
        [*verb, path, "--pretty", "--bogus"],
        [*verb, "--", path],
        [*verb, path, "--"],
        [*verb, path, "--", "x"],
        [*verb, "--", "--", path],
        [*verb, "-h=", path],
        [*verb, "-hx", path],
        [*verb, path, "-ho", "x.svg"],
        [*verb, path, "-ox.svg", "--oracle=x"],
        [*verb],
    ):
        assert_parse_matches_reference(argv)


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--pretty", "--help"],
    ["--help=x"],
    ["--pretty=x", "validate", "F"],
    ["-hx"],
    ["check"],
    ["check", "-h"],
    ["fm", "--help"],
    ["check", "bogus"],
    ["check", "bogus", "-h"],
    ["check", "--bogus"],
    ["check", "--window", "2", "hom-oracle", "F"],
    ["bogus", "validate"],
    ["check", "--pretty", "hom-oracle", "F"],
    ["--", "validate", "F"],
    ["--"],
    ["check", "--"],
    ["--bogus", "validate", "F"],
    ["--pretty", "--pretty", "hom", "F", "--theta1", "cone=0;t=1", "--theta2", "cone=;t="],
    ["hom", "F", "--theta1=cone=0;t=1", "--theta2", "cone=;t=", "--oracle", "--oracle"],
    ["hom", "F", "--theta1", "-1 1", "--theta2", "-.5", "--box", "-2"],
    ["hom", "F", "--theta1", "-1\n", "--theta2", "-1.", "--box", "-"],
    ["hom", "F", "--theta1", "", "--theta2", "--", "--box", "1"],
    ["validate", "-h"],
    ["validate", "F", "G", "--", "H"],
    ["check", "hom-oracle", "-h"],
    ["check", "hom-oracle", "F", "--window", " 3 "],
    ["check", "hom-oracle", "F", "--window", "\u0663", "--window=-2"],
    ["check", "hom-oracle", "F", "--window", "4", "--box="],
    ["check", "hom-oracle", "F", "--win", "2"],
    ["check", "hom-oracle", "F", "--window"],
    ["fm", "same-base", "F", "--bundle", "1", "--bundle", "2"],
    ["fm", "same-base", "F", "--theta", "t", "--bundle", "1"],
    ["fm", "same-base", "F", "--bundle", "1", "--theta", "t", "-h"],
    ["fm", "same-base", "F", "-h", "--bundle", "1", "--theta", "t"],
    ["fm", "contract-pull", "F", "--J", "1", "--phi", "-1,1"],
    ["fm", "contract-pull", "F", "--J", "1", "--phi=-1,1", "--J=2"],
    ["plot", "region", "F", "--help"],
    ["plot", "region", "F", "-o=x.svg", "--theta", "t"],
    ["plot", "region", "F", "-ox.svg", "-o", "y.svg"],
    ["plot", "region", "F", "-o"],
    ["plot", "lagrangian", "-o", "F", "x.svg"],
    ["plot", "lagrangian", "F", "-hox.svg"],
    ["plot", "lagrangian", "F", "-oh"],
    ["plot", "lagrangian", "F", "--out", "x.svg", "-h=x"],
])
def test_parser_matches_reference_pinned(argv):
    argv = [str(DATA / "p13.json") if a == "F" else a for a in argv]
    assert_parse_matches_reference(argv)


# one token pool per fuzzed argv: every verb and flag, and the forms argparse reads
# specially (attached values, joined short flags, "--", negative numbers, spaces)
_TOKENS = sorted({name for path in _tree_paths() for name in path} | {
    flag for path in _LEAVES for flag in _leaf_flags(path)
} | {
    "--pretty", "-h", "--help", "--", "-", "", "x", "F", "1", "-1", "-1,1", "-.5", "-1.",
    "a b", "-1\n", "-ofile", "-o=x", "-ho", "-hx", "-h=", "--help=x", "--pretty=", "--oracle=",
    "--oracle=x", "--window=2", "--window=x", "--win", "--win=2", "--bundle=1", "--J=-1",
    "--out=", "-x", "--bogus", "--theta1=t",
})


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(_TOKENS), max_size=2),
    st.sampled_from([(), *_tree_paths()]),
    st.lists(st.sampled_from(_TOKENS), max_size=8),
)
def test_parser_matches_reference_on_any_tokens(before, path, after):
    assert_parse_matches_reference([*before, *path, *after])


@pytest.mark.parametrize("argv, error", [
    (["hom", "F"], "the following arguments are required: --theta1, --theta2"),
    (["check", "hom-oracle", "F", "--window", "x"], "argument --window: invalid int value: 'x'"),
    (["fm", "same-base", "F"], "one of the arguments --bundle --theta is required"),
    (
        ["fm", "same-base", "F", "--bundle", "1,1", "--theta", "cone=0;t=1"],
        "argument --theta: not allowed with argument --bundle",
    ),
    (["validate", "F", "b"], "unrecognized arguments: b"),
    (
        ["check", "bogus"],
        "argument subverb: invalid choice: 'bogus' (choose from 'poset-embedding', "
        "'hom-oracle', 'case3-sandwich', 'contractibility-2d')",
    ),
    (["check"], "the following arguments are required: subverb"),
    (
        ["fm", "contract-pull", "F", "--J", "1,2", "--phi", "-1,0"],
        "argument --phi: expected one argument",
    ),
    # a --J that names no cone of sigma1, refused by Cone and ThetaIndex
    (["fm", "contract-pull", "F", "--J", "1,1", "--phi=0,0"], "repeated ray index in cone (1, 1)"),
    (["fm", "contract-pull", "F", "--J", "1,3", "--phi=0,0"], "cone (1, 3) is not in the fan"),
    (["fm", "contract-pull", "F", "--J=-1,2", "--phi=0,0"], "cone (-1, 2) is not in the fan"),
    (
        ["plot", "region", "F", "--J", "0,1", "--phi=0,0", "-o", "unwritten.svg"],
        "cone (0, 1) is not in the fan",
    ),
    (
        ["fm", "contract-pull", "F", "--J", "1,2", "--phi", "0"],
        "phi must have one threshold per index of J",
    ),
])
def test_refusal_messages_keep_their_wording(capsys, argv, error):
    argv = [str(DATA / "contract_crepant_a1.json") if a == "F" else a for a in argv]
    code, rep = invoke(capsys, *argv)
    assert code == 1
    assert rep.payload == {"error": error}


@pytest.mark.parametrize("argv, rest", [
    (["check", "hom-oracle", "p112.json", "--win", "2"], "--win 2"),
    (["check", "hom-oracle", "p112.json", "--window=2", "--bo", "3"], "--bo 3"),
    (["hom", "p13.json", "--theta1", "cone=;t=", "--theta2", "cone=;t=", "--orac"], "--orac"),
    (["fm", "same-base", "samebase_p12_p13.json", "--theta", "cone=0;t=2", "--bund=3,0"],
     "--bund=3,0"),
    (["plot", "lagrangian", "p13.json", "-o", "x.svg", "--wind", "3"], "--wind 3"),
])
def test_abbreviated_options_are_refused_below_the_top(capsys, argv, rest):
    # argparse's subparsers took --win for --window; no level takes an abbreviation now
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    code, rep = invoke(capsys, *argv)
    assert code == 1
    assert rep.payload["error"].endswith(f"unrecognized arguments: {rest}")
    assert _reference_outcome(argv)[0] == "refused"


def _help_text(capsys, *argv) -> str:
    code, rep = invoke(capsys, *argv, "--help")
    assert code == 0
    return rep.payload["help"]


@pytest.mark.parametrize("path", _LEAVES, ids=" ".join)
def test_leaf_help_lists_every_option(capsys, path):
    text = _help_text(capsys, *path)
    assert text.startswith(f"usage: ccc {' '.join(path)} [-h] file")
    assert _node(path)[0] in text
    for flag in _leaf_flags(path):
        assert re.search(rf"(^|[\s\[(]){re.escape(flag)}\b", text), flag


def test_top_and_group_help_list_every_verb_below_them(capsys):
    top = _help_text(capsys)
    assert top.startswith("usage: ccc [-h] [--pretty] ")
    assert _DESCRIPTION in top and "--pretty" in top
    for path in _tree_paths():
        assert re.search(rf"^ +{re.escape(path[-1])} +{re.escape(_node(path)[0])}$", top, re.M)
        if isinstance(_node(path)[1], dict):
            text = _help_text(capsys, *path)
            assert text.startswith(f"usage: ccc {path[0]} [-h] ")
            for name, node in _node(path)[1].items():
                assert re.search(rf"^ +{re.escape(name)} +{re.escape(node[0])}$", text, re.M)


_THETAS = st.sampled_from([
    "cone=0;t=1", "cone=;t=", "cone=0,2;t=1,0", "cone=1;t=-1", "cone=2;t=0",
    "cone=0,1;t=1", "cone=5;t=0", "t=1", "cone=a;t=b", "",
])
_INTS = st.lists(st.integers(-2, 3), max_size=3).map(
    lambda xs: ",".join(map(str, xs))
) | st.sampled_from(["a", "1,,2"])
# small windows keep every sweep well under a second; the huge one must be
# refused by a pair or piece cap, or bounded by the box, before anything is built
_VALUES = {
    "--theta1": _THETAS,
    "--theta2": _THETAS,
    "--theta": _THETAS,
    "--box": st.sampled_from(["3", "1/2", "0", "-2", "7/3", "12", "100000", "x", "1/0"]),
    "--step": st.sampled_from(["1/2", "1", "0", "-1/4", "x"]),
    "--window": st.sampled_from(["-1", "0", "1", "100000", "x", ""]),
    "--bundle": _INTS,
    "--J": _INTS,
    "--phi": _INTS,
}
_BARE = ("--oracle", "-h", "--help")  # flags without a value
_DOC_KEYS = ("dim", "rays", "v", "weight", "max_cones", "extra", "fan", "r", "s")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_DOC_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _mutated(draw, doc):
    """A bundled document with one subtree replaced by arbitrary JSON."""
    if isinstance(doc, dict) and doc and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(doc)))
        return {**doc, key: draw(_mutated(doc[key]))}
    if isinstance(doc, list) and doc and draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(doc) - 1))
        return [*doc[:i], draw(_mutated(doc[i])), *doc[i + 1:]]
    return draw(_JSON)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_run_gives_one_report_for_any_argv(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    verb = data.draw(st.sampled_from(sorted(_VERBS)))
    names = sorted(p.name for p in DATA.glob("*.json"))
    source = data.draw(st.sampled_from(["bundled", "mutated", "json", "missing"]))
    if source in ("bundled", "missing"):
        path = str(DATA / data.draw(st.sampled_from(names)))
        path = path if source == "bundled" else path + ".missing"
    else:
        doc = data.draw(st.sampled_from(names).map(lambda n: json.loads((DATA / n).read_text())))
        doc = data.draw(_mutated(doc)) if source == "mutated" else data.draw(_JSON)
        path = str(tmp / "doc.json")
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
    argv = list(verb) + [path]
    # --oracle also stands for a flag that most verbs do not take
    flags = st.sampled_from(_VERBS[verb] + _BARE)
    for flag in data.draw(st.lists(flags, max_size=4)):
        argv.append(flag)
        if flag == "-o":
            argv.append(str(tmp / "figure.svg"))
        elif flag not in _BARE:
            argv.append(data.draw(_VALUES[flag]))
    if data.draw(st.booleans()):
        argv.insert(data.draw(st.integers(0, len(argv))), "--pretty")
    assert_parse_matches_reference(argv)
    kind, fields = _reference_outcome(argv)
    pretty = kind == "fields" and fields["pretty"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    text = out.getvalue()
    assert code in (0, 1, 2)
    rep = parse_report(text)
    assert {"ok": 0, "invalid-input": 1, "check-failed": 2}[rep.status] == code
    # one line exactly when the accepted argv has no top-level --pretty
    assert (text.count("\n") == 1) == (not pretty)
