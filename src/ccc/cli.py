"""Command line front end: file ingestion, dispatch, reports, figures.

Every command is a thin adapter: it parses arguments, calls one or two
library functions, and serializes the result.  No geometry is computed
here.  Reports are JSON with sorted keys and rationals rendered "p/q",
so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import CCCError, InvalidArgument
from .fm import (
    fm3_region,
    fm_case1,
    fm_case2,
    fm_line_bundle_case1,
    fm_line_bundle_case2,
)
from .stackyfan import (
    is_complete,
    parse_contraction,
    parse_same_base,
    parse_stacky_fan,
)
from .svgfig import regions_svg, skeleton_svg
from .sweeps import (
    contractibility_sweep,
    hom_oracle_pair,
    hom_oracle_sweep,
    poset_embedding_report,
    sandwich_sweep,
)
from .thetapos import (
    ThetaIndex,
    format_theta,
    hom_constructible,
    lambda_skeleton,
    parse_theta,
    support,
)

_EXIT = {"ok": 0, "invalid-input": 1, "check-failed": 2}


@dataclass
class Report:
    status: str
    payload: object
    witnesses: list


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise InvalidArgument(f"cannot serialize {type(x).__name__} into a report")


def emit_report(report: Report, format: str = "json-lines") -> str:
    doc = {
        "status": report.status,
        "payload": _jsonable(report.payload),
        "witnesses": _jsonable(report.witnesses),
    }
    if format == "json-lines":
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if format == "pretty":
        return json.dumps(doc, sort_keys=True, indent=2)
    raise InvalidArgument(f"unknown report format {format!r}")


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidArgument(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"{path} is not valid JSON: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InvalidArgument(f"cannot write {path}: {exc}") from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidArgument(f"expected comma-separated integers, got {text!r}") from None


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument(f"expected a rational like 3 or 1/8, got {text!r}") from None


def _poly_json(poly) -> dict:
    return {
        "dim": poly.dim,
        "constraints": [
            {"normal": list(n), "threshold": r, "strict": s} for n, r, s in poly.canonical()
        ],
    }


def _check_report(sweep, witnesses, **counts) -> Report:
    """Payload: the sweep's fields but its witness tuple, plus counts; ok iff no witnesses."""
    payload = {k: v for k, v in vars(sweep).items() if not isinstance(v, tuple)}
    status = "check-failed" if witnesses else "ok"
    return Report(status=status, payload=payload | counts, witnesses=sorted(witnesses))


def _sweep_key(key) -> list:
    # a theta prints as its string form, a staircase chart as J and phi
    if isinstance(key, ThetaIndex):
        return [format_theta(key)]
    J, phi = key
    return [list(J), list(phi)]


# --- command handlers -------------------------------------------------------


def _cmd_validate(args) -> Report:
    fan = parse_stacky_fan(_load(args.file))
    payload = {
        "dim": fan.dim,
        "rays": len(fan.rays),
        "max_cones": len(fan.max_cones),
        "complete": is_complete(fan),
    }
    return Report(status="ok", payload=payload, witnesses=[])


def _cmd_hom(args) -> Report:
    fan = parse_stacky_fan(_load(args.file))
    th1 = parse_theta(fan, args.theta1)
    th2 = parse_theta(fan, args.theta2)
    res = hom_constructible(th1, th2)
    payload = {"value": res.value, "reason": res.reason}
    status, witnesses = "ok", []
    if args.oracle:
        oracle, bound = hom_oracle_pair(th1, th2, _rational(args.box) if args.box else None)
        payload["oracle"] = {"value": oracle.value, "reason": oracle.reason, "box": bound}
        if oracle.value != res.value:
            status = "check-failed"
            witnesses = [[format_theta(th1), format_theta(th2)]]
    return Report(status=status, payload=payload, witnesses=witnesses)


def _cmd_fm_same_base(args) -> Report:
    setup = parse_same_base(_load(args.file))
    if args.bundle is not None:
        payload = {"bundle": list(fm_line_bundle_case1(setup, _ints(args.bundle)))}
    else:
        theta = parse_theta(setup.fan_s, args.theta)
        payload = {"theta": format_theta(fm_case1(setup, theta))}
    return Report(status="ok", payload=payload, witnesses=[])


def _cmd_fm_contract_push(args) -> Report:
    setup = parse_contraction(_load(args.file))
    if args.bundle is not None:
        payload = {"bundle": list(fm_line_bundle_case2(setup, _ints(args.bundle)))}
    else:
        theta = parse_theta(setup.sigma2, args.theta)
        image, terms = fm_case2(setup, theta)
        payload = {
            "image": _poly_json(image),
            "terms": [format_theta(t) for t in terms],
        }
    return Report(status="ok", payload=payload, witnesses=[])


def _cmd_fm_contract_pull(args) -> Report:
    setup = parse_contraction(_load(args.file))
    ch = fm3_region(setup, _ints(args.J), _ints(args.phi))
    payload = {
        "J": list(ch.J),
        "j_prime": list(ch.j_prime),
        "i0": ch.i0,
        "discrepancy": setup.discrepancy,
        "s1": ch.s1,
        "outer": _poly_json(ch.outer),
        "inner": _poly_json(ch.inner) if ch.inner is not None else None,
    }
    return Report(status="ok", payload=payload, witnesses=[])


def _cmd_check_poset(args) -> Report:
    setup = parse_same_base(_load(args.file))
    rep = poset_embedding_report(setup, args.window)
    violations = sorted(
        [format_theta(a), format_theta(b), direction] for a, b, direction in rep.violations
    )
    return _check_report(rep, violations, violations=violations)


def _cmd_check_hom_oracle(args) -> Report:
    fan = parse_stacky_fan(_load(args.file))
    rep = hom_oracle_sweep(fan, args.window, _rational(args.box) if args.box else None)
    witnesses = [
        [format_theta(th1), format_theta(th2), fast, slow]
        for th1, th2, fast, slow in rep.disagreements
    ]
    return _check_report(rep, witnesses, disagreements=len(witnesses))


def _cmd_check_sandwich(args) -> Report:
    setup = parse_contraction(_load(args.file))
    rep = sandwich_sweep(setup, args.window)
    witnesses = [[list(J), list(phi), list(x), kind] for J, phi, x, kind in rep.violations]
    return _check_report(rep, witnesses, violations=len(witnesses))


def _cmd_check_contractibility(args) -> Report:
    setup = parse_contraction(_load(args.file))
    rep = contractibility_sweep(
        setup,
        args.window,
        bbox=_rational(args.box) if args.box else Fraction(6),
        step=_rational(args.step) if args.step else Fraction(1, 4),
    )
    witnesses = [[tag, *_sweep_key(k1), *_sweep_key(k2)] for tag, k1, k2 in rep.witnesses]
    return _check_report(rep, witnesses)


def _cmd_plot_lagrangian(args) -> Report:
    fan = parse_stacky_fan(_load(args.file))
    if fan.dim != 1:
        raise InvalidArgument("lagrangian plots need a one-dimensional fan")
    box = _rational(args.box) if args.box else Fraction(1)
    pieces = lambda_skeleton(fan, args.window, box)
    _write(args.out, skeleton_svg(fan, pieces, box))
    return Report(
        status="ok",
        payload={"scene": "lagrangian", "pieces": len(pieces), "out": args.out},
        witnesses=[],
    )


def _cmd_plot_region(args) -> Report:
    doc = _load(args.file)
    box = _rational(args.box) if args.box else Fraction(6)
    if args.J or args.phi:
        if not (args.J and args.phi):
            raise InvalidArgument("staircase plots need both --J and --phi")
        setup = parse_contraction(doc)
        if setup.sigma2.dim != 2:
            raise InvalidArgument("staircase region plots need a two-dimensional setup")
        ch = fm3_region(setup, _ints(args.J), _ints(args.phi))
        regions = [(ch.outer, "#4682b4")]
        if ch.inner is not None:
            regions.append((ch.inner, "#46b482"))
        scene = "region-2d"
    elif args.theta:
        fan = parse_stacky_fan(doc)
        theta = parse_theta(fan, args.theta)
        if fan.dim not in (1, 2):
            raise InvalidArgument("region plots support dimensions 1 and 2 only")
        regions = [(support(theta, open=True), "#4682b4")]
        scene = f"region-{fan.dim}d"
    else:
        raise InvalidArgument("plot region needs either --theta or --J with --phi")
    _write(args.out, regions_svg(regions, box))
    payload = {"scene": scene, "regions": len(regions), "out": args.out}
    return Report(status="ok", payload=payload, witnesses=[])


# --- parser and entry point -------------------------------------------------


class _Help(Exception):
    """-h or --help at any level: the parser's help text, for an ok report."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidArgument(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _arg(*flags, **options) -> tuple:
    return flags, options


# The verb tree, declared once for the parser builder and the path picker.
# A group is (help, {name: node}); a leaf is (help, handler, arguments), where
# an argument is an _arg or a list of them forming a required one-of group.
_VERB_TREE = {
    "validate": ("parse and validate a stacky fan file", _cmd_validate, [_arg("file")]),
    "hom": ("hom between two theta indices", _cmd_hom, [
        _arg("file"),
        _arg("--theta1", required=True),
        _arg("--theta2", required=True),
        _arg("--oracle", action="store_true", help="also run the module oracle"),
        _arg("--box", help="oracle box bound (rational)"),
    ]),
    "fm": ("apply a transform", {
        "same-base": ("weight-change transform, s to r", _cmd_fm_same_base, [
            _arg("file"),
            [
                _arg("--bundle", help="line bundle coefficients c1,c2,..."),
                _arg("--theta", help="theta index 'cone=...;t=...'"),
            ],
        ]),
        "contract-push": ("pushforward along the contraction", _cmd_fm_contract_push, [
            _arg("file"),
            [_arg("--bundle"), _arg("--theta")],
        ]),
        "contract-pull": ("staircase pullback of one chart theta", _cmd_fm_contract_pull, [
            _arg("file"),
            _arg("--J", required=True, help="chart ray indices i,j,..."),
            _arg("--phi", required=True, help="thresholds c_i per index of J"),
        ]),
    }),
    "check": ("run a verification sweep", {
        "poset-embedding": ("order embedding of the weight map", _cmd_check_poset, [
            _arg("file"),
            _arg("--window", type=int, default=4),
        ]),
        "hom-oracle": ("hom agreement against the module oracle", _cmd_check_hom_oracle, [
            _arg("file"),
            _arg("--window", type=int, default=2),
            _arg("--box"),
        ]),
        "case3-sandwich": ("staircase sandwich and stalk agreement", _cmd_check_sandwich, [
            _arg("file"),
            _arg("--window", type=int, default=1),
        ]),
        "contractibility-2d": ("raster-confirm zero verdicts", _cmd_check_contractibility, [
            _arg("file"),
            _arg("--window", type=int, default=1),
            _arg("--box"),
            _arg("--step"),
        ]),
    }),
    "plot": ("emit an SVG figure", {
        "lagrangian": ("skeleton phase plot for a 1d fan", _cmd_plot_lagrangian, [
            _arg("file"),
            _arg("--window", type=int, default=3),
            _arg("--box"),
            _arg("-o", "--out", required=True),
        ]),
        "region": ("support or staircase region figure", _cmd_plot_region, [
            _arg("file"),
            _arg("--theta"),
            _arg("--J"),
            _arg("--phi"),
            _arg("--box"),
            _arg("-o", "--out", required=True),
        ]),
    }),
}


def _verb_path(argv) -> tuple[str, ...] | None:
    """The leaf verb that argv names after any leading --pretty, else None.

    Only an exact (verb,) or (verb, subverb) right there counts.  Help at
    the top or middle level, a missing or unknown verb, and every other
    argv give None: those are the argvs whose report can list sibling
    verbs, so they get the whole tree.
    """
    i = 0
    while i < len(argv) and argv[i] == "--pretty":
        i += 1
    path, tree = (), _VERB_TREE
    for token in argv[i : i + 2]:
        node = tree.get(token)
        if node is None:
            return None
        path += (token,)
        if not isinstance(node[1], dict):
            return path
        tree = node[1]
    return None


def _add_verbs(parser, tree: dict, dests: tuple[str, ...], path) -> None:
    """Subparsers for the nodes of tree, or for the one node path names."""
    sub = parser.add_subparsers(dest=dests[0], required=True)
    for name, node in tree.items():
        if path and name != path[0]:
            continue
        p = sub.add_parser(name, help=node[0])
        if isinstance(node[1], dict):
            _add_verbs(p, node[1], dests[1:], path[1:] if path else None)
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


def _build_parser(path=None) -> _Parser:
    """The parser for the leaf verb path names, or for the whole tree."""
    # no abbreviations: run() reads --pretty off argv verbatim, before parsing
    parser = _Parser(prog="ccc", description="Exact toric orbifold kernel", allow_abbrev=False)
    parser.add_argument("--pretty", action="store_true", help="indent the JSON report")
    _add_verbs(parser, _VERB_TREE, ("verb", "subverb"), path)
    return parser


def run(argv) -> int:
    fmt = "pretty" if "--pretty" in argv else "json-lines"
    try:
        args = _build_parser(_verb_path(argv)).parse_args(argv)
        report = args.handler(args)
    except _Help as exc:
        report = Report(status="ok", payload={"help": str(exc)}, witnesses=[])
    except CCCError as exc:
        report = Report(status="invalid-input", payload={"error": str(exc)}, witnesses=[])
    print(emit_report(report, fmt))
    return _EXIT[report.status]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
