"""Command line front end: file ingestion, dispatch, reports, figures.

Every command is a thin adapter: it parses arguments, calls one or two
library functions, and serializes the result.  No geometry is computed
here.  Reports are JSON with sorted keys and rationals rendered "p/q",
so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .errors import CCCError, InvalidArgument
from .fm import (
    chart_theta,
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
    format_int,
    format_theta,
    hom_constructible,
    lambda_skeleton,
    parse_theta,
    support,
)

_EXIT = {"ok": 0, "invalid-input": 1, "check-failed": 2}


class Report(NamedTuple):
    status: str
    payload: object
    witnesses: list


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        format_int(x)  # refuses an integer that json could not write
        return x
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _jsonable(x.numerator)
        return f"{format_int(x.numerator)}/{format_int(x.denominator)}"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    # exactly list and tuple: a named tuple is a value of the package, not a list
    if type(x) in (list, tuple):
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
    except UnicodeDecodeError as exc:
        raise InvalidArgument(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidArgument(f"{path} nests too deeply to read") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise InvalidArgument(f"{path} holds a number too long to read: {exc}") from None


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


def _rational(text: str | None, default: Fraction | None = None) -> Fraction | None:
    """The rational an option gives, or default when it is not given; an empty value is refused."""
    if text is None:
        return default
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
    payload = {k: v for k, v in sweep._asdict().items() if not isinstance(v, tuple)}
    status = "check-failed" if witnesses else "ok"
    return Report(status=status, payload=payload | counts, witnesses=sorted(witnesses))


def _sweep_key(tag: str, key) -> list:
    # a theta to push prints as its string form, a chart theta to pull as J and phi
    if tag == "push":
        return [format_theta(key)]
    return [list(key.cone.ray_indices), list(key.t)]


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
    if args.box is not None and not args.oracle:
        raise InvalidArgument("--box is the oracle's box bound: it needs --oracle")
    fan = parse_stacky_fan(_load(args.file))
    th1 = parse_theta(fan, args.theta1)
    th2 = parse_theta(fan, args.theta2)
    res = hom_constructible(th1, th2)
    payload = {"value": res.value, "reason": res.reason}
    status, witnesses = "ok", []
    if args.oracle:
        oracle, bound = hom_oracle_pair(th1, th2, _rational(args.box))
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
    ch = fm3_region(setup, chart_theta(setup, _ints(args.J), _ints(args.phi)))
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
    rep = hom_oracle_sweep(fan, args.window, _rational(args.box))
    witnesses = [
        [format_theta(th1), format_theta(th2), fast, slow]
        for th1, th2, fast, slow in rep.disagreements
    ]
    return _check_report(rep, witnesses, disagreements=len(witnesses))


def _cmd_check_sandwich(args) -> Report:
    setup = parse_contraction(_load(args.file))
    rep = sandwich_sweep(setup, args.window)
    witnesses = [[*_sweep_key("pull", key), list(x), kind] for key, x, kind in rep.violations]
    return _check_report(rep, witnesses, violations=len(witnesses))


def _cmd_check_contractibility(args) -> Report:
    setup = parse_contraction(_load(args.file))
    rep = contractibility_sweep(
        setup, args.window, bbox=_rational(args.box), step=_rational(args.step)
    )
    witnesses = [[tag, *_sweep_key(tag, k1), *_sweep_key(tag, k2)] for tag, k1, k2 in rep.witnesses]
    return _check_report(rep, witnesses)


def _cmd_plot_lagrangian(args) -> Report:
    fan = parse_stacky_fan(_load(args.file))
    if fan.dim != 1:
        raise InvalidArgument("lagrangian plots need a one-dimensional fan")
    box = _rational(args.box, Fraction(1))
    pieces = lambda_skeleton(fan, args.window, box)
    _write(args.out, skeleton_svg(fan, pieces, box))
    return Report(
        status="ok",
        payload={"scene": "lagrangian", "pieces": len(pieces), "out": args.out},
        witnesses=[],
    )


def _cmd_plot_region(args) -> Report:
    doc = _load(args.file)
    box = _rational(args.box, Fraction(6))
    if args.J is not None or args.phi is not None:
        if args.J is None or args.phi is None:
            raise InvalidArgument("staircase plots need both --J and --phi")
        if args.theta is not None:
            raise InvalidArgument("plot region takes either --theta or --J with --phi, not both")
        setup = parse_contraction(doc)
        if setup.sigma2.dim != 2:
            raise InvalidArgument("staircase region plots need a two-dimensional setup")
        ch = fm3_region(setup, chart_theta(setup, _ints(args.J), _ints(args.phi)))
        regions = [(ch.outer, "#4682b4")]
        if ch.inner is not None:
            regions.append((ch.inner, "#46b482"))
        scene = "region-2d"
    elif args.theta is not None:
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
    """-h or --help at any level: the help text of that level, for an ok report."""


def _arg(*flags, **options) -> tuple:
    return flags, options


# The verb tree, the one declaration of the command line.  A group is
# (help, {name: node}); a leaf is (help, handler, arguments), where an
# argument is an _arg or a list of them forming a required one-of group.
# An _arg takes argparse's option words: required, default, type=int,
# action="store_true" and help.
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

_DESCRIPTION = "Exact toric orbifold kernel"
_PRETTY = _arg("--pretty", action="store_true", help="indent the JSON report")
_HELP = _arg("-h", "--help", action="help", help="show this help and exit")
_FLAG_ACTIONS = ("help", "store_true")  # arguments that take no value
_VERB_DESTS = ("verb", "subverb")  # the field a group's choice fills, by depth


def _arguments(path, node) -> list:
    """A level's arguments after -h: --pretty at the top, none in a group, a leaf's own."""
    if isinstance(node[1], dict):
        return [] if path else [_PRETTY]
    return node[2]


def _dest(flags) -> str:
    """The field an argument fills: its first long flag's name, or its own name."""
    long = [flag for flag in flags if flag.startswith("--")]
    return (long or flags)[0].lstrip("-").replace("-", "_")


def _refusal(flags, message: str) -> InvalidArgument:
    return InvalidArgument(f"argument {'/'.join(flags)}: {message}")


def _classify(token: str, options: dict):
    """How a level reads token: "A" for a value, else (argument, flag, attached value).

    The argument is None for an unknown option, the attached value None
    when the token carries none.
    """
    if not token.startswith("-"):
        return "A"
    if token in options:
        return options[token], token, None
    if len(token) == 1:
        return "A"
    flag, eq, value = token.partition("=")
    if eq and flag in options:
        return options[flag], flag, value
    if token[1] != "-" and token[:2] in options:
        return options[token[:2]], token[:2], token[2:]
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:  # argparse's negative number
        return "A"
    return None, token, None


def _read_level(tokens, path, node, fields, extras):
    """Read one level of argv into fields: the top or a group up to its verb, or a leaf.

    Returns the verb a group names and the tokens after it, or None at a
    leaf.  An unknown option, or a value no argument takes, goes to extras.
    """
    group = node[1] if isinstance(node[1], dict) else None
    arguments = _arguments(path, node)
    one_of = [flags for arg in arguments if isinstance(arg, list) for flags, _ in arg]
    declared = [_HELP]
    for arg in arguments:
        declared += arg if isinstance(arg, list) else [arg]
    options = {flag: arg for arg in declared for flag in arg[0] if flag.startswith("-")}
    positional = next((arg for arg in declared if arg[0][0] not in options), None)
    for flags, opts in declared[1:]:
        default = False if opts.get("action") == "store_true" else None
        fields[_dest(flags)] = opts.get("default", default)
    if group is None:
        fields["handler"] = node[1]
    else:
        dest = _VERB_DESTS[len(path)]
        fields[dest] = None
    kinds = []
    for i, token in enumerate(tokens):
        if token == "--":  # every later token is a value
            kinds += ["-"] + ["A"] * (len(tokens) - i - 1)
            break
        kinds.append(_classify(token, options))
    seen = set()

    def take(arg, value):
        flags, opts = arg
        seen.add(flags)
        if opts.get("action") == "help":
            raise _Help(_help(path, node))
        if opts.get("action") == "store_true":
            value = True
        elif "type" in opts:
            try:
                value = opts["type"](value)
            except (TypeError, ValueError):
                name = opts["type"].__name__
                raise _refusal(flags, f"invalid {name} value: {value!r}") from None
        for other in one_of if flags in one_of else ():
            if other != flags and other in seen:
                raise _refusal(flags, f"not allowed with argument {'/'.join(other)}")
        fields[_dest(flags)] = value

    i, n = 0, len(tokens)
    while i < n:
        kind = kinds[i]
        if isinstance(kind, str):
            # the positional, with a "--" just before it or just after it
            at = i + (kind == "-")
            if at == n or (group is None and positional[0] in seen):
                extras.append(tokens[i])
                i += 1
            elif group is None:
                take(positional, tokens[at])
                i = at + 1 + (at + 1 < n and kinds[at + 1] == "-")
            elif tokens[i] in group:
                fields[dest] = tokens[i]
                return tokens[i], tokens[i + 1 :]
            else:
                choices = ", ".join(map(repr, group))
                raise InvalidArgument(
                    f"argument {dest}: invalid choice: {tokens[i]!r} (choose from {choices})"
                )
            continue
        arg, flag, attached = kind
        if arg is None:
            extras.append(tokens[i])
            i += 1
            continue
        taken = []
        while True:
            flags, opts = arg
            takes_value = opts.get("action") not in _FLAG_ACTIONS
            if attached is None:
                if not takes_value:
                    taken.append((arg, None))
                    i += 1
                elif i + 1 < n and kinds[i + 1] == "A":
                    taken.append((arg, tokens[i + 1]))
                    i += 2
                else:
                    raise _refusal(flags, "expected one argument")
                break
            if takes_value:
                taken.append((arg, attached))
                i += 1
                break
            # -hXY is -h then -XY; a long flag or -h= takes no attached value
            if flag[1] == "-" or not attached or "-" + attached[0] not in options:
                raise _refusal(flags, f"ignored explicit argument {attached!r}")
            taken.append((arg, None))
            flag = "-" + attached[0]
            arg, attached = options[flag], attached[1:] or None
        for arg, value in taken:
            take(arg, value)
    if group is not None:
        raise InvalidArgument(f"the following arguments are required: {dest}")
    missing = [
        "/".join(flags)
        for flags, opts in declared
        if flags not in seen and (opts.get("required") or flags == positional[0])
    ]
    if missing:
        raise InvalidArgument(f"the following arguments are required: {', '.join(missing)}")
    if one_of and not seen.intersection(one_of):
        names = " ".join("/".join(flags) for flags in one_of)
        raise InvalidArgument(f"one of the arguments {names} is required")
    return None


def _parse(argv) -> SimpleNamespace:
    """The fields argv names, read off _VERB_TREE by argparse's rules and refusals.

    The top, a group and a leaf each read their own options in argv order,
    and one positional: a group's verb, which takes every token after it,
    or a leaf's file.  No option is abbreviated.  `--name=value` and
    `-ovalue` carry their value; a token that starts with "-" is a value
    only as a negative number or with a space in it; every token after
    `--` is a value.  A bad value, and -h, count where they stand in argv;
    a missing argument, and then unrecognized ones, only at the end.
    """
    fields, extras = {}, []
    path, node, tokens = (), (_DESCRIPTION, _VERB_TREE), list(argv)
    while (chosen := _read_level(tokens, path, node, fields, extras)) is not None:
        name, tokens = chosen
        path, node = path + (name,), node[1][name]
    if extras:
        raise InvalidArgument(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**fields)


def _metavar(flags, opts) -> str:
    """The value an option takes, as help shows it: " WINDOW", or "" if it takes none."""
    if flags[0].startswith("-") and opts.get("action") not in _FLAG_ACTIONS:
        return " " + _dest(flags).upper()
    return ""


def _usage(arg, required=False) -> str:
    """An argument as a usage line shows it: file, [--box BOX], -o OUT, (a | b)."""
    if isinstance(arg, list):
        return "(" + " | ".join(_usage(member, required=True) for member in arg) + ")"
    flags, opts = arg
    word = flags[0] + _metavar(flags, opts)
    if required or opts.get("required") or not flags[0].startswith("-"):
        return word
    return f"[{word}]"


def _verb_rows(tree: dict, indent: str = ""):
    for name, node in tree.items():
        yield indent + name, node[0]
        if isinstance(node[1], dict):
            yield from _verb_rows(node[1], indent + "  ")


def _help(path, node) -> str:
    """The help of one level: usage, what it does, its arguments, and every verb below it."""
    arguments = _arguments(path, node)
    usage = ["usage: ccc", *path, *map(_usage, [_HELP, *arguments])]
    rows = []
    for arg in [_HELP, *arguments]:
        for flags, opts in arg if isinstance(arg, list) else [arg]:
            text = opts.get("help", "")
            if "default" in opts:
                text += f" (default {opts['default']})"
            rows.append((", ".join(flags) + _metavar(flags, opts), text.strip()))
    if isinstance(node[1], dict):
        usage.append("{" + ",".join(node[1]) + "} ...")
        rows += _verb_rows(node[1])
    width = max(len(label) for label, _ in rows) + 2
    lines = [" ".join(usage), "", node[0], ""]
    lines += [f"  {label:<{width}}{text}".rstrip() for label, text in rows]
    return "\n".join(lines) + "\n"


def run(argv) -> int:
    # the format is the parsed top-level flag: a refusal or help prints one line
    fmt, text = "json-lines", None
    try:
        args = _parse(argv)
        if args.pretty:
            fmt = "pretty"
        report = args.handler(args)
        # written inside the try, so that a refusal to write it is a report too
        text = emit_report(report, fmt)
    except _Help as exc:
        report = Report(status="ok", payload={"help": str(exc)}, witnesses=[])
    except CCCError as exc:
        report = Report(status="invalid-input", payload={"error": str(exc)}, witnesses=[])
    print(text if text is not None else emit_report(report, fmt))
    return _EXIT[report.status]


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed stdout fails here, inside the try
    except BrokenPipeError:
        # no report reached the reader, so none is claimed.  Python flushes
        # stdout again at exit; devnull takes that flush, so nothing is
        # written on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT["invalid-input"]
    sys.exit(code)


if __name__ == "__main__":
    main()
