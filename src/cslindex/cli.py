"""Command-line front end.

Exit codes: 0 success, 1 computational disagreement (verify/corpus) or a
failed internal cross-check, 2 input error, 141 when the reader closes
stdout early.  Output depends only on the arguments and the input files;
--json mirrors the plain fields one for one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .indices import CrossCheckFailed, index_reflection
from .isometry import (
    NotOrthogonal,
    RationalIsometry,
    compose,
    from_rational_matrix,
    random_corpus,
    reflection,
)
from .matrices import (
    format_int_matrix,
    format_rat_matrix,
    parse_int_matrix,
    parse_rat_matrix,
)
from .normalform import smith_normal_form
from .oracle import DEFAULT_RESIDUE_CAP, ROUTES, run_routes
from .spectrum import (
    four_square_odd_decompose,
    reflection_spectrum,
    three_square_decompose,
)


def _cap(args) -> int:
    """The counting oracle's cap on q^n, from --cap, else the default."""
    if args.cap is None:
        return DEFAULT_RESIDUE_CAP
    try:
        cap = int(args.cap)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"--cap must be a positive integer, got {args.cap!r}")
    return cap


def _read(path: str, parse):
    """parse applied to the text of the matrix file at path; every error names the file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return parse(text)
    except NotOrthogonal as exc:
        raise ValueError(f"{path} is not orthogonal: {exc}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def _read_isometry(path: str) -> RationalIsometry:
    return _read(path, lambda text: from_rational_matrix(parse_rat_matrix(text)))


def _parse_vector(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()  # no coordinates: the reflection rejects the zero axis
    try:
        # one integer per comma-separated field, spaces around it allowed: "1 2" is
        # not (1, 2), and an empty field before, between or after commas is an error
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"bad vector {text!r}; expected comma-separated integers")


def _emit(args, plain_lines, payload) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in plain_lines:
            print(line)


def _cmd_index(args) -> int:
    if (args.matrix is None) == (args.reflect is None):
        raise ValueError("index needs exactly one of --matrix or --reflect")
    if args.reflect is not None:
        report = index_reflection(_parse_vector(args.reflect))
        _emit(
            args,
            [f"sigma={report.sigma} method={report.method}"],
            {"sigma": report.sigma, "method": report.method, "factors": list(report.factors)},
        )
        return 0
    y = _read_isometry(args.matrix)
    formulas = [m for m, (reads_smith, _) in ROUTES.items() if reads_smith]
    lines = []
    payload = {}
    for report in run_routes(y, methods=formulas)[0]:
        lines.append(f"sigma={report.sigma} method={report.method} factors={list(report.factors)}")
        payload[report.method] = {"sigma": report.sigma, "factors": list(report.factors)}
    _emit(args, lines, payload)
    return 0


def _cmd_snf(args) -> int:
    dec = smith_normal_form(_read(args.matrix, parse_int_matrix))
    _emit(
        args,
        ["d " + " ".join(str(x) for x in dec.d), "P"]
        + format_int_matrix(dec.p).splitlines()
        + ["Q"]
        + format_int_matrix(dec.q_right).splitlines(),
        {"d": list(dec.d), "p": dec.p.to_rows(), "q": dec.q_right.to_rows()},
    )
    return 0


def _emit_isometry(args, iso: RationalIsometry) -> int:
    _emit(
        args,
        format_rat_matrix(iso.as_rational()).splitlines(),
        {"q": iso.q, "z": iso.z.to_rows()},
    )
    return 0


def _cmd_reflect(args) -> int:
    return _emit_isometry(args, reflection(_parse_vector(args.vector)))


def _cmd_compose(args) -> int:
    left, right = _read_isometry(args.left), _read_isometry(args.right)
    try:
        product = compose(left, right)
    except ValueError as exc:
        raise ValueError(f"{args.left}, {args.right}: {exc}")
    return _emit_isometry(args, product)


def _cmd_verify(args) -> int:
    cap = _cap(args)
    y = _read_isometry(args.matrix)
    reports, skipped = run_routes(y, cap)
    for reason in skipped:
        print(f"note: {reason}", file=sys.stderr)
    agree = len({r.sigma for r in reports}) == 1
    lines = [f"{r.method} {r.sigma}" for r in reports]
    lines.append(f"verdict {'agree' if agree else 'DISAGREE'}")
    _emit(
        args,
        lines,
        {"methods": {r.method: r.sigma for r in reports}, "agree": agree},
    )
    return 0 if agree else 1


def _cmd_corpus(args) -> int:
    cap = _cap(args)
    for flag, value in (("--count", args.count), ("--reflections", args.reflections)):
        if value < 0:
            raise ValueError(f"{flag} must be a nonnegative integer, got {value}")
    corpus = random_corpus(
        args.dim,
        args.count,
        args.seed,
        max_reflections=args.reflections,
        coordinate_bound=args.bound,
    )
    records = []
    ok = True
    for y in corpus:
        reports = run_routes(y, cap)[0]
        agree = len({r.sigma for r in reports}) == 1
        ok = ok and agree
        records.append({"q": y.q, "sigma": reports[0].sigma, "agree": agree})
    _emit(
        args,
        [f"q={r['q']} sigma={r['sigma']} agree={'yes' if r['agree'] else 'no'}" for r in records],
        records,
    )
    return 0 if ok else 1


def _cmd_spectrum(args) -> int:
    table = reflection_spectrum(args.dim, args.max)
    axes = {s: table[s].axes[0].coords for s in sorted(table)}
    _emit(
        args,
        [f"{s}\t" + ",".join(str(c) for c in coords) for s, coords in axes.items()],
        {str(s): list(coords) for s, coords in axes.items()},
    )
    return 0


def _cmd_decompose(args) -> int:
    if (args.odd is None) == (args.three is None):
        raise ValueError("decompose needs exactly one of --odd or --three")
    w = four_square_odd_decompose(args.odd) if args.odd is not None else three_square_decompose(args.three)
    if w is None:
        _emit(
            args,
            [f"{args.three} not representable (form 4^a(8k+7))"],
            {"target": args.three, "squares": None},
        )
        return 0
    gcd = f" gcd={w.content}" if args.odd is not None else ""
    _emit(
        args,
        [f"{w.target} = " + " + ".join(f"{x}^2" for x in w.squares) + gcd],
        {"target": w.target, "squares": list(w.squares), "content": w.content},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cslindex",
        description="Exact coincidence indices of the hypercubic lattice Z^n",
    )
    parser.add_argument("--version", action="version", version=f"cslindex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON instead of plain text")
        p.set_defaults(func=func)
        return p

    p = add("index", _cmd_index, "compute Sigma by formula")
    p.add_argument("--matrix", help="rational matrix file")
    p.add_argument("--reflect", help="axis vector, e.g. 1,1,1")

    p = add("snf", _cmd_snf, "Smith normal form with transforms")
    p.add_argument("matrix", help="integer matrix file")

    p = add("reflect", _cmd_reflect, "reflection matrix for an axis")
    p.add_argument("--vector", required=True, help="axis vector, e.g. 1,1,1")

    p = add("compose", _cmd_compose, "compose two isometries")
    p.add_argument("left", help="rational matrix file")
    p.add_argument("right", help="rational matrix file")

    p = add("verify", _cmd_verify, "run all formulas and oracles, compare")
    p.add_argument("--matrix", required=True, help="rational matrix file")
    p.add_argument("--cap", help="residue cap for the counting oracle")

    p = add("corpus", _cmd_corpus, "seeded random corpus with cross-validation")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reflections", type=int, default=3, help="max reflections per element")
    p.add_argument("--bound", type=int, default=4, help="axis coordinate bound")
    p.add_argument("--cap", help="residue cap for the counting oracle")

    p = add("spectrum", _cmd_spectrum, "attainable reflection indices with witnesses")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max", type=int, required=True)

    p = add("decompose", _cmd_decompose, "square decompositions")
    p.add_argument("--odd", type=int, help="four squares with gcd 1 for an odd integer")
    p.add_argument("--three", type=int, help="three squares when representable")

    return parser


def main(argv=None) -> int:
    # Sigma and its factors print exactly at any size; the library, and code
    # that calls main in process, keep Python's limit (absent before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so a closed pipe is caught here too
        return code
    except BrokenPipeError:
        # the reader closed stdout: exit as a shell reports SIGPIPE (128 + 13), and
        # point stdout at devnull so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:  # input errors and every ValueError of the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
