"""Command-line interface.

Subcommands: `elliptic` runs the full pipeline for one (a, b); `cohomology`
computes resolving-complex cohomology of a serialized diagram functor;
`hull` runs the obstruction calculus from a serialized configuration;
`selftest` runs the property suite. Exit codes: 0 success, 1 domain errors
(singular curve, failed stabilization, malformed inputs, charts that break
a hypothesis of the calculus), 2 usage errors.
Only the package's typed domain and input errors exit 1; any other
exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from .algebra import AlgebraError
from .cokernels import NoStabilization
from .report import Report


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _int_at_least(low: int, what: str):
    """Argument type: an integer >= low, else a usage error naming `what`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be >= {low}, got {value}")
        return value

    return parse


_RATIONAL_OPTIONS = ("--a", "--b")


def _attach_negative_rationals(argv: list[str]) -> list[str]:
    """Spell `--b -5/7` as `--b=-5/7`.

    argparse reads a separate value that starts with '-' as an option unless
    it looks like a negative decimal, so a negative fraction needs the '='
    spelling; this gives it to every value of a rational option that parses.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and tok.startswith("-"):
            try:
                Fraction(tok)
            except (ValueError, ZeroDivisionError):
                pass
            else:
                out[-1] = f"{out[-1]}={tok}"
                continue
        out.append(tok)
    return out


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `ncdef` parser, built once per process: parsing leaves it as it
    was, and callers must not edit it."""
    parser = argparse.ArgumentParser(
        prog="ncdef",
        description="Exact noncommutative deformation calculus on finite covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elliptic", help="full pipeline for the plane-cubic charts")
    p.add_argument("--a", type=_rational, required=True, help="rational, e.g. 1, 3/2 or -5/7")
    p.add_argument("--b", type=_rational, required=True)
    p.add_argument("--hull-order", type=_int_at_least(2, "hull order"), default=4)
    p.add_argument("--dmax", type=int, default=24)
    p.add_argument("--format", choices=("json", "md"), default="md")
    p.add_argument("--full-complex", action="store_true",
                   help="report degree-1 classes with explicit identity slots")
    p.add_argument("--out", default=None, help="write the report to this path")

    p = sub.add_parser("cohomology", help="cohomology of a serialized diagram")
    p.add_argument("diagram", help="diagram JSON (schema ncdef-diagram/1)")
    p.add_argument("--p-max", type=_int_at_least(1, "p-max"), default=2)
    p.add_argument("--full-complex", action="store_true",
                   help="use the non-normalized complex")
    p.add_argument("--format", choices=("json", "md"), default="md")
    p.add_argument("--out", default=None)

    p = sub.add_parser("hull", help="hull computation from a config file")
    p.add_argument("config", help="configuration JSON (schema ncdef-hull/1)")
    p.add_argument("--format", choices=("json", "md"), default="md")
    p.add_argument("--out", default=None)

    p = sub.add_parser("selftest", help="run the property suite")
    return parser


def _emit(report: Report, fmt: str, out) -> None:
    text = report.render(fmt)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if report.elapsed is not None:
        print(f"ncdef: done in {report.elapsed:.2f} s", file=sys.stderr)


def _cmd_elliptic(args) -> int:
    from . import elliptic

    cfg = elliptic.build(args.a, args.b)
    report = elliptic.run_full_pipeline(
        cfg, hull_order=args.hull_order, d_max=args.dmax,
        full_complex=args.full_complex,
    )
    _emit(report, args.format, args.out)
    return 0


def _cmd_cohomology(args) -> int:
    from .diagram_io import load_functor
    from .diagrams import build_resolving_complex

    t0 = time.perf_counter()
    base, functor = load_functor(args.diagram)
    rc = build_resolving_complex(
        base, functor, normalized=not args.full_complex, p_max=args.p_max
    )
    run = {}
    for p in range(args.p_max):
        h = rc.cohomology(p)
        coordinates = rc.coordinates(p)
        reps = []
        for vec in h.representatives:
            slots = {}
            for j, c in enumerate(vec):
                if c:
                    t, lbl = coordinates[j]
                    slots.setdefault("|".join(t), {})[lbl] = str(c)
            reps.append(slots)
        run[str(p)] = {"dim": h.dim, "representatives": reps}
    payload = {
        "schema": "ncdef/1",
        "diagram": args.diagram,
        "normalized": not args.full_complex,
        "cohomology_run": run,
    }
    _emit(Report(payload, elapsed=time.perf_counter() - t0), args.format, args.out)
    return 0


def _cmd_hull(args) -> int:
    from . import elliptic
    from .diagram_io import Curve, elliptic_coefficients, load_hull_config

    config, hull_order, dmax = load_hull_config(args.config)
    t0 = time.perf_counter()
    is_elliptic = config["kind"] == "elliptic"
    curve = elliptic.build(*elliptic_coefficients(config)) if is_elliptic else Curve(config, dmax)
    ctx = elliptic.build_context(curve, d_max=dmax)
    result = ctx.hull_compute(hull_order)
    payload = {"schema": "ncdef/1", "input": {"hull_order": result.order, "dmax": dmax}}
    if is_elliptic:
        payload["input"] = {"a": str(curve.a), "b": str(curve.b), **payload["input"]}
        payload["discriminant"] = str(curve.discriminant)
        payload["regime"] = curve.regime
    else:
        payload["hochschild"] = list(ctx.hh.dims)
    payload["hull"] = result.payload()
    payload["verdicts"] = {"hull_versal_zero_defect": result.versal_defect.is_zero()}
    _emit(Report(payload, elapsed=time.perf_counter() - t0), args.format, args.out)
    return 0


def _cmd_selftest(_args) -> int:
    from .selftest import run_all

    return 0 if run_all() else 1


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_rationals(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "elliptic": _cmd_elliptic,
        "cohomology": _cmd_cohomology,
        "hull": _cmd_hull,
        "selftest": _cmd_selftest,
    }
    from .diagram_io import InputError
    from .diagrams import CategoryError, CocycleError
    from .elliptic import SingularCurve
    from .engine import EngineError

    try:
        return handlers[args.command](args)
    except (SingularCurve, NoStabilization, EngineError, CategoryError, CocycleError,
            AlgebraError, InputError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        print(f"ncdef: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
