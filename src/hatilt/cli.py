"""Command-line front end: enumeration, algebra export, verification.

Exit codes: 0 success, 1 claim failure, 2 usage error, 3 budget exhaustion
(a skipped claim), 4 a claim that raised an unexpected exception (status
``error``) while none failed.
Primary output goes to stdout, diagnostics to stderr; outputs are
byte-identical for identical inputs, version and configuration, except for
the wall-clock ``ms`` fields inside verification reports.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys

from . import __version__
from .pathcomb import (
    OrderedSeq,
    coords,
    enumerate_all,
    enumerate_dyck,
    rotate_pow,
)
from .serialize import (
    dumps,
    path_to_doc,
    quiver_to_doc,
    quiver_to_dot,
    quiver_to_tex,
    report_to_doc,
)

USAGE_ERROR = 2
CLAIM_FAILURE = 1
BUDGET_EXHAUSTED = 3
CLAIM_ERROR = 4


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hatilt",
        description=(
            "Desk-scale lattice-path combinatorics and exact homological "
            "verification for type-A higher Auslander algebras and their "
            "Dyck-path tilting complexes."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("paths", help="enumerate lattice paths")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dyck", action="store_true", help="only rational Dyck paths")
    p.add_argument("--orbits", action="store_true", help="group by rotation orbit")
    p.add_argument("--format", choices=["json", "csv", "dot"], default="json")
    p.set_defaults(func=cmd_paths)

    q = sub.add_parser("quiver", help="export an algebra's quiver and relations")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument(
        "--algebra", choices=["A", "B", "B0", "Lambda", "Pi", "Tr"], required=True
    )
    q.add_argument("--format", choices=["dot", "json", "tex"], default="json")
    q.set_defaults(func=cmd_quiver)

    v = sub.add_parser("verify", help="run verification claims")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--d", type=int, required=True)
    v.add_argument("--claims", default="all", help="comma list or 'all'")
    v.add_argument("--report", default=None, help="write the JSON report here")
    v.add_argument(
        "--budget",
        default=None,
        help="overrides as key=value pairs, e.g. max_resolution_length=10",
    )
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("homdim", help="morphism-space dimension between objects")
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--d", type=int, required=True)
    h.add_argument("--from", dest="src", required=True, help="c1,c2,...@shift")
    h.add_argument("--to", dest="dst", required=True, help="c1,c2,...@shift")
    h.add_argument(
        "--linear-algebra",
        action="store_true",
        help="also compute through complexes and assert agreement",
    )
    h.set_defaults(func=cmd_homdim)
    return parser


def _check_grid(d, n, need_coprime=False):
    if d < 1 or n < 1:
        raise UsageError(f"need positive d and n, got d={d}, n={n}")
    if need_coprime and math.gcd(n, d) != 1:
        raise UsageError(f"gcd(n, d) must be 1, got n={n}, d={d}")


def cmd_paths(args) -> int:
    _check_grid(args.d, args.n, need_coprime=args.dyck or args.orbits)
    if args.orbits:
        reps = enumerate_dyck(args.d, args.n)
        groups = [
            (rep, [rotate_pow(rep, k) for k in range(args.d + args.n)]) for rep in reps
        ]
        if args.format == "json":
            doc = {
                "schema": 1,
                "d": args.d,
                "n": args.n,
                "orbits": [
                    {
                        "representative": rep.steps,
                        "elements": [p.steps for p in orbit],
                    }
                    for rep, orbit in groups
                ],
            }
            sys.stdout.write(dumps(doc))
        elif args.format == "csv":
            sys.stdout.write("orbit,position,steps,coords\n")
            for idx, (rep, orbit) in enumerate(groups):
                for k, p in enumerate(orbit):
                    cs = " ".join(map(str, coords(p).entries))
                    sys.stdout.write(f"{idx},{k},{p.steps},{cs}\n")
        else:
            sys.stdout.write(_paths_dot(groups, args.d, args.n))
        return 0

    paths = enumerate_dyck(args.d, args.n) if args.dyck else enumerate_all(args.d, args.n)
    if args.format == "json":
        doc = {
            "schema": 1,
            "d": args.d,
            "n": args.n,
            "dyck_only": bool(args.dyck),
            "paths": [path_to_doc(p) for p in paths],
        }
        sys.stdout.write(dumps(doc))
    elif args.format == "csv":
        sys.stdout.write("steps,coords\n")
        for p in paths:
            cs = " ".join(map(str, coords(p).entries))
            sys.stdout.write(f"{p.steps},{cs}\n")
    else:
        sys.stdout.write(_paths_dot([(p, [p]) for p in paths], args.d, args.n))
    return 0


def _paths_dot(groups, d, n) -> str:
    lines = [f"digraph paths_{d}_{n} {{"]
    for rep, orbit in groups:
        for p in orbit:
            lines.append(f'  "{p.steps}";')
        for p, q in zip(orbit, orbit[1:] + orbit[:1]):
            if len(orbit) > 1:
                lines.append(f'  "{p.steps}" -> "{q.steps}" [label="r"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _build_named_algebra(name, d, n):
    from .quiveralg import build_auslander_algebra
    from .verify import ModelData, VerifyConfig

    _check_grid(d, n)
    if name != "A" and math.gcd(n, d) != 1:
        # a construction precondition, not a usage error: exits 1
        raise ValueError(f"algebra {name} needs gcd(n, d) = 1, got n={n}, d={d}")
    if name == "A":
        alg = build_auslander_algebra(n + 1, d)
        return alg.quiver, alg.relations
    data = ModelData(d, n, VerifyConfig()).presentation(name)
    return data.quiver, data.relations


def cmd_quiver(args) -> int:
    from .quiveralg import BudgetError

    try:
        quiver, relations = _build_named_algebra(args.algebra, args.d, args.n)
    except BudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return BUDGET_EXHAUSTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CLAIM_FAILURE
    if args.format == "json":
        sys.stdout.write(dumps(quiver_to_doc(quiver, relations)))
    elif args.format == "dot":
        sys.stdout.write(quiver_to_dot(quiver, relations, name=f"alg_{args.algebra}"))
    else:
        sys.stdout.write(quiver_to_tex(quiver, relations))
    return 0


def _parse_budget(overrides_arg):
    from .verify import VerifyConfig

    if not overrides_arg:
        return VerifyConfig()
    keys = {field.name for field in dataclasses.fields(VerifyConfig)}
    overrides = {}
    for chunk in overrides_arg.split(","):
        if "=" not in chunk:
            raise UsageError(f"bad budget override {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise UsageError(f"unknown budget key {key!r}")
        if key in overrides:
            raise UsageError(f"budget {key} given more than once")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise UsageError(f"budget {key} must be an integer, got {value!r}") from None
    try:
        return VerifyConfig(**overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_verify(args) -> int:
    from .verify import CLAIM_NAMES, run_claims

    _check_grid(args.d, args.n, need_coprime=True)
    config = _parse_budget(args.budget)
    if args.claims.strip() == "all":
        names = list(CLAIM_NAMES)
    else:
        names = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not names:
            raise UsageError(f"no claims selected; available: {', '.join(CLAIM_NAMES)}")
        unknown = [c for c in names if c not in CLAIM_NAMES]
        if unknown:
            raise UsageError(
                f"unknown claims: {', '.join(unknown)}; available: {', '.join(CLAIM_NAMES)}"
            )
    # open the report before any claim runs, so a bad path costs no work
    try:
        report = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as exc:
        raise UsageError(f"cannot write report {args.report!r}: {exc.strerror}") from None
    with report or contextlib.nullcontext():
        claims, failed, skipped = run_claims(args.d, args.n, names, config)
        doc = report_to_doc(
            {"n": args.n, "d": args.d},
            claims,
            __version__,
            config.echo(args.d, args.n),
        )
        payload = dumps(doc)
        if report:
            report.write(payload)
    sys.stdout.write(payload)
    if failed:
        return CLAIM_FAILURE
    if any(c["status"] == "error" for c in claims):
        return CLAIM_ERROR
    if skipped:
        return BUDGET_EXHAUSTED
    return 0


def _parse_object(text, d, n):
    try:
        coord_part, shift_part = text.split("@")
        entries = tuple(int(x) for x in coord_part.split(","))
        shift = int(shift_part)
    except ValueError as exc:
        raise UsageError(f"malformed object {text!r}: expected c1,c2,...@shift") from exc
    try:
        seq = OrderedSeq(n + 1, d + 1, entries)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    from .pathcomb import from_coords

    return seq, from_coords(seq), shift


def cmd_homdim(args) -> int:
    from .cluster import ShiftedModule, hom_dim

    _check_grid(args.d, args.n)
    d, n = args.d, args.n
    seq_s, path_s, shift_s = _parse_object(args.src, d, n)
    seq_t, path_t, shift_t = _parse_object(args.dst, d, n)
    combinatorial = hom_dim(
        ShiftedModule(path_s, shift_s), ShiftedModule(path_t, shift_t)
    )
    if args.linear_algebra:
        from .complexes import hom_complex_dim, shifted_module_complex
        from .quiveralg import BudgetError, build_auslander_algebra, module_M

        try:
            alg = build_auslander_algebra(n + 1, d)
            X = shifted_module_complex(alg, module_M(alg, seq_s), d * shift_s)
            Y = shifted_module_complex(alg, module_M(alg, seq_t), d * shift_t)
        except BudgetError as exc:
            print(f"budget exhausted: {exc}", file=sys.stderr)
            return BUDGET_EXHAUSTED
        linear = hom_complex_dim(X, Y, 0)
        if linear != combinatorial:
            print(
                f"disagreement: combinatorial {combinatorial} vs linear {linear}",
                file=sys.stderr,
            )
            return CLAIM_FAILURE
        sys.stdout.write(f"{combinatorial} (combinatorial) = {linear} (linear algebra)\n")
    else:
        sys.stdout.write(f"{combinatorial}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
