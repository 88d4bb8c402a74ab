"""Command-line front end: identity suites, filtration reports, calculators.

Subcommands: verify-examples, pcentral, lie, certify, plan, bound, gs.
Exit codes: 0 all checks pass, 1 check failure, 2 resource/limit errors,
3 usage or schema errors.  Reports are emitted as markdown, or as JSON
under --json; JSON output carries no timing, so identical arguments and
seed produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time

from . import bounds, certify, liealg, pcentral
from .errors import (
    CertificateInvalid,
    LimitExceeded,
    SchemaError,
    TamelabError,
    WindowTooLarge,
)
from .matgrp import int_power, sl_standard_generators
from .padic import PadicScalar, ScalarRing, is_odd_prime
from .report import FAIL, INDETERMINATE, PASS, CheckItem, SuiteReport, check

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RESOURCE = TamelabError.exit_code
EXIT_USAGE = SchemaError.exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _require_odd_prime(p: int):
    if not is_odd_prime(p):
        raise SchemaError(f"p must be an odd prime, got {p}")


def _require_at_least(low: int, **values):
    for name, value in values.items():
        if value < low:
            raise SchemaError(f"--{name} must be >= {low}, got {value}")


def _emit(args, items: list[CheckItem], data: dict, seed=None) -> int:
    payload = {
        "command": args.command,
        "argv": getattr(args, "_argv", []),
        "seed": seed,
        "items": [item.to_json() for item in items],
        "data": data,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"# {args.command}")
        if seed is not None:
            print(f"seed: {seed}")
        for item in items:
            mark = {"pass": "ok", "fail": "FAIL", "indeterminate": "??"}[item.status]
            line = f"- [{mark}] {item.anchor}"
            if item.detail:
                line += f" ({item.detail})"
            print(line)
        for key, value in sorted(data.items()):
            print(f"{key}: {value}")
        print(f"elapsed: {time.monotonic() - args._t0:.3f}s")
    sys.stdout.flush()  # a closed stdout fails here, inside main's handlers
    if any(item.status == "fail" for item in items):
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify_examples(args) -> int:
    _require_odd_prime(args.p)
    _require_at_least(1, k=args.k)
    if args.prec < 3:
        raise SchemaError("precision must be >= 3")
    suites: list[SuiteReport] = []
    if args.suite in ("sl2", "all"):
        qnorm = args.qnorm if args.qnorm is not None else 1 + args.p**2
        suites.append(certify.sl2_relation_suite(args.p, args.prec, qnorm))
    if args.suite in ("slm", "all"):
        trunc = args.trunc if args.trunc is not None else max(3, args.k + 1)
        suites.append(
            certify.slm_series_suite(args.m, args.k, args.nvars, trunc, args.p)
        )
    if args.suite in ("quaternion", "all"):
        a = args.a if args.a is not None else certify.first_nonresidue(args.p)
        suites.append(certify.quaternion_uniform_suite(a, args.p, args.prec))
    items = [item for suite in suites for item in suite.items]
    data = {suite.name: suite.data for suite in suites}
    return _emit(args, items, data)


def cmd_pcentral(args) -> int:
    _require_odd_prime(args.p)
    _require_at_least(1, k=args.k, window=args.window, prec=args.prec)
    if args.limit is not None:
        _require_at_least(1, limit=args.limit)
    dim_levels, power_levels = pcentral._trusted_levels(args.prec, args.k)
    if args.window > dim_levels:
        need = args.window + args.k - 1
        raise WindowTooLarge(
            f"dims through level {args.window} need precision > {need}"
        )
    gens = sl_standard_generators(args.m, args.p, args.prec)
    gens = [int_power(g, args.p ** (args.k - 1)) for g in gens]
    group = pcentral.closure(gens, limit=args.limit)
    chain = pcentral.pcentral_series(group)
    checked = min(args.window, power_levels)
    uni = pcentral._uniformity(group, checked, chain)
    data = {
        "order": f"{args.p}^{sum(chain.dims)}",
        "dims": chain.dims[: args.window],
        # only claim the verdict when every requested level was checkable
        "uniform": uni.uniform if checked == args.window else None,
        "window": args.window,
        "power_map_levels_checked": checked,
    }
    items = [
        check("pcentral/frattini-abelian", uni.frattini_abelian),
        *(
            check(f"pcentral/power-map-level-{n + 1}", ok)
            for n, ok in enumerate(uni.power_map_bijective)
        ),
    ]
    return _emit(args, items, data)


def cmd_lie(args) -> int:
    _require_at_least(0, trials=args.trials, samples=args.samples)
    algebra = liealg.load_algebra(args.input)
    triples = math.comb(algebra.dim, 3)
    if triples > liealg.MAX_JACOBI_TRIPLES:
        raise LimitExceeded(
            f"dim {algebra.dim} has {triples} Jacobi triples,"
            f" past {liealg.MAX_JACOBI_TRIPLES}"
        )
    report = liealg.classify(
        algebra, trials=args.trials, seed=args.seed, extra_samples=args.samples
    )
    items = [
        CheckItem("lie/validated", PASS),
        CheckItem(
            "lie/pluperfect",
            PASS if report.pluperfect != "inconclusive" else INDETERMINATE,
            report.pluperfect,
        ),
    ]
    return _emit(args, items, report.to_json(), seed=args.seed)


def cmd_certify(args) -> int:
    with open(args.cert) as fh:
        cert = certify.GroupInertialCertificate.from_json(json.load(fh))
    ok = certify.verify_certificate(cert)
    return _emit(args, [check("certificate/identity", ok)], {})


def cmd_plan(args) -> int:
    _require_odd_prime(args.p)
    _require_at_least(1, k=args.k)
    _require_at_least(2, prec=args.prec)
    if args.cert:
        with open(args.cert) as fh:
            cert = certify.GroupInertialCertificate.from_json(json.load(fh))
        ring = ScalarRing(args.p, args.prec)
        if cert.ring != ring or cert.a.ring != ring:
            raise SchemaError(
                f"certificate ring does not match --p {args.p} --prec {args.prec}"
            )
    else:
        if args.a % args.p == 0:
            raise SchemaError(f"--a must be a unit mod {args.p}, got {args.a}")
        cert = certify.standard_inertial_certificate(args.p, args.prec, args.a, args.k)
    b = PadicScalar(args.p, args.prec, args.b)
    try:
        plan = certify.build_local_plan(cert, b)
    except CertificateInvalid:
        return _emit(args, [check("certificate/identity", False)], {})
    return _emit(args, [check("plan/tame-relation", True)], plan.to_json())


def cmd_bound(args) -> int:
    if args.input:
        with open(args.input) as fh:
            inp = bounds.SplittingBoundInput.from_json(json.load(fh))
    else:
        if args.disc is None or args.r1 is None or args.r2 is None:
            raise SchemaError("bound needs --input or all of --disc --r1 --r2")
        payload = {"abs_discriminant": args.disc, "r1": args.r1, "r2": args.r2}
        payload.update(prime_norms=args.norm or [], grh=args.grh)
        inp = bounds.SplittingBoundInput.from_json(payload)
    result = bounds.splitting_bound(inp)
    status = {
        "true": PASS,
        "false": FAIL,
        "indeterminate": INDETERMINATE,
    }[result.verdict]
    items = [CheckItem("bound/no-toral-quotient", status, result.verdict)]
    return _emit(args, items, result.to_json())


def cmd_gs(args) -> int:
    result = bounds.gs_negative(
        bounds.GSInput(args.d, tuple(args.degrees)), args.grid
    )
    items = [
        CheckItem(
            "gs/negative-somewhere",
            PASS if result.negative else INDETERMINATE,
            "grid-relative" if not result.negative else f"witness t={result.witness_t}",
        )
    ]
    return _emit(args, items, result.to_json())


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    """The one parser of a process, built by the first `main` call."""
    parser = _Parser(prog="tamelab")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    ve = sub.add_parser("verify-examples", help="run the exact-identity suites")
    ve.add_argument("--p", type=int, required=True)
    ve.add_argument("--prec", type=int, default=4)
    ve.add_argument(
        "--suite", choices=["sl2", "slm", "quaternion", "all"], default="all"
    )
    ve.add_argument("--qnorm", type=int, default=None, help="norm of the tame prime")
    ve.add_argument("--a", type=int, default=None, help="quadratic nonresidue")
    ve.add_argument("--m", type=int, default=2)
    ve.add_argument("--k", type=int, default=1)
    ve.add_argument("--nvars", type=int, default=1)
    ve.add_argument("--trunc", type=int, default=None)
    ve.set_defaults(func=cmd_verify_examples)

    pc = sub.add_parser("pcentral", help="filtration dims and uniformity verdict")
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--prec", type=int, required=True)
    pc.add_argument("--window", type=int, required=True)
    pc.add_argument("--limit", type=int, default=None)
    pc.set_defaults(func=cmd_pcentral)

    lie = sub.add_parser("lie", help="classify a structure-constant algebra")
    lie.add_argument("--input", required=True)
    lie.add_argument("--seed", type=int, required=True)
    lie.add_argument("--trials", type=int, default=200)
    lie.add_argument("--samples", type=int, default=20)
    lie.set_defaults(func=cmd_lie)

    ce = sub.add_parser("certify", help="verify a certificate file")
    ce.add_argument("--cert", required=True)
    ce.set_defaults(func=cmd_certify)

    pl = sub.add_parser("plan", help="build and verify a local plan")
    pl.add_argument("--a", type=int, required=True)
    pl.add_argument("--b", type=int, required=True)
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--p", type=int, required=True)
    pl.add_argument("--prec", type=int, required=True)
    pl.add_argument("--cert", default=None)
    pl.set_defaults(func=cmd_plan)

    bo = sub.add_parser("bound", help="splitting-bound verdict")
    bo.add_argument("--disc", default=None)
    bo.add_argument("--r1", type=int, default=None)
    bo.add_argument("--r2", type=int, default=None)
    bo.add_argument("--norm", type=int, action="append")
    bo.add_argument("--grh", action="store_true")
    bo.add_argument("--input", default=None, help="JSON input file")
    bo.set_defaults(func=cmd_bound)

    gs = sub.add_parser("gs", help="Golod-Shafarevich negativity scan")
    gs.add_argument("--d", type=int, required=True)
    gs.add_argument("--degrees", type=int, nargs="+", required=True)
    gs.add_argument("--grid", type=int, default=100)
    gs.set_defaults(func=cmd_gs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    args._argv = argv
    args._t0 = time.monotonic()
    try:
        return args.func(args)
    except BrokenPipeError:
        # the unwritten output's flush at exit goes to the null device instead
        with contextlib.suppress(OSError):  # unless stdout has no descriptor
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        print("error: standard output was closed", file=sys.stderr)
        return EXIT_RESOURCE
    except TamelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:  # unreadable or undecodable input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
