"""Command-line entry point: verify, verify-all, optimize, recursion-sim, report.

Exit-code contract (scriptable CI usage):
    0  all exact checks pass
    1  an exact check failed
    2  usage or configuration error, or an output path that cannot be written
    3  strict mode and the certificate contains discrepancies
    4  search finished without a certified result

This module parses arguments, checks output paths, writes files and maps
results to exit codes; ``stabcert.certify`` builds every certificate it
writes.  Certificates are written atomically by a single writer; report
rendering is read-only and never alters numeric fields.  High-precision
modules (mpmath, iteration, bubble) load on first use, so optimize and report
never load them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import optimize, published
from .certificate import Certificate, check_output_path, write_json
from .certify import certify, certify_all, result_certificate
from .config import ConfigError, RunConfig, load_config
from .curvature import ParamSet
from .rational import rational_to_str

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_STRICT_DISCREPANCY = 3
EXIT_UNCERTIFIED = 4


def exit_code_for(cert: Certificate, strict: bool) -> int:
    """Pure mapping from certificate content to an exit code."""
    if cert.overall_status == "failed":
        return EXIT_CHECK_FAILED
    if strict and cert.discrepancies:
        return EXIT_STRICT_DISCREPANCY
    return EXIT_PASS


def _write(cert: Certificate, out: Path, strict: bool) -> int:
    cert.write(out)
    print(f"wrote {out} ({cert.overall_status}; {len(cert.discrepancies)} discrepancies)")
    return exit_code_for(cert, strict)


def cmd_verify(args, cfg: RunConfig) -> int:
    if args.n not in published.SUPPORTED_N:
        print(f"error: no built-in parameter row for n = {args.n}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out) if args.out else cfg.out_dir / f"certificate_n{args.n}.json"
    check_output_path(out)  # before certifying, which a failed write would waste
    return _write(certify(ParamSet.published_row(args.n), cfg), out, args.strict)


def cmd_verify_all(args, cfg: RunConfig) -> int:
    out = Path(args.out) if args.out else cfg.out_dir / "certificate_all.json"
    check_output_path(out)  # before certifying, which a failed write would waste
    return _write(certify_all(cfg), out, args.strict)


def cmd_optimize(args, cfg: RunConfig) -> int:
    if args.n not in published.SUPPORTED_N and args.n != 6:
        print(f"error: n = {args.n} not supported (3, 4, 5 or the open probe 6)", file=sys.stderr)
        return EXIT_USAGE
    if args.objective == "epsilon":
        try:
            delta0 = published.DELTA0.get(args.n) if args.delta0 is None else Fraction(args.delta0)
            # the search scores cells at float(delta0), so a positive delta0 must neither
            # overflow (OverflowError) nor underflow to 0.0
            if delta0 is not None and delta0 > 0 and float(delta0) == 0:
                raise ValueError(f"{args.delta0} is 0.0 as a float")
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            print(f"error: bad --delta0: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if delta0 is None:
            print("error: --delta0 required for the epsilon objective at this n", file=sys.stderr)
            return EXIT_USAGE
        if delta0 <= 0:
            print(f"error: --delta0 must be > 0, got {args.delta0}", file=sys.stderr)
            return EXIT_USAGE
    elif args.delta0 is not None:
        print("error: --delta0 applies to --objective epsilon only", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out) if args.out else cfg.out_dir / f"search_n{args.n}_{args.objective}.json"
    cert_path = out.with_name(out.stem + "_certificate.json")
    log_path = out.parent / "search_log.jsonl"
    for path in (out, cert_path, log_path):  # before the search, which a failed write would waste
        check_output_path(path)
    if args.objective == "epsilon":
        result = optimize.maximize_epsilon(args.n, cfg, delta0)
    else:
        result = optimize.minimize_delta0(args.n, cfg)

    payload = {
        "n": result.n,
        "objective": result.objective,
        "certified": result.certified,
        "delta0": rational_to_str(result.delta0) if result.delta0 is not None else None,
        "epsilon": rational_to_str(result.epsilon) if result.epsilon is not None else None,
        "params": result.best_params.as_strings() if result.best_params else None,
        "improvement_vs_published": rational_to_str(result.improvement_vs_published)
        if result.improvement_vs_published is not None
        else None,
        "evaluations_used": result.evaluations_used,
        "notes": result.notes,
        "margin_profile": result.best_margin_profile,
    }
    write_json(out, payload)
    print(f"wrote {out}")
    log_line = {k: payload[k] for k in ("n", "objective", "certified", "delta0", "epsilon", "evaluations_used")}
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(log_line) + "\n")
    if result.certified and result.best_params is not None:
        cert = result_certificate(result, cfg)
        cert.write(cert_path)
        print(f"wrote {cert_path}")
        if args.n == 6:
            print("FINDING: a certified feasible row exists for n = 6 — review the certificate")
    for note in result.notes:
        print(f"  {note}")
    if not result.certified:
        print("search ended without a certified result (no row passed exact recertification)")
        return EXIT_UNCERTIFIED
    return EXIT_PASS


def cmd_recursion_sim(args) -> int:
    from . import iteration

    try:
        if args.q is not None or args.delta is not None:
            if args.c0 is not None or args.c is not None:
                print("error: give either --c0/--c or --q/--delta, not both", file=sys.stderr)
                return EXIT_USAGE
            if args.q is None or args.delta is None:
                print("error: --q and --delta must be given together", file=sys.stderr)
                return EXIT_USAGE
            rationals = {}
            for flag, text in (("--q", args.q), ("--delta", args.delta)):
                try:
                    rationals[flag] = Fraction(text)
                except (ValueError, ZeroDivisionError) as exc:
                    print(f"error: bad {flag}: {exc}", file=sys.stderr)
                    return EXIT_USAGE
            c_ms = RunConfig.c_ms if args.cms is None else args.cms
            radius = RunConfig.radius if args.radius is None else args.radius
            dg = iteration.degiorgi_constants(args.n, rationals["--delta"], rationals["--q"], c_ms, radius)
            c0 = float(dg.C0.value)
            c = float(dg.C.approx_mp())
            print(f"derived C0 = {dg.C0.value}, C = {dg.C} from q={args.q}, delta={args.delta}, "
                  f"C_MS={c_ms}, R={radius}")
        else:
            if args.c0 is None or args.c is None:
                print("error: --c0 and --c required (or derive them with --q/--delta)", file=sys.stderr)
                return EXIT_USAGE
            if args.cms is not None or args.radius is not None:
                print("error: --cms and --radius only derive C0, C with --q/--delta; "
                      "they cannot change a given --c0/--c", file=sys.stderr)
                return EXIT_USAGE
            c0, c = args.c0, args.c
        result = iteration.recursion_simulate(args.s1, c0, c, args.n, args.steps)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{'step':>4}  {'sequence':>20}  {'closed bound':>20}")
    for i, (v, b) in enumerate(zip(result.values_str, result.bounds_str)):
        print(f"{i:>4}  {v:>20}  {b:>20}")
    print(f"dominated={result.dominated} tends_to_zero={result.tends_to_zero}")
    return EXIT_PASS if result.dominated else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    try:
        cert = Certificate.read(args.certificate)
        if cert.n:  # a row's certificate; verify-all's (n = 0) has its rows' read with it
            ParamSet.from_strings(cert.params, cert.n)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"certificate schema {cert.schema_version}, n = {cert.n}, status: {cert.overall_status}")
    if cert.params:
        print("parameters:")
        for key, value in cert.params.items():
            print(f"  {key} = {value}")
    print(f"checks ({len(cert.checks)}):")
    for check in cert.checks:
        extra = f"  margin={rational_to_str(check.margin)}" if check.margin is not None else ""
        print(f"  [{check.status:>11}] {check.name} ({check.kind}){extra}")
    if cert.published_targets:
        print("published targets:")
        for target in cert.published_targets:
            mark = "match" if target.match else "DISCREPANCY"
            print(f"  {target.quantity}: quoted {target.quoted} vs computed {target.computed} [{mark}]")
    for flag in cert.flags:
        print(f"flag: {flag.get('name')}: {flag.get('detail')}")
    return EXIT_PASS


class UsageError(Exception):
    """A command line that argparse refuses."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``main`` to print on one line; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stabcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag whose dest names a RunConfig field overrides that field (see load_config)
    def with_config(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--out", help="output path")
        p.add_argument("--seed", type=int)

    p_verify = sub.add_parser("verify", help="certify one built-in row")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--strict", action="store_true", help="discrepancies exit 3")
    with_config(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_all = sub.add_parser("verify-all", help="certify all rows plus the threshold table")
    p_all.add_argument("--strict", action="store_true")
    with_config(p_all)
    p_all.add_argument("--cms", type=float, dest="c_ms", help="Sobolev-type constant C_MS")
    p_all.add_argument("--radius", type=float, help="iteration radius R")
    p_all.set_defaults(func=cmd_verify_all)

    p_opt = sub.add_parser("optimize", help="search parameter space with exact recertification")
    p_opt.add_argument("--n", type=int, required=True)
    p_opt.add_argument("--objective", choices=("delta0", "epsilon"), default="delta0")
    p_opt.add_argument("--delta0", help="fixed delta0 (p/q) for the epsilon objective")
    p_opt.add_argument("--denominator-bound", type=int, dest="denominator_bound")
    with_config(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("recursion-sim", help="simulate the decay recursion against its closed bound")
    p_sim.add_argument("--s1", type=float, required=True)
    p_sim.add_argument("--c0", type=float, help="iteration constant C0 (or derive via --q/--delta)")
    p_sim.add_argument("--c", type=float, help="iteration constant C (or derive via --q/--delta)")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--steps", type=int, default=20, help="rows shown; the verdict covers every step")
    p_sim.add_argument("--q", help="derive C0, C from this q (p/q rational)")
    p_sim.add_argument("--delta", help="stability parameter delta (p/q rational)")
    p_sim.add_argument("--cms", type=float, help=f"C_MS for --q/--delta (default {RunConfig.c_ms})")
    p_sim.add_argument("--radius", type=float, help=f"R for --q/--delta (default {RunConfig.radius})")
    p_sim.set_defaults(func=cmd_recursion_sim)

    p_rep = sub.add_parser("report", help="render a stored certificate (read-only)")
    p_rep.add_argument("certificate")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # verify, verify-all and optimize take --config and read a RunConfig
        cfg = load_config(args.config, vars(args)) if "config" in vars(args) else None
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # --help printed the help text
        return EXIT_PASS
    try:
        return args.func(args) if cfg is None else args.func(args, cfg)
    except ConfigError as exc:  # settings that load but certify nothing: verify-all's s and s1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # report handles its own read errors, so this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
