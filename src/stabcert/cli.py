"""Command-line entry point: verify, verify-all, optimize, recursion-sim, report.

Exit-code contract (scriptable CI usage):
    0  all exact checks pass
    1  an exact check failed
    2  usage or configuration error, or an output path that cannot be written
    3  strict mode and the certificate contains discrepancies
    4  search finished without a certified result

Certificates are written atomically by a single writer; report rendering is
read-only and never alters numeric fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import iteration, optimize, published
from .certificate import CertCheck, Certificate, PublishedTarget, check_output_path, write_json
from .certify import certify, chain_certificate
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


def cmd_verify(args, cfg: RunConfig) -> int:
    if args.n not in published.SUPPORTED_N:
        print(f"error: no built-in parameter row for n = {args.n}", file=sys.stderr)
        return EXIT_USAGE
    cert = certify(ParamSet.published_row(args.n), cfg)
    out = Path(args.out) if args.out else cfg.out_dir / f"certificate_n{args.n}.json"
    cert.write(out)
    print(f"wrote {out} ({cert.overall_status}; {len(cert.discrepancies)} discrepancies)")
    return exit_code_for(cert, args.strict)


def _delta1_checks(cert: Certificate) -> None:
    for n in published.SUPPORTED_N:
        value = iteration.delta1_of(n)
        quoted = published.DELTA1[n]
        cert.add_target(PublishedTarget(f"delta1(n={n})", rational_to_str(quoted), rational_to_str(value), value == quoted))
    collapse_ok = all(iteration.collapse_sqrt(n) == Fraction((n - 2) ** 2, 4 * (n - 1)) for n in range(3, 13))
    cert.add_check(
        CertCheck.of(
            "critical_radicand_perfect_square",
            collapse_ok,
            detail="sqrt(delta_c(delta_c-(n-2)/n)) = (n-2)^2/(4(n-1)) for n=3..12",
        )
    )
    exponents_ok = all(
        iteration.critical_delta_exponent(n, iteration.critical_delta_threshold(n) + Fraction(1, 1000))
        for n in published.SUPPORTED_N
    )
    cert.add_check(
        CertCheck.of(
            "exponent_exceeds_dimension_above_threshold",
            exponents_ok,
            detail="p = 4k+2 > n at delta = delta_c + 1/1000",
        )
    )


def _iteration_grid(cfg: RunConfig) -> list[dict]:
    """verify-all's iteration constants for each built-in n at delta = 1.

    epsilon1, C and C0 depend on (C_MS, R), the Caccioppoli C1 and C2 on
    (s, s1); it raises NoCaccioppoliConstantError when s and s1 leave both
    Caccioppoli branches nonpositive.
    """
    grid = []
    for n in published.SUPPORTED_N:
        delta = Fraction(1)
        q = (Fraction(n - 2, n) + delta) / 2
        dg = iteration.degiorgi_constants(n, delta, q, cfg.c_ms, cfg.radius, dps=cfg.float_precision_digits)
        cacc = iteration.caccioppoli_constants(n, delta, delta / 2, cfg.s, cfg.s1, dps=cfg.float_precision_digits)
        grid.append(
            {
                "n": n,
                "delta": rational_to_str(delta),
                "q": rational_to_str(q),
                "epsilon1": dg.epsilon1.to_jsonable(),
                "C": str(dg.C),
                "C0": dg.C0.to_jsonable(),
                "caccioppoli_C1": rational_to_str(cacc.c1),
                "caccioppoli_C2": rational_to_str(cacc.c2_exact)
                if cacc.c2_exact is not None
                else cacc.c2_approx.to_jsonable(),
                "p": rational_to_str(cacc.p),
                "both_branches_positive": cacc.both_branches_positive,
            }
        )
    return grid


def cmd_verify_all(args, cfg: RunConfig) -> int:
    try:
        grid = _iteration_grid(cfg)
    except iteration.NoCaccioppoliConstantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    combined = Certificate(n=0, params={"rows": ",".join(str(n) for n in published.SUPPORTED_N)})
    combined.environment.update(cfg.environment())
    for n in published.SUPPORTED_N:
        row_cert = certify(ParamSet.published_row(n), cfg)
        combined.values[f"row_n{n}"] = row_cert.to_jsonable()
        combined.add_check(
            CertCheck.of(
                f"row_n{n}_overall",
                row_cert.overall_status == "passed",
                detail=f"{len(row_cert.discrepancies)} discrepancies",
            )
        )
        for target in row_cert.published_targets:
            combined.add_target(
                PublishedTarget(f"n={n}:{target.quantity}", target.quoted, target.computed, target.match)
            )
        for flag in row_cert.flags:
            combined.add_flag(f"n={n}:{flag['name']}", flag["detail"])
    _delta1_checks(combined)
    combined.values["iteration_grid"] = grid
    out = Path(args.out) if args.out else cfg.out_dir / "certificate_all.json"
    combined.write(out)
    print(f"wrote {out} ({combined.overall_status}; {len(combined.discrepancies)} discrepancies)")
    return exit_code_for(combined, args.strict)


def result_certificate(result: optimize.SearchResult, cfg: RunConfig) -> Certificate:
    """Certificate for one certified search result; re-verifiable from params alone."""
    assert result.best_params is not None and result.constraint_report is not None
    cert = chain_certificate(result.best_params, result.constraint_report)
    cert.environment.update(cfg.environment())
    cert.environment["objective"] = result.objective
    cert.environment["evaluations_used"] = result.evaluations_used
    if result.epsilon is not None:
        cert.values["epsilon"] = rational_to_str(result.epsilon)
    if result.delta0 is not None:
        cert.values["delta0"] = rational_to_str(result.delta0)
    if result.improvement_vs_published is not None:
        cert.values["improvement_vs_published"] = rational_to_str(result.improvement_vs_published)
    return cert


def cmd_optimize(args, cfg: RunConfig) -> int:
    if args.n not in published.SUPPORTED_N and args.n != 6:
        print(f"error: n = {args.n} not supported (3, 4, 5 or the open probe 6)", file=sys.stderr)
        return EXIT_USAGE
    if args.objective == "epsilon":
        try:
            delta0 = published.DELTA0.get(args.n) if args.delta0 is None else Fraction(args.delta0)
        except (ValueError, ZeroDivisionError) as exc:
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
        print("search ended without a certified result (budget or infeasibility)")
        return EXIT_UNCERTIFIED
    return EXIT_PASS


def cmd_recursion_sim(args) -> int:
    try:
        if args.q is not None or args.delta is not None:
            if args.c0 is not None or args.c is not None:
                print("error: give either --c0/--c or --q/--delta, not both", file=sys.stderr)
                return EXIT_USAGE
            if args.q is None or args.delta is None:
                print("error: --q and --delta must be given together", file=sys.stderr)
                return EXIT_USAGE
            dg = iteration.degiorgi_constants(
                args.n, Fraction(args.delta), Fraction(args.q), args.cms, args.radius
            )
            c0 = float(dg.C0.value)
            c = float(dg.C.approx_mp())
            print(f"derived C0 = {dg.C0.value}, C = {dg.C} from q={args.q}, delta={args.delta}, "
                  f"C_MS={args.cms}, R={args.radius}")
        else:
            if args.c0 is None or args.c is None:
                print("error: --c0 and --c required (or derive them with --q/--delta)", file=sys.stderr)
                return EXIT_USAGE
            c0, c = args.c0, args.c
        result = iteration.recursion_simulate(args.s1, c0, c, args.n, args.steps)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{'step':>4}  {'sequence':>20}  {'closed bound':>20}")
    for i, (v, b) in enumerate(zip(result.values_str, result.bounds_str)):
        print(f"{i:>4}  {v:>20}  {b:>20}")
    print(
        f"dominated={result.dominated} tends_to_zero={result.tends_to_zero} "
        f"exponent_identity={result.exponent_identity_ok} log_direct_agreement={result.log_direct_agreement_ok}"
    )
    if not (result.dominated and result.exponent_identity_ok and result.log_direct_agreement_ok):
        return EXIT_CHECK_FAILED
    return EXIT_PASS


def cmd_report(args) -> int:
    try:
        cert = Certificate.read(args.certificate)
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
    p_opt.add_argument("--budget", type=int)
    p_opt.add_argument("--denominator-bound", type=int, dest="denominator_bound")
    with_config(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("recursion-sim", help="simulate the decay recursion against its closed bound")
    p_sim.add_argument("--s1", type=float, required=True)
    p_sim.add_argument("--c0", type=float, help="iteration constant C0 (or derive via --q/--delta)")
    p_sim.add_argument("--c", type=float, help="iteration constant C (or derive via --q/--delta)")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--steps", type=int, default=20)
    p_sim.add_argument("--q", help="derive C0, C from this q (p/q rational)")
    p_sim.add_argument("--delta", help="stability parameter delta (p/q rational)")
    p_sim.add_argument("--cms", type=float, default=RunConfig.c_ms)
    p_sim.add_argument("--radius", type=float, default=RunConfig.radius)
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
    except OSError as exc:  # report handles its own read errors, so this is an output path
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
