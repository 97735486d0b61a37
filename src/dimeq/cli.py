"""Command-line interface.

    dimeq partition dim "[3,3]"
    dimeq partition transpose "[3,2,2,1]"
    dimeq partition compare "[3,3]" "[4,1,1]"
    dimeq partition add "[2,1]" "[1,1]"
    dimeq partition from-epsilon 10101
    dimeq rep orbit REP.json          dimeq rep dim REP.json
    dimeq equation check SPEC.json    dimeq equation check-full SPEC.json
    dimeq equation reduce --n 6
    dimeq equation solve --n 4 --l 2 [--exclude-trivial] [--max-one-dominant]
    dimeq verify lemma1|lemma2|lemma2-reduction|prop3 --n N
    dimeq verify prop4 --n N --l L [--mode paper|strict]
    dimeq verify prop5 --n N --q Q --l L
    dimeq verify epsilon-orbit --n N --p P --q Q
    dimeq verify all [--max-n N]
    dimeq vanish SPEC.json [--expect-vanish]

Exit codes: 0 success / statement holds; 1 counterexamples found, equation
fails, or --expect-vanish unmet; 2 invalid input; 3 resource limit refused;
4 internal soundness check failed (a bug in dimeq, not in the input).

Output is deterministic: same invocation, same bytes.  JSON is the default
format; csv is available for `equation solve`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .equation import (
    DEFAULT_MAX_L,
    DEFAULT_MAX_N,
    check_dim_equation,
    check_dim_equation_full,
    enumerate_orbit_solutions,
    reduce_to_whittaker_form,
)
from .errors import InternalError, InvalidInputError, ResourceLimitError, echo
from .partitions import EpsilonVector, Partition, partition_from_epsilon
from .representations import attached_orbit, rep_from_json, spec_from_json
from .theorems import (
    DEFAULT_CEX_CAP,
    VERIFIERS,
    Vanishes,
    VerificationReport,
    vanishing_verdict,
    verdict_to_json,
    verification_sweep,
)


@dataclass(frozen=True)
class CliConfig:
    """Resolved knobs: flag wins over environment wins over default."""

    max_n: int = DEFAULT_MAX_N
    max_l: int = DEFAULT_MAX_L
    cex_cap: int = DEFAULT_CEX_CAP


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidInputError(f"{name} must be an integer, got {echo(raw)}") from None


def resolve_config(args: argparse.Namespace) -> CliConfig:
    def pick(flag_value: int | None, env_name: str, default: int) -> int:
        if flag_value is not None:
            return flag_value
        env = _env_int(env_name)
        return env if env is not None else default

    cfg = CliConfig(
        max_n=pick(getattr(args, "max_n", None), "DIMEQ_MAX_N", DEFAULT_MAX_N),
        max_l=pick(getattr(args, "max_l", None), "DIMEQ_MAX_L", DEFAULT_MAX_L),
        cex_cap=pick(getattr(args, "cex_cap", None), "DIMEQ_CEX_CAP", DEFAULT_CEX_CAP),
    )
    if cfg.cex_cap < 0:
        raise InvalidInputError(f"cex-cap must be >= 0, got {cfg.cex_cap}")
    return cfg


def _dump(payload: object) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _write(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args: argparse.Namespace, payload: object, text: str | None = None) -> None:
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "json":
        _write(args, _dump(payload))
    elif fmt == "text":
        _write(args, text if text is not None else _dump(payload))
    else:
        raise InvalidInputError(f"format {fmt!r} not supported for this command")


def _load_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise InvalidInputError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # not UTF-8, or an integer too long to convert
            raise InvalidInputError(f"{path}: {exc}") from None


def _report_text(report: VerificationReport) -> str:
    lines = [
        f"{report.statement}: {'PASSED' if report.passed else 'FAILED'} "
        f"(space {report.space_size}, params {json.dumps(report.parameters, sort_keys=True)})"
    ]
    for cex in report.counterexamples:
        lines.append("  counterexample " + json.dumps(cex, sort_keys=True))
    return "\n".join(lines)


def _finish_report(args: argparse.Namespace, report: VerificationReport) -> int:
    _emit(args, report.to_json(), _report_text(report))
    return 0 if report.passed else 1


# -- partition ------------------------------------------------------------------


def cmd_partition_dim(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    payload = {"orbit_dim": p.orbit_dim(), "rep_dim": p.rep_dim(), "n": p.n}
    _emit(args, payload, f"orbit_dim {p.orbit_dim()} rep_dim {p.rep_dim()} n {p.n}")
    return 0


def cmd_partition_transpose(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition).transpose()
    _emit(args, {"partition": list(p.parts), "n": p.n}, str(p))
    return 0


def cmd_partition_compare(args: argparse.Namespace) -> int:
    rel = Partition.parse(args.first).compare(Partition.parse(args.second))
    _emit(args, {"relation": rel.value}, rel.value)
    return 0


def cmd_partition_add(args: argparse.Namespace) -> int:
    p = Partition.parse(args.first) + Partition.parse(args.second)
    _emit(args, {"partition": list(p.parts), "n": p.n}, str(p))
    return 0


def cmd_partition_from_epsilon(args: argparse.Namespace) -> int:
    p = partition_from_epsilon(EpsilonVector.parse(args.bits))
    _emit(args, {"partition": list(p.parts), "n": p.n}, str(p))
    return 0


# -- rep --------------------------------------------------------------------------


def cmd_rep_orbit(args: argparse.Namespace) -> int:
    rep = rep_from_json(_load_json(args.file), expected_rank=args.n)
    orbit = attached_orbit(rep)
    _emit(args, {"orbit": list(orbit.parts), "n": orbit.n}, str(orbit))
    return 0


def cmd_rep_dim(args: argparse.Namespace) -> int:
    rep = rep_from_json(_load_json(args.file), expected_rank=args.n)
    orbit = attached_orbit(rep)
    payload = {
        "rep_dim": orbit.rep_dim(),
        "orbit_dim": orbit.orbit_dim(),
        "orbit": list(orbit.parts),
        "n": orbit.n,
    }
    _emit(
        args,
        payload,
        f"rep_dim {orbit.rep_dim()} orbit_dim {orbit.orbit_dim()} orbit {orbit}",
    )
    return 0


# -- equation ----------------------------------------------------------------------


def cmd_equation_check(args: argparse.Namespace) -> int:
    report = args.check(spec_from_json(_load_json(args.file)))
    _emit(
        args,
        report.to_json(),
        f"{report.lhs} {'==' if report.holds else '!='} {report.rhs} "
        f"(slack {report.slack})",
    )
    return 0 if report.holds else 1


def cmd_equation_reduce(args: argparse.Namespace) -> int:
    generic, minimal, target = reduce_to_whittaker_form(args.n)
    payload = {
        "n": args.n,
        "generic_dim": generic,
        "minimal_eisenstein_dim": minimal,
        "target": target,
    }
    _emit(
        args,
        payload,
        f"n {args.n}: generic {generic}, minimal {minimal}, target {target}",
    )
    return 0


def _orbit_labels(solutions: list[tuple[Partition, ...]]) -> dict[Partition, str]:
    """str of every orbit the solutions use, each rendered once."""
    labels: dict[Partition, str] = {}
    for sol in solutions:
        for p in sol:
            if p not in labels:
                labels[p] = str(p)
    return labels


def _solutions_csv(n: int, l: int, solutions: list[tuple[Partition, ...]]) -> str:
    labels = _orbit_labels(solutions)
    dims = {p: p.rep_dim() for p in labels}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "l", "solution_index", "orbit_index", "partition", "rep_dim"])
    for si, sol in enumerate(solutions):
        for oi, p in enumerate(sol):
            writer.writerow([n, l, si, oi, labels[p], dims[p]])
    return buf.getvalue().rstrip("\n")


def _solutions_text(n: int, l: int, solutions: list[tuple[Partition, ...]]) -> str:
    labels = _orbit_labels(solutions)
    lines = [f"{len(solutions)} solution(s) for n={n}, l={l}"]
    lines += ["  " + " + ".join([labels[p] for p in sol]) for sol in solutions]
    return "\n".join(lines)


def cmd_equation_solve(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    solutions = enumerate_orbit_solutions(
        args.n,
        args.l,
        exclude_trivial=args.exclude_trivial,
        max_one_dominant=args.max_one_dominant,
        max_n=cfg.max_n,
        max_l=cfg.max_l,
    )
    fmt = args.format or "json"
    if fmt == "csv":
        _write(args, _solutions_csv(args.n, args.l, solutions))
    elif fmt == "text":
        _write(args, _solutions_text(args.n, args.l, solutions))
    else:
        payload = {
            "n": args.n,
            "l": args.l,
            "target": args.n * (args.n - 1) // 2,
            "count": len(solutions),
            # a parts tuple dumps as the same JSON array as a list would
            "solutions": [[p.parts for p in sol] for sol in solutions],
        }
        _emit(args, payload)
    return 0


# -- verify ------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    v = args.verifier
    mode = {"mode": args.mode} if v.modes else {}
    report = v.func(*[getattr(args, p) for p in v.params], cex_cap=cfg.cex_cap, **mode)
    return _finish_report(args, report)


def cmd_verify_all(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    reports = verification_sweep(max_n=args.max_n, cex_cap=cfg.cex_cap)
    all_passed = all(r.passed for r in reports)
    payload = {
        "all_passed": all_passed,
        "report_count": len(reports),
        "reports": [r.to_json() for r in reports],
    }
    text = "\n".join(
        [
            f"{'PASSED' if r.passed else 'FAILED'} {r.statement} "
            + json.dumps(r.parameters, sort_keys=True)
            for r in reports
        ]
        + [f"{'all passed' if all_passed else 'FAILURES PRESENT'} ({len(reports)} reports)"]
    )
    _emit(args, payload, text)
    return 0 if all_passed else 1


# -- vanish -------------------------------------------------------------------------


def cmd_vanish(args: argparse.Namespace) -> int:
    spec = spec_from_json(_load_json(args.file))
    verdict = vanishing_verdict(spec)
    payload = verdict_to_json(verdict)
    _emit(args, payload, json.dumps(payload, indent=2, sort_keys=False))
    if args.expect_vanish and not isinstance(verdict, Vanishes):
        return 1
    return 0


# -- wiring -------------------------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser, csv_ok: bool = False) -> None:
    choices = ["json", "text"] + (["csv"] if csv_ok else [])
    p.add_argument("--format", choices=choices, default="json")
    p.add_argument("--out", metavar="FILE", default=None)


def _add_bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    p.add_argument("--max-l", type=int, default=None, dest="max_l")


def _add_verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cex-cap", type=int, default=None, dest="cex_cap")
    _add_output_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimeq",
        description="Exact orbit-dimension bookkeeping for global integrals on GL_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # partition
    p_part = sub.add_parser("partition", help="partition and orbit arithmetic")
    part_sub = p_part.add_subparsers(dest="action", required=True)
    sp = part_sub.add_parser("dim", help="orbit and representation dimension")
    sp.add_argument("partition")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_partition_dim)
    sp = part_sub.add_parser("transpose", help="conjugate partition")
    sp.add_argument("partition")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_partition_transpose)
    sp = part_sub.add_parser("compare", help="dominance comparison")
    sp.add_argument("first")
    sp.add_argument("second")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_partition_compare)
    sp = part_sub.add_parser("add", help="componentwise sum")
    sp.add_argument("first")
    sp.add_argument("second")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_partition_add)
    sp = part_sub.add_parser("from-epsilon", help="orbit attached to a 0/1 pattern")
    sp.add_argument("bits")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_partition_from_epsilon)

    # rep
    p_rep = sub.add_parser("rep", help="representation descriptors")
    rep_sub = p_rep.add_subparsers(dest="action", required=True)
    sp = rep_sub.add_parser("orbit", help="attached orbit of a descriptor file")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, default=None)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_rep_orbit)
    sp = rep_sub.add_parser("dim", help="dimension of a descriptor file")
    sp.add_argument("file")
    sp.add_argument("--n", type=int, default=None)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_rep_dim)

    # equation
    p_eq = sub.add_parser("equation", help="dimension equation tools")
    eq_sub = p_eq.add_subparsers(dest="action", required=True)
    sp = eq_sub.add_parser("check", help="check sum of dims == n(n-1)/2")
    sp.add_argument("file")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_equation_check, check=check_dim_equation)
    sp = eq_sub.add_parser("check-full", help="check sum of dims == n^2-1")
    sp.add_argument("file")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_equation_check, check=check_dim_equation_full)
    sp = eq_sub.add_parser("reduce", help="generic/minimal dims and the target")
    sp.add_argument("--n", type=int, required=True)
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_equation_reduce)
    sp = eq_sub.add_parser("solve", help="enumerate orbit multisets meeting the target")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--exclude-trivial", action="store_true", dest="exclude_trivial")
    sp.add_argument("--max-one-dominant", action="store_true", dest="max_one_dominant")
    _add_bound_flags(sp)
    _add_output_flags(sp, csv_ok=True)
    sp.set_defaults(func=cmd_equation_solve)

    # verify
    p_ver = sub.add_parser("verify", help="exhaustive desk-scale verifiers")
    ver_sub = p_ver.add_subparsers(dest="action", required=True)
    for name, v in VERIFIERS.items():
        sp = ver_sub.add_parser(name)
        for param in v.params:
            sp.add_argument(f"--{param}", type=int, required=True)
        if v.modes:
            sp.add_argument("--mode", choices=v.modes, default=v.modes[0])
        _add_verify_flags(sp)
        sp.set_defaults(func=cmd_verify, verifier=v)
    sp = ver_sub.add_parser("all", help="every verifier over its full range")
    sp.add_argument("--max-n", type=int, default=None, dest="max_n")
    _add_verify_flags(sp)
    sp.set_defaults(func=cmd_verify_all)

    # vanish
    sp = sub.add_parser("vanish", help="verdict for an integral specification")
    sp.add_argument("file")
    sp.add_argument("--expect-vanish", action="store_true", dest="expect_vanish")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_vanish)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        try:
            return args.func(args)
        except ValueError as exc:  # CPython will not print an int of over 4,300 digits
            # an InvalidInputError may quote the same message about input
            if type(exc) is ValueError and "integer string conversion" in str(exc):
                raise ResourceLimitError(f"result too large to print: {exc}") from None
            raise
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
