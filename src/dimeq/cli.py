"""Command-line interface.

Run `dimeq --help`, or `dimeq COMMAND --help` for a command's flags and
limits; README.md lists the commands with examples.

Exit codes: 0 success / statement holds; 1 counterexamples found, equation
fails, or --expect-vanish unmet; 2 invalid input; 3 resource limit refused
or out of memory; 4 internal soundness check failed (a bug in dimeq, not in
the input); 141 stdout closed by its reader (as for a process killed by
SIGPIPE), with nothing on stderr.

Output is deterministic: same invocation, same bytes.  JSON is the default
format; csv is available for `equation solve`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from .equation import (
    DEFAULT_MAX_L,
    DEFAULT_MAX_N,
    _solve,
    check_dim_equation,
    check_dim_equation_full,
    reduce_to_whittaker_form,
)
from .errors import InternalError, InvalidInputError, ResourceLimitError
from .partitions import EpsilonVector, Partition, partition_from_epsilon
from .representations import attached_orbit, rep_from_json, spec_from_json
from .theorems import (
    DEFAULT_CEX_CAP,
    VERIFIERS,
    Vanishes,
    vanishing_verdict,
    verdict_to_json,
    verification_sweep,
)


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args: argparse.Namespace, payload: object, text: str) -> None:
    _write(args, text if args.format == "text" else json.dumps(payload, separators=(",", ":")))


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


# -- partition ------------------------------------------------------------------


def cmd_partition_dim(args: argparse.Namespace) -> int:
    p = Partition.parse(args.partition)
    payload = {"orbit_dim": p.orbit_dim(), "rep_dim": p.rep_dim(), "n": p.n}
    _emit(args, payload, f"orbit_dim {p.orbit_dim()} rep_dim {p.rep_dim()} n {p.n}")
    return 0


def cmd_partition_build(args: argparse.Namespace) -> int:
    p = args.build(args)
    _emit(args, {"partition": list(p.parts), "n": p.n}, str(p))
    return 0


def cmd_partition_compare(args: argparse.Namespace) -> int:
    rel = Partition.parse(args.first).compare(Partition.parse(args.second))
    _emit(args, {"relation": rel.value}, rel.value)
    return 0


# -- rep --------------------------------------------------------------------------


def _rep_orbit(args: argparse.Namespace) -> Partition:
    """The attached orbit of the descriptor in args.file (of rank args.n, if given)."""
    return attached_orbit(rep_from_json(_load_json(args.file), expected_rank=args.n))


def cmd_rep_orbit(args: argparse.Namespace) -> int:
    orbit = _rep_orbit(args)
    _emit(args, {"orbit": list(orbit.parts), "n": orbit.n}, str(orbit))
    return 0


def cmd_rep_dim(args: argparse.Namespace) -> int:
    orbit = _rep_orbit(args)
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


def cmd_equation_solve(args: argparse.Namespace) -> int:
    n, l = args.n, args.l
    # --max-one-dominant is parsed and ignored: a proved no-op (README) kept for pinned argv
    orbits, solutions = _solve(n, l, args.exclude_trivial, max_n=args.max_n, max_l=args.max_l)
    if args.format == "csv":
        # csv.writer quotes a partition exactly when it holds a comma: two or more parts;
        # each rep_dim is the one the search checked
        cells = [(f'"{p}"' if p.length > 1 else str(p)) + f",{d}" for p, d in orbits]
        lines = ["n,l,solution_index,orbit_index,partition,rep_dim"]
        lines += [f"{n},{l},{si},{oi},{cells[i]}" for si, sol in enumerate(solutions)
                  for oi, i in enumerate(sol)]
        _write(args, "\n".join(lines))
        return 0
    # every orbit is used by some solution; str(p) is also p's compact JSON array
    labels = [str(p) for p, _ in orbits]
    if args.format == "text":
        lines = [f"{len(solutions)} solution(s) for n={n}, l={l}"]
        lines += ["  " + " + ".join([labels[i] for i in sol]) for sol in solutions]
        _write(args, "\n".join(lines))
    else:
        rows = ",".join(["[" + ",".join([labels[i] for i in sol]) + "]" for sol in solutions])
        _write(args, f'{{"n":{n},"l":{l},"target":{n * (n - 1) // 2},'
                     f'"count":{len(solutions)},"solutions":[{rows}]}}')
    return 0


# -- verify ------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    v = args.verifier
    mode = {"mode": args.mode} if v.modes else {}
    report = v.func(*[getattr(args, p) for p in v.params], cex_cap=args.cex_cap, **mode)
    lines = [
        f"{report.statement}: {'PASSED' if report.passed else 'FAILED'} "
        f"(space {report.space_size}, params {json.dumps(report.parameters, sort_keys=True)})"
    ]
    for cex in report.counterexamples:
        lines.append("  counterexample " + json.dumps(cex, sort_keys=True))
    _emit(args, report.to_json(), "\n".join(lines))
    return 0 if report.passed else 1


def cmd_verify_all(args: argparse.Namespace) -> int:
    reports = verification_sweep(max_n=args.max_n, cex_cap=args.cex_cap)
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

_INT = {"type": int}
_CEX_CAP = {"type": int, "default": DEFAULT_CEX_CAP}
_REQUIRED_INT = {"type": int, "required": True}
_SWITCH = {"action": "store_true"}
_BROKEN_PIPE = 128 + 13  # a shell's status for a process killed by SIGPIPE


class _LazyParser(argparse.ArgumentParser):
    """A parser that is constructed, then filled by `fill`, when it first parses.

    argparse parses only the root and the subparsers it dispatches to, and
    lists the others by the name and help their parent registers, so a run
    builds the root, one group and one leaf, not all 25 parsers.  A parser
    without `fill` (the root) is built at once."""

    def __init__(self, *args, fill: Callable[..., None] | None = None, **kwargs) -> None:
        self._unbuilt = (args, kwargs, fill)
        if fill is None:
            self._build()

    def _build(self) -> None:
        if self._unbuilt is not None:
            args, kwargs, fill = self._unbuilt
            self._unbuilt = None
            super().__init__(*args, **kwargs)
            if fill is not None:
                fill(self)

    def parse_known_args(self, args=None, namespace=None):
        self._build()
        return super().parse_known_args(args, namespace)


def _leaf(
    sub: argparse._SubParsersAction,
    name: str,
    func: Callable[[argparse.Namespace], int],
    positionals: tuple[str, ...] = (),
    flags: dict[str, dict] | None = None,
    formats: tuple[str, ...] = ("json", "text"),
    *,
    help: str,
    **defaults: object,
) -> None:
    """One runnable subcommand: positionals, its own flags, --format and --out."""

    def fill(sp: argparse.ArgumentParser) -> None:
        for positional in positionals:
            sp.add_argument(positional)
        for flag, spec in (flags or {}).items():
            sp.add_argument(flag, **spec)
        sp.add_argument("--format", choices=formats, default="json")
        sp.add_argument("--out", metavar="FILE", default=None)
        sp.set_defaults(func=func, **defaults)

    sub.add_parser(name, fill=fill, help=help)


def _partition_leaves(g: argparse.ArgumentParser) -> None:
    part = g.add_subparsers(dest="action", required=True)
    _leaf(part, "dim", cmd_partition_dim, ("partition",),
          help="orbit and representation dimension")
    _leaf(part, "transpose", cmd_partition_build, ("partition",),
          help="conjugate partition",
          build=lambda a: Partition.parse(a.partition).transpose())
    _leaf(part, "compare", cmd_partition_compare, ("first", "second"),
          help="dominance comparison")
    _leaf(part, "add", cmd_partition_build, ("first", "second"),
          help="componentwise sum",
          build=lambda a: Partition.parse(a.first) + Partition.parse(a.second))
    _leaf(part, "from-epsilon", cmd_partition_build, ("bits",),
          help="orbit attached to a 0/1 pattern",
          build=lambda a: partition_from_epsilon(EpsilonVector.parse(a.bits)))


def _rep_leaves(g: argparse.ArgumentParser) -> None:
    rep = g.add_subparsers(dest="action", required=True)
    _leaf(rep, "orbit", cmd_rep_orbit, ("file",), {"--n": _INT},
          help="attached orbit of a descriptor file")
    _leaf(rep, "dim", cmd_rep_dim, ("file",), {"--n": _INT},
          help="dimension of a descriptor file")


def _equation_leaves(g: argparse.ArgumentParser) -> None:
    eq = g.add_subparsers(dest="action", required=True)
    _leaf(eq, "check", cmd_equation_check, ("file",),
          help="check sum of dims == n(n-1)/2", check=check_dim_equation)
    _leaf(eq, "check-full", cmd_equation_check, ("file",),
          help="check sum of dims == n^2-1", check=check_dim_equation_full)
    _leaf(eq, "reduce", cmd_equation_reduce, flags={"--n": _REQUIRED_INT},
          help="generic/minimal dims and the target")
    _leaf(eq, "solve", cmd_equation_solve,
          flags={"--n": _REQUIRED_INT, "--l": _REQUIRED_INT, "--exclude-trivial": _SWITCH,
                 "--max-one-dominant": _SWITCH,
                 "--max-n": {"type": int, "default": DEFAULT_MAX_N},
                 "--max-l": {"type": int, "default": DEFAULT_MAX_L}},
          formats=("json", "text", "csv"),
          help="enumerate orbit multisets meeting the target")


def _verify_leaves(g: argparse.ArgumentParser) -> None:
    ver = g.add_subparsers(dest="action", required=True)
    for name, v in VERIFIERS.items():
        flags = {f"--{param}": _REQUIRED_INT for param in v.params}
        if v.modes:
            flags["--mode"] = {"choices": v.modes, "default": v.modes[0]}
        _leaf(ver, name, cmd_verify, flags={**flags, "--cex-cap": _CEX_CAP}, help=v.help,
              verifier=v)
    _leaf(ver, "all", cmd_verify_all, flags={"--max-n": _INT, "--cex-cap": _CEX_CAP},
          help="every verifier over its full range")


def build_parser() -> argparse.ArgumentParser:
    parser = _LazyParser(
        prog="dimeq",
        description="Exact orbit-dimension bookkeeping for global integrals on GL_n.",
    )
    # every subparser below inherits the root's class, _LazyParser: a run
    # builds this root, then the one group and one leaf it dispatches to
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("partition", help="partition and orbit arithmetic", fill=_partition_leaves)
    sub.add_parser("rep", help="representation descriptors", fill=_rep_leaves)
    sub.add_parser("equation", help="dimension equation tools", fill=_equation_leaves)
    sub.add_parser("verify", help="exhaustive desk-scale verifiers", fill=_verify_leaves)
    _leaf(sub, "vanish", cmd_vanish, ("file",), {"--expect-vanish": _SWITCH},
          help="verdict for an integral specification")
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:  # --help or `dimeq ... | head`: end as a filter SIGPIPE killed
        return _BROKEN_PIPE
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # CPython will not print an int of over 4,300 digits
        # an InvalidInputError, caught above, may quote the same message about input
        if type(exc) is not ValueError or "integer string conversion" not in str(exc):
            raise
        print(f"resource limit: result too large to print: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def main() -> int:
    code = run()
    try:
        sys.stdout.flush()  # a buffered write meets a reader that is gone here
    except BrokenPipeError:
        code = _BROKEN_PIPE
    if code == _BROKEN_PIPE:
        # what stdout still buffers goes nowhere, so the final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
