"""Command-line entry point: build, export, decompose, verify, solve.

Each command returns its report as (key, value) pairs and a verdict; main
prints them as stable key=value lines from `command=<name>` to
`elapsed_ms=`.  Only the `*_ms` timings vary by run: `build` ends with
`write_ms=` (the .gr export) and `solve --gr` with `read_ms=` (the .gr
parse), each just ahead of `elapsed_ms=`.  Exit codes: 0 success or
all checks verified, 1 verification failure (a `solve --task tw` tree
decomposition that fails validation or does not have the reported width
included), 2 usage or input error (a file the OS cannot open included),
3 resource limit.  An input error prints one
`qkneser: error: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import ekr, twsolve
from .errors import MalformedTreeError, QKneserError, TooLargeError, UsageError
from .gf import factor_prime_power
from .graph import VERTEX_LIMIT, build_qkneser, edge_count, gauss, read_gr, write_gr
from .qcount import (Params, Window, alpha_formula, check_printable, degree_formula,
                     qkneser_tw, tw_value)
from .td import validate, width, write_td
from .verify import SUITES, run_suite, star_certificate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _out_path(args, p: Params, suffix: str) -> str:
    name = f"kq{p.q}_n{p.n}_k{p.k}_t{p.t}.{suffix}"
    return args.out or os.path.join(os.environ.get("QKNESER_OUT_DIR", "."), name)


def _ms_since(start: float) -> int:
    return int(1000 * (time.monotonic() - start))


def _params(args) -> tuple[Params, list]:
    """The Params of -q -n -k -t and their report fields; a q that is not
    a prime power names no field and raises NotPrimePowerError."""
    p = Params(args.n, args.k, args.t, args.q)
    factor_prime_power(p.q)
    return p, [("q", p.q), ("n", p.n), ("k", p.k), ("t", p.t)]


def cmd_params(args):
    p, report = _params(args)
    check_printable(p)
    report += [
        ("vertices", gauss(p.n, p.k, p.q)),
        ("delta", degree_formula(p)),
        ("alpha", alpha_formula(p)),
        ("tw_formula_applies", qkneser_tw(p) is not None),
    ]
    value = tw_value(p)
    if isinstance(value, Window):
        report += [("tw_lower", value.lower), ("tw_upper", value.upper)]
    else:
        report.append(("tw", "unknown" if value is None else value))
    return report, True


def cmd_build(args):
    p, report = _params(args)
    g = build_qkneser(p, limit=args.limit)
    path = _out_path(args, p, "gr")
    start = time.monotonic()
    write_gr(g, path)
    write_ms = _ms_since(start)
    report += [("vertices", g.n_vertices), ("edges", edge_count(g)), ("out", path),
               ("write_ms", write_ms)]
    return report, True


def cmd_decompose(args):
    p, report = _params(args)
    cert = star_certificate(build_qkneser(p, limit=args.limit))
    path = _out_path(args, p, "td")
    write_td(cert.decomposition, path)
    report += [
        ("vertices", cert.decomposition.n_vertices),
        ("pencil_size", cert.family.bit_count()),
        ("width", cert.width),
        ("valid", cert.report.valid),
        ("width_matches_formula", cert.verdict),
        ("out", path),
    ]
    return report, cert.report.valid and cert.verdict not in ("false", "refuted", "outside_window")


def cmd_verify(args):
    options = {k: v for k, v in vars(args).items()
               if k in ("qmax", "nmax", "out") and v is not None}
    report = run_suite(args.suite, **options)
    # the suite's notes and failures are its log, printed ahead of the report
    for line in report.lines:
        print(f"# {line}")
    for failure in report.failures:
        print(f"FAIL {failure}")
    return [("suite", args.suite), ("checks", report.checks),
            ("failures", len(report.failures)), ("ok", report.ok)], report.ok


def _certifies(g, d, value: int) -> bool:
    """Is d a valid tree decomposition of g of width value?  A decomposition
    whose bags do not form a tree certifies nothing."""
    try:
        return validate(g, d).valid and width(d) == value
    except MalformedTreeError:
        return False


def cmd_solve(args):
    io_ms = []
    ok = True
    # a graph above the treewidth solver's cap is refused before it is read or built
    limit = min(args.limit, twsolve.VERTEX_CAP) if args.task == "tw" else args.limit
    if args.gr and {args.q, args.n, args.k, args.t} == {None}:
        start = time.monotonic()
        g = read_gr(args.gr, limit=limit)
        io_ms.append(("read_ms", _ms_since(start)))
        source = args.gr
    elif args.gr or None in (args.q, args.n, args.k, args.t):
        raise UsageError("solve needs either --gr PATH or all of -q -n -k -t, not both")
    else:
        p, _ = _params(args)
        g = build_qkneser(p, limit=limit)
        source = f"K_{p.q}({p.n},{p.k},{p.t})"
    budget_s = args.budget_ms / 1000.0 if args.budget_ms is not None else None
    report = [("input", source), ("task", args.task), ("vertices", g.n_vertices)]
    if args.task == "tw":
        # GL(n,q) acts transitively on the vertices of K_q(n,k,t); a .gr
        # file makes no such promise
        r = twsolve.treewidth_exact(g, time_budget=budget_s, vertex_transitive=not args.gr)
        ok = _certifies(g, r.decomposition, r.value)
        report += [("value", r.value), ("status", r.status),
                   ("lower", r.lower), ("upper", r.upper), ("nodes", r.nodes),
                   ("memo_hits", r.memo_hits), ("forced", r.forced), ("kept", r.kept)]
        if args.out:
            write_td(r.decomposition, args.out)
            report.append(("out", args.out))
        report.append(("levels", ",".join(f"{w}:{verdict}:{nodes}"
                                          for w, verdict, nodes in r.levels) or "none"))
    else:
        r = ekr.max_independent_set_exact(g, time_budget=budget_s)
        report += [("value", r.size),
                   ("status", "exact" if r.exact else "lower_bound_only"),
                   ("nodes", r.nodes)]
        if args.out:
            ekr.write_vertex_set(r.members, args.out)
            report.append(("out", args.out))
    return report + io_ms, ok


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_param_flags(sub, required: bool) -> None:
    sub.add_argument("-q", type=int, required=required, help="field order (prime power)")
    sub.add_argument("-n", type=int, required=required, help="ambient dimension")
    sub.add_argument("-k", type=int, required=required, help="subspace dimension")
    sub.add_argument("-t", type=int, required=required, help="intersection threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkneser",
        description="Generalized q-Kneser graphs: formulas, graph builds, "
                    "tree decompositions, verification sweeps, exact solvers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    limit = argparse.ArgumentParser(add_help=False)
    limit.add_argument("--limit", type=_non_negative_int, default=VERTEX_LIMIT, help="vertex limit")

    p_params = subs.add_parser("params", help="print formula values for (q,n,k,t)")
    p_params.set_defaults(run=cmd_params)
    _add_param_flags(p_params, required=True)

    for name, run, text in (
            ("build", cmd_build, "build K_q(n,k,t) and export a .gr file"),
            ("decompose", cmd_decompose,
             "build, star-decompose from a point pencil, validate, export a .td file")):
        p_out = subs.add_parser(name, parents=[limit], help=text)
        p_out.set_defaults(run=run)
        _add_param_flags(p_out, required=True)
        p_out.add_argument("--out", help="output path (default derived from params)")

    p_ver = subs.add_parser("verify", help="run a named verification suite")
    p_ver.set_defaults(run=cmd_verify)
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--qmax", type=int, help="largest q in the sweep (identities, claims)")
    p_ver.add_argument("--nmax", type=int, help="largest n in the sweep (claims)")
    p_ver.add_argument("--out", help="write sweep records (claims)")

    p_solve = subs.add_parser("solve", parents=[limit], help="exact treewidth / independent set")
    p_solve.set_defaults(run=cmd_solve)
    _add_param_flags(p_solve, required=False)
    p_solve.add_argument("--gr", help="solve a graph loaded from a .gr file")
    p_solve.add_argument("--task", choices=["tw", "mis"], default="tw")
    p_solve.add_argument("--budget-ms", type=_non_negative_int, dest="budget_ms",
                         help="wall-clock budget; 0 gives bounds only")
    p_solve.add_argument("--out", help="certificate path (.td or vertex list)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report, ok = args.run(args)
    except TooLargeError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (QKneserError, OSError) as exc:
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc}\n")
    elapsed_ms = _ms_since(start)
    for key, value in [("command", args.command), *report, ("elapsed_ms", elapsed_ms)]:
        print(f"{key}={str(value).lower() if isinstance(value, bool) else value}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
