"""Command-line entry point: build, export, decompose, verify, solve.

Reports are stable key=value lines with all counts as decimal strings
(timing fields excepted, they vary by run).  Exit codes: 0 success or all
checks verified, 1 verification failure, 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import ekr, twsolve
from .errors import QKneserError, ResourceLimitError
from .graph import VERTEX_LIMIT, build_qkneser, edge_count, gauss, read_gr, write_gr
from .qcount import (
    Params,
    Window,
    alpha_formula,
    degree_formula,
    sweep_records,
    tw_formula_applies,
    tw_value,
)
from .td import star_decomposition, validate, width, write_td
from .verify import SUITES, claims_params, unit_subspace

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _out_path(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get("QKNESER_OUT_DIR", "."), default_name)


def _params(parser, args) -> Params:
    try:
        return Params(args.n, args.k, args.t, args.q)
    except QKneserError as exc:
        parser.error(str(exc))


def _emit(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={value}")


def cmd_params(parser, args) -> int:
    p = _params(parser, args)
    start = time.monotonic()
    report = [("command", "params"), ("q", p.q), ("n", p.n), ("k", p.k), ("t", p.t)]
    report.append(("vertices", gauss(p.n, p.k, p.q)))
    report.append(("delta", degree_formula(p)))
    report.append(("alpha", alpha_formula(p) if p.n >= 2 * p.k else "undefined"))
    report.append(("tw_formula_applies", "true" if tw_formula_applies(p) else "false"))
    value = tw_value(p)
    if isinstance(value, Window):
        report.append(("tw_lower", value.lower))
        report.append(("tw_upper", value.upper))
    else:
        report.append(("tw", "unknown" if value is None else value))
    report.append(("elapsed_ms", int(1000 * (time.monotonic() - start))))
    _emit(report)
    return EXIT_OK


def cmd_build(parser, args) -> int:
    p = _params(parser, args)
    start = time.monotonic()
    g = build_qkneser(p, limit=args.limit)
    path = _out_path(args, f"kq{p.q}_n{p.n}_k{p.k}_t{p.t}.gr")
    write_gr(g, path)
    _emit([
        ("command", "build"),
        ("q", p.q), ("n", p.n), ("k", p.k), ("t", p.t),
        ("vertices", g.n_vertices),
        ("edges", edge_count(g)),
        ("out", path),
        ("elapsed_ms", int(1000 * (time.monotonic() - start))),
    ])
    return EXIT_OK


def cmd_decompose(parser, args) -> int:
    p = _params(parser, args)
    start = time.monotonic()
    g = build_qkneser(p, limit=args.limit)
    pencil = ekr.point_pencil(g, unit_subspace(p.q, p.n, p.t))
    d = star_decomposition(g, pencil)
    report = validate(g, d)
    w = width(d)
    path = _out_path(args, f"kq{p.q}_n{p.n}_k{p.k}_t{p.t}.td")
    write_td(d, path)
    formula = tw_value(p)
    if formula is None:
        verdict = "undefined"
    elif isinstance(formula, Window):
        verdict = "within_window" if w in formula else "outside_window"
    else:
        verdict = "true" if w == formula else "false"
    _emit([
        ("command", "decompose"),
        ("q", p.q), ("n", p.n), ("k", p.k), ("t", p.t),
        ("vertices", g.n_vertices),
        ("pencil_size", pencil.bit_count()),
        ("width", w),
        ("valid", "true" if report.valid else "false"),
        ("width_matches_formula", verdict),
        ("out", path),
        ("elapsed_ms", int(1000 * (time.monotonic() - start))),
    ])
    if not report.valid or verdict in ("false", "outside_window"):
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    suite = SUITES[args.suite]
    start = time.monotonic()
    kwargs = {}
    if args.suite in ("identities", "claims") and args.qmax is not None:
        kwargs["qmax"] = args.qmax
    if args.suite == "claims" and args.nmax is not None:
        kwargs["nmax"] = args.nmax
    report = suite(**kwargs)
    if args.suite == "claims" and args.out:
        grid = claims_params(args.qmax or 9, args.nmax or 40)
        with open(args.out, "w") as fh:
            fh.write("\n".join(sweep_records(grid)) + "\n")
    for line in report.lines:
        print(f"# {line}")
    for failure in report.failures:
        print(f"FAIL {failure}")
    _emit([
        ("command", "verify"),
        ("suite", args.suite),
        ("checks", report.checks),
        ("failures", len(report.failures)),
        ("ok", "true" if report.ok else "false"),
        ("elapsed_ms", int(1000 * (time.monotonic() - start))),
    ])
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_solve(parser, args) -> int:
    start = time.monotonic()
    if args.gr:
        g = read_gr(args.gr, limit=args.limit)
        source = args.gr
    else:
        if None in (args.q, args.n, args.k, args.t):
            parser.error("solve needs either --gr PATH or all of -q -n -k -t")
        p = _params(parser, args)
        g = build_qkneser(p, limit=args.limit)
        source = f"K_{p.q}({p.n},{p.k},{p.t})"
    budget_s = args.budget_ms / 1000.0 if args.budget_ms is not None else None
    report = [("command", "solve"), ("input", source), ("task", args.task),
              ("vertices", g.n_vertices)]
    if args.task == "tw":
        r = twsolve.treewidth_exact(g, time_budget=budget_s)
        report += [("value", r.value), ("status", r.status),
                   ("lower", r.lower), ("upper", r.upper), ("nodes", r.nodes)]
        if args.out and r.decomposition is not None:
            write_td(r.decomposition, args.out)
            report.append(("out", args.out))
    else:
        r = ekr.max_independent_set_exact(g, time_budget=budget_s)
        report += [("value", r.size),
                   ("status", "exact" if r.exact else "lower_bound_only"),
                   ("nodes", r.nodes)]
        if args.out:
            ekr.write_vertex_set(r.members, args.out)
            report.append(("out", args.out))
    report.append(("elapsed_ms", int(1000 * (time.monotonic() - start))))
    _emit(report)
    return EXIT_OK


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

    p_params = subs.add_parser("params", help="print formula values for (q,n,k,t)")
    _add_param_flags(p_params, required=True)

    p_build = subs.add_parser("build", help="build K_q(n,k,t) and export a .gr file")
    _add_param_flags(p_build, required=True)
    p_build.add_argument("--format", choices=["gr"], default="gr")
    p_build.add_argument("--out", help="output path (default derived from params)")
    p_build.add_argument("--limit", type=int, default=VERTEX_LIMIT, help="vertex limit")

    p_dec = subs.add_parser("decompose",
                            help="build, star-decompose from a point pencil, "
                                 "validate, export a .td file")
    _add_param_flags(p_dec, required=True)
    p_dec.add_argument("--out", help="output path (default derived from params)")
    p_dec.add_argument("--limit", type=int, default=VERTEX_LIMIT, help="vertex limit")

    p_ver = subs.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--qmax", type=int, help="largest q in the sweep")
    p_ver.add_argument("--nmax", type=int, help="largest n in the sweep")
    p_ver.add_argument("--out", help="write sweep records (claims suite)")

    p_solve = subs.add_parser("solve", help="exact treewidth / independent set")
    _add_param_flags(p_solve, required=False)
    p_solve.add_argument("--gr", help="solve a graph loaded from a .gr file")
    p_solve.add_argument("--task", choices=["tw", "mis"], default="tw")
    p_solve.add_argument("--budget-ms", type=int, dest="budget_ms",
                         help="wall-clock budget; 0 gives bounds only")
    p_solve.add_argument("--out", help="certificate path (.td or vertex list)")
    p_solve.add_argument("--limit", type=int, default=VERTEX_LIMIT, help="vertex limit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "params": cmd_params,
        "build": cmd_build,
        "decompose": cmd_decompose,
        "verify": cmd_verify,
        "solve": cmd_solve,
    }
    try:
        return handlers[args.command](parser, args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except QKneserError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
