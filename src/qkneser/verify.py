"""Named verification suites, each over one fixed parameter grid.

Each suite cross-checks one slice of the package against an independent
route: counting identities against exact big-integer evaluation, the degree
formula against explicitly built graphs, the independence formula against
exact solver runs and the extremal constructions, the treewidth formula
against validated constructive decompositions, and the separator property
against the exact solver plus exhaustive search.

A suite's only parameters are its `verify` options (identities: qmax;
claims: qmax, nmax, out).  Suites return a SuiteReport; the CLI maps
failures to a nonzero exit.
"""

from __future__ import annotations

import random
from collections import namedtuple

from . import ekr, families, twsolve
from .errors import TooLargeError, UsageError
from .gf import make_field
from .graph import Graph, bits, build_cograssmann, build_qkneser, build_qkneser_all_t
from .qcount import (
    Params,
    Window,
    alpha_formula,
    check_printable,
    degree_formula,
    delta_alpha_below_vertex_count,
    gauss,
    gauss_at_most,
    gauss_bounds_hold,
    gauss_identities_hold,
    intersect_count,
    layer_exceeds_alpha,
    nest_dim,
    pigeonhole_bound_holds,
    sweep_records,
    tw_formula_applies,
    tw_value,
)
from .subspace import canonicalize
from .td import star_decomposition, validate, width

SWEEP_QS = (2, 3, 4, 5, 7, 8, 9)  # prime powers; formulas accept any q >= 2
GRID_LIMIT = 100_000  # points of an identities or claims grid


class SuiteReport:
    __slots__ = ("name", "ok", "checks", "failures", "lines")

    def __init__(self, name: str):
        self.name, self.ok, self.checks = name, True, 0
        self.failures: list[str] = []
        self.lines: list[str] = []

    def check(self, passed: bool, message: str) -> None:
        self.checks += 1
        if not passed:
            self.ok = False
            self.failures.append(message)

    def info(self, line: str) -> None:
        self.lines.append(line)


def unit_subspace(q: int, n: int, dim: int):
    """span{e_1, ..., e_dim} in F_q^n, the canonical fixed subspace
    (the zero subspace for dim = 0)."""
    rows = [[int(j == i) for j in range(n)] for i in range(dim)]
    return canonicalize(make_field(q), rows or [[0] * n])


# The star decomposition of a built K_q(n,k,t) over the point pencil of
# span{e_1..e_t} (n >= 2k) or the nest of span{e_1..e_m}, m = nest_dim
# (n < 2k), its validation and its width, against qcount.tw_value.
StarCertificate = namedtuple("StarCertificate", [
    "family",
    "decomposition",
    "report",
    "width",
    "formula",
    # true/false against an exact value (refuted: validated and below it),
    # within_window/outside_window against a Window, undefined where no
    # formula applies
    "verdict",
])


def star_certificate(g) -> StarCertificate:
    """Family, star decomposition, validation and width for a graph built
    from Params (g.meta)."""
    p = g.meta
    family = (ekr.nest_family(g, unit_subspace(p.q, p.n, nest_dim(p))) if p.n < 2 * p.k
              else ekr.point_pencil(g, unit_subspace(p.q, p.n, p.t)))
    d = star_decomposition(g, family)
    w, formula, report = width(d), tw_value(p), validate(g, d)
    if formula is None:
        verdict = "undefined"
    elif isinstance(formula, Window):
        verdict = "within_window" if w in formula else "outside_window"
    else:
        verdict = "true" if w == formula else "refuted" if w < formula and report.valid else "false"
    return StarCertificate(family, d, report, w, formula, verdict)


def buildable_instances() -> list[tuple[int, int, int]]:
    """All (q, n, k) with q in {2, 3}, k >= 2 and [n,k]_q <= 3000; each
    stands for the graphs K_q(n,k,t), 1 <= t < k."""
    out = []
    for q in (2, 3):
        k = 2
        while gauss_at_most(k + 1, k, q, 3000):
            n = k
            while gauss_at_most(n, k, q, 3000):
                out.append((q, n, k))
                n += 1
            k += 1
    return out


def _check_grid(name: str, points: int, grid: str) -> None:
    """UsageError for an empty grid, TooLargeError for one of more than
    GRID_LIMIT points: both asked before the grid is built."""
    if not points:
        raise UsageError(f"verify {name}: the grid {grid} is empty")
    if points > GRID_LIMIT:
        raise TooLargeError(f"verify {name}: the grid {grid} has {points} points, "
                            f"above the limit {GRID_LIMIT}")


def claims_size(qmax: int = 9, nmax: int = 40, kmax: int = 8) -> int:
    """len(claims_params(qmax, nmax, kmax)), counted without building it:
    each k contributes k-1 values of t and max(0, nmax-2k+1) of n."""
    qs = sum(q <= qmax for q in SWEEP_QS)
    return qs * sum((k - 1) * max(0, nmax - 2 * k + 1) for k in range(2, kmax + 1))


def claims_params(qmax: int = 9, nmax: int = 40, kmax: int = 8):
    """The inequality sweep grid: prime-power q <= qmax, 1 <= t < k <= kmax,
    2k <= n <= nmax."""
    out = []
    for q in SWEEP_QS:
        if q > qmax:
            continue
        for k in range(2, kmax + 1):
            for t in range(1, k):
                for n in range(2 * k, nmax + 1):
                    out.append(Params(n, k, t, q))
    return out


def suite_identities(qmax: int = 9) -> SuiteReport:
    """Gaussian-binomial recurrences and power bounds, exactly, for every
    integer 2 <= q <= qmax and 1 <= i <= m <= 12, 78 (m, i) points per q.
    An empty grid is a UsageError, one of more than GRID_LIMIT points a
    TooLargeError."""
    _check_grid("identities", 78 * max(0, qmax - 1), f"q = 2..{qmax}, m = 1..12")
    rep = SuiteReport("identities")
    for q in range(2, qmax + 1):
        for m in range(1, 13):
            for i in range(1, m + 1):
                rep.check(gauss_identities_hold(m, i, q),
                          f"recurrence identity fails at m={m} i={i} q={q}")
                rep.check(gauss_bounds_hold(m, i, q),
                          f"power bounds fail at m={m} i={i} q={q}")
    rep.info(f"identities+bounds exact on q=2..{qmax}, m<=12: {rep.checks} checks")
    return rep


def suite_claims(qmax: int = 9, nmax: int = 40, out: str | None = None) -> SuiteReport:
    """Inequality sweep: the t-layer count exceeds alpha for n >= 2k, and
    Delta + alpha < |V|, at every grid point.  In the treewidth-formula
    range (where n > 2k) the pigeonhole bound holds, and the U -> U^perp
    image K_q(n, n-k, t+n-2k) gets the same degree, alpha and treewidth
    values, read through the n < 2k branches of the formulas.
    With `out`, writes one qcount.sweep_records line per grid point to that
    path.  An empty grid is a UsageError; a grid of more than GRID_LIMIT
    points, and with `out` counts too long to print, a TooLargeError; all
    raised before the grid is built or `out` is opened."""
    _check_grid("claims", claims_size(qmax, nmax), f"q <= {qmax}, k <= 8, 2k <= n <= {nmax}")
    grid = claims_params(qmax, nmax)
    if out is not None:
        check_printable(*reversed(grid))  # largest first: a refusal comes at once
    rep = SuiteReport("claims")
    in_range = 0
    for p in grid:
        rep.check(layer_exceeds_alpha(p),
                  f"layer count fails to exceed alpha at {p}")
        rep.check(delta_alpha_below_vertex_count(p),
                  f"Delta + alpha >= |V| at {p}")
        if tw_formula_applies(p):
            in_range += 1
            rep.check(pigeonhole_bound_holds(p),
                      f"pigeonhole bound fails at {p}")
            dual = Params(p.n, p.n - p.k, p.t + p.n - 2 * p.k, p.q)
            rep.check(all(f(p) == f(dual) for f in (degree_formula, alpha_formula, tw_value)),
                      f"degree, alpha or tw differs between {p} and its dual "
                      f"k={dual.k} t={dual.t}")
    rep.info(f"claims sweep: {rep.checks} checks, {in_range} params in formula range")
    if out is not None:
        with open(out, "w") as fh:
            fh.write("\n".join(sweep_records(grid)) + "\n")
    return rep


def suite_degrees() -> SuiteReport:
    """Build every instance and compare each vertex's degree and full
    intersection-dimension histogram with the closed-form counts."""
    rep = SuiteReport("degrees")
    for q, n, k in buildable_instances():
        graphs, hists = build_qkneser_all_t(n, k, q)
        expected_hist = [intersect_count(n, k, k, m, q) for m in range(k + 1)]
        bad = next((u for u, h in enumerate(hists) if h != expected_hist), None)
        rep.check(bad is None,
                  f"histogram mismatch at vertex {bad} of q={q} n={n} k={k}")
        for t, g in graphs.items():
            delta = degree_formula(Params(n, k, t, q))
            bad = next((u for u in range(g.n_vertices) if g.degree(u) != delta), None)
            rep.check(bad is None,
                      f"degree mismatch at vertex {bad} of q={q} n={n} k={k} t={t}")
        rep.info(f"q={q} n={n} k={k}: {graphs[1].n_vertices} vertices, "
                 f"degrees+histograms match for all t")
    return rep


def suite_ekr() -> SuiteReport:
    """Extremal families have the formula sizes and are independent on all
    buildable instances; the exact solver reproduces alpha on the two
    pinned desk-scale q-Kneser graphs."""
    rep = SuiteReport("ekr")
    instances = buildable_instances()
    for q, n, k in instances:
        graphs, _ = build_qkneser_all_t(n, k, q)
        for t in range(1, k):
            g = graphs[t]
            pencil = ekr.point_pencil(g, unit_subspace(q, n, t))
            size = gauss(n - t, k - t, q)
            where = f"q={q} n={n} k={k} t={t}"
            rep.check(pencil.bit_count() == size,
                      f"pencil size {pencil.bit_count()} != {size} at {where}")
            rep.check(ekr.is_independent(g, pencil), f"pencil not independent at {where}")
            if n == 2 * k:
                nest = ekr.nest_family(g, unit_subspace(q, n, n - t))
                rep.check(nest.bit_count() == size,
                          f"nest size {nest.bit_count()} != {size} at {where}")
                rep.check(ekr.is_independent(g, nest), f"nest not independent at {where}")
    rep.info(f"extremal families validated on {sum(k - 1 for _, _, k in instances)} instances")

    for n, expected in ((4, 7), (5, 15)):
        p = Params(n, 2, 1, 2)
        g = build_qkneser(p)
        r = ekr.max_independent_set_exact(g)
        rep.check(r.exact and r.size == expected,
                  f"exact MIS on q=2 n={n} k=2 t=1 returned {r.size} "
                  f"(exact={r.exact}), expected {expected}")
        rep.info(f"alpha(K_2({n},2,1)) = {r.size} by exact solver "
                 f"({r.nodes} nodes, {r.elapsed:.2f}s)")
    return rep


def suite_td() -> SuiteReport:
    """Constructive treewidth upper bounds: star decompositions over the
    families of star_certificate (a point pencil for n >= 2k, a nest for
    n < 2k) achieve the formula width and pass the validator."""
    rep = SuiteReport("td")
    for name, g in (
        ("q-Kneser q=2 n=7 k=2 t=1", build_qkneser(Params(7, 2, 1, 2))),
        ("complement Grassmann q=2 n=5 k=2", build_cograssmann(5, 2, 2)),
        ("complement Grassmann q=2 n=5 k=3", build_cograssmann(5, 3, 2)),
    ):
        cert = star_certificate(g)
        rep.check(cert.report.valid, f"{name}: decomposition invalid: {cert.report}")
        rep.check(cert.verdict == "true",
                  f"{name}: width {cert.width} != formula value {cert.formula}")
        rep.info(f"{name}: width {cert.width} = formula, validator passed "
                 f"({len(cert.decomposition.bags)} bags)")
    return rep


def suite_separators() -> SuiteReport:
    """For every corpus graph with exact treewidth w, a balanced separator
    of order <= w+1 exists: exhaustive search must find a witness whose
    parts satisfy the 1/3 - 2/3 size bounds with no crossing edge."""
    rep = SuiteReport("separators")
    for name, g in corpus():
        r = twsolve.treewidth_exact(g)
        if r.status != twsolve.EXACT:
            rep.check(False, f"{name}: solver did not reach exactness")
            continue
        witness = twsolve.balanced_separator_search(g, r.value + 1)
        if witness is None:
            rep.check(False, f"{name}: no separator of order <= tw+1 = {r.value + 1}")
            continue
        rep.check(_separator_ok(g, witness), f"{name}: separator witness invalid")
    rep.info(f"separator property verified on {rep.checks} corpus graphs")
    return rep


def _separator_ok(g, witness) -> bool:
    x, a, b = witness.separator, witness.side_a, witness.side_b
    full = (1 << g.n_vertices) - 1
    if x | a | b != full or x & a or x & b or a & b:
        return False
    if any(g.rows[v] & b for v in bits(a)):
        return False
    r = (a | b).bit_count()
    return 3 * a.bit_count() >= r and 3 * b.bit_count() >= r \
        and 3 * a.bit_count() <= 2 * r and 3 * b.bit_count() <= 2 * r


def corpus() -> list[tuple[str, Graph]]:
    """The solver-validation corpus of 73 graphs: complete graphs to K_12,
    a path and three trees up to 20 vertices, cycles, the 3x3 grid,
    Petersen, and 50 seeded random graphs of 5..9 vertices with mixed
    densities."""
    seed = 20240801
    graphs = [(f"K_{m}", families.complete_graph(m)) for m in range(1, 13)]
    graphs.append(("P_20 (path)", families.path_graph(20)))
    graphs += [(f"tree-{m}", families.random_tree(m, seed + s))
               for m, s in ((10, 7), (15, 8), (20, 9))]
    graphs += [(f"C_{m}", families.cycle_graph(m)) for m in (4, 5, 6, 9, 12)]
    graphs += [("grid-3x3", families.grid_graph(3, 3)), ("petersen", families.petersen_graph())]
    rng = random.Random(seed)
    for i in range(50):
        m = rng.randrange(5, 10)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        graphs.append((f"random-{i}(n={m},p={p})",
                       families.random_graph(m, p, rng.randrange(1 << 30))))
    return graphs


SUITES = {
    "identities": suite_identities,
    "claims": suite_claims,
    "degrees": suite_degrees,
    "ekr": suite_ekr,
    "td": suite_td,
    "separators": suite_separators,
}


def run_suite(name: str, **options) -> SuiteReport:
    """Run SUITES[name] with the given keyword options; an option the suite
    does not take is a UsageError."""
    suite = SUITES[name]
    if options:  # imported here, so that a run without options never loads it
        import inspect

        # signature() reads a wrapped suite's own parameters via __wrapped__
        extra = sorted(set(options) - set(inspect.signature(suite).parameters))
        if extra:
            raise UsageError(f"verify {name} takes no --{extra[0]}")
    return suite(**options)
