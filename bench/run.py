"""qkneser benchmark runner.

    python3 bench/run.py --workload {construct_sweep,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; qkneser is imported from src/ and
nothing is installed.  Each workload is a fixed sequence of `qkneser` CLI
commands, started one at a time as child processes (a closed loop with one
client).  Passes over the sequence repeat while another pass is expected
to end within --seconds; at least one pass always runs.  Every command's
output is checked after its pass, outside the timed region.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
runs one untraced pass and then the same commands through launch.py, which
records spans around calls into each module, and prints the per-layer
metrics.  Lines starting with `#` are a human-readable log; the last line
of standard output is the JSON result.  All outputs go to a temporary
directory under .bench_work/ in the checkout, removed at exit; traced runs
keep their merged spans in .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

RUN_LIMIT_S = 170.0        # every run ends well inside 180 s
SETUP_SAMPLES = 12         # at least this many fresh interpreters timed for setup_s
COMMAND_TIMEOUT_S = 150.0

# SHA-256 of the exports at the benchmark's first commit; the .gr/.td
# bytes are a ROADMAP invariant, so any change fails the check.
DIGESTS = {
    "kq2_n7_k2_t1.gr": "a0ea189eac08cb572551ffee7868a1412240a4053b69214bce4982fc70e5b875",
    "kq3_n5_k2_t1.gr": "01f49e75877f28f87b860dbba5857d8964f960a586ed97797a1a13f1d441da79",
    "kq2_n6_k3_t2.gr": "6e78ad936c38d739151ebbedc35cf2c3285d3cc51d09f46973864b4d3b6d9814",
    "kq2_n7_k2_t1.td": "221725058557ce18037169f50a12b760b897b641951d532f50da79e845c802d2",
    "kq3_n5_k2_t1.td": "be7e80b7dc65a372586d044b54fe1a33a8b412b51df81e52c0680e35b67b3c53",
    "kq2_n6_k3_t2.td": "875cddc54f504df44629c30355561bcff18d8c2dc1f4064803ae3cabac02bca5",
}

# Base G(m, p) graphs of the exact workload: (m, p, graph seed, treewidth
# recorded at the benchmark's first commit).  The workload seed relabels
# their vertices, so every seed gets new .gr files of known treewidth and
# about the same search effort.
RANDOM_SET = [
    (28, 0.3, 28300, 14),
    (32, 0.5, 32501, 22),
    (34, 0.5, 34500, 23),
    (36, 0.5, 36501, 25),
]

CONSTRUCT_PARAMS = [(2, 7, 2, 1), (3, 5, 2, 1), (2, 6, 3, 2)]  # (q, n, k, t)


# -- commands and their checks -------------------------------------------------

@dataclass
class Command:
    key: str                 # per-command metric this command's time adds to
    argv: list[str]
    check: Callable[[dict[str, str], Path], list[str]]  # -> problems found


@dataclass
class Result:
    command: Command
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    fields: dict[str, str]
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def _params(q, n, k, t):
    return ["-q", str(q), "-n", str(n), "-k", str(k), "-t", str(t)]


def _stem(q, n, k, t):
    return f"kq{q}_n{n}_k{k}_t{t}"


def _expect(fields, key, want):
    got = fields.get(key)
    return [] if got == str(want) else [f"{key}={got}, expected {want}"]


def _digest(workdir: Path, name: str) -> list[str]:
    path = workdir / name
    if not path.exists():
        return [f"{name} was not written"]
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    return [] if got == DIGESTS[name] else [f"{name} sha256 {got[:12]} differs from the recorded export"]


def _members(path: Path) -> int:
    mask = 0
    for line in path.read_text().split():
        mask |= 1 << (int(line) - 1)
    return mask


class Oracle:
    """Reference graphs and formulas for the checks.  The graphs are built
    once per run, before anything is timed or traced; the certificate
    checks look their qkneser functions up at call time, so in a traced
    run they are recorded as spans too."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from qkneser import ekr, graph, qcount, td

        self.ekr, self.graph, self.qcount, self.td = ekr, graph, qcount, td
        self.graphs = {}

    def params(self, q, n, k, t):
        return self.qcount.Params(n, k, t, q)

    def build(self, q, n, k, t):
        key = (q, n, k, t)
        if key not in self.graphs:
            self.graphs[key] = self.graph.build_qkneser(self.params(*key))
        return self.graphs[key]

    def mis_certificate(self, g, path: Path, size: str) -> list[str]:
        if not path.exists():
            return [f"{path.name} was not written"]
        members = _members(path)
        problems = [] if str(members.bit_count()) == size else [
            f"{path.name} lists {members.bit_count()} vertices, value={size}"]
        if not self.ekr.is_independent(g, members):
            problems.append(f"{path.name} is not an independent set")
        return problems

    def td_certificate(self, g, path: Path, value: str) -> list[str]:
        if not path.exists():
            return [f"{path.name} was not written"]
        d = self.td.read_td(path)
        problems = [] if self.td.validate(g, d).valid else [f"{path.name} fails validation"]
        if str(self.td.width(d)) != value:
            problems.append(f"{path.name} has width {self.td.width(d)}, value={value}")
        return problems


def construct_commands(oracle: Oracle, seed: int, workdir: Path) -> list[Command]:
    cmds = []
    for q, n, k, t in CONSTRUCT_PARAMS:
        p = oracle.params(q, n, k, t)
        stem = _stem(q, n, k, t)
        vertices = oracle.qcount.gauss(n, k, q)
        edges = vertices * oracle.qcount.degree_formula(p) // 2

        def check_build(f, w, stem=stem, vertices=vertices, edges=edges):
            return (_expect(f, "vertices", vertices) + _expect(f, "edges", edges)
                    + _digest(w, stem + ".gr"))

        def check_decompose(f, w, stem=stem):
            return (_expect(f, "valid", "true") + _expect(f, "width_matches_formula", "true")
                    + _digest(w, stem + ".td"))

        cmds.append(Command("cli.build_s", ["build", *_params(q, n, k, t), "--out", stem + ".gr"],
                            check_build))
        cmds.append(Command("cli.decompose_s",
                            ["decompose", *_params(q, n, k, t), "--out", stem + ".td"],
                            check_decompose))
    q, n, k, t = CONSTRUCT_PARAMS[0]
    stem = _stem(q, n, k, t)
    alpha = oracle.qcount.alpha_formula(oracle.params(q, n, k, t))
    graph = oracle.build(q, n, k, t)

    def check_mis(f, w):
        return (_expect(f, "value", alpha) + _expect(f, "status", "exact")
                + oracle.mis_certificate(graph, w / (stem + ".mis"), f.get("value")))

    cmds.append(Command("cli.solve_gr_mis_s",
                        ["solve", "--gr", stem + ".gr", "--task", "mis", "--out", stem + ".mis"],
                        check_mis))
    return cmds


def sweep_commands(oracle: Oracle, seed: int, workdir: Path) -> list[Command]:
    def suite_check(checks):
        def check(f, w):
            return (_expect(f, "ok", "true") + _expect(f, "failures", 0)
                    + _expect(f, "checks", checks))
        return check

    return [Command("cli.verify_degrees_s", ["verify", "degrees"], suite_check(178)),
            Command("cli.verify_ekr_s", ["verify", "ekr"], suite_check(288))]


def random_edges(m: int, p: float, graph_seed: int, relabel_seed: int) -> list[tuple[int, int]]:
    """G(m, p) drawn as qkneser.families.random_graph draws it, then with
    its vertices permuted by relabel_seed."""
    rng = random.Random(graph_seed)
    edges = [e for e in itertools.combinations(range(m), 2) if rng.random() < p]
    perm = list(range(m))
    random.Random(relabel_seed).shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def exact_commands(oracle: Oracle, seed: int, workdir: Path) -> list[Command]:
    def check_tw(g, name, value):
        def check(f, w):
            return (_expect(f, "value", value) + _expect(f, "status", "exact")
                    + oracle.td_certificate(g, w / name, f.get("value")))
        return check

    def check_mis(g, name, value):
        def check(f, w):
            return (_expect(f, "value", value) + _expect(f, "status", "exact")
                    + oracle.mis_certificate(g, w / name, f.get("value")))
        return check

    cmds = [Command("cli.solve_tw_s",
                    ["solve", *_params(2, 4, 2, 1), "--task", "tw", "--out", "kq2_n4_k2_t1.td"],
                    check_tw(oracle.build(2, 4, 2, 1), "kq2_n4_k2_t1.td", 27))]
    for i, (m, p, graph_seed, tw) in enumerate(RANDOM_SET):
        edges = random_edges(m, p, graph_seed, seed * len(RANDOM_SET) + i)
        stem = f"gnp_m{m}_{graph_seed}_s{seed}"
        lines = [f"c G({m},{p}) graph seed {graph_seed}, relabelled by workload seed {seed}",
                 f"p tw {m} {len(edges)}"] + [f"{u + 1} {v + 1}" for u, v in edges]
        (workdir / (stem + ".gr")).write_text("\n".join(lines) + "\n")
        g = oracle.graph.Graph.from_edges(m, edges)
        cmds.append(Command("cli.solve_gr_tw_s",
                            ["solve", "--gr", stem + ".gr", "--task", "tw", "--out", stem + ".td"],
                            check_tw(g, stem + ".td", tw)))
    for q, n, k, t in ((2, 6, 3, 2), (3, 5, 2, 1)):
        stem = _stem(q, n, k, t)
        alpha = oracle.qcount.alpha_formula(oracle.params(q, n, k, t))
        cmds.append(Command("cli.solve_mis_s",
                            ["solve", *_params(q, n, k, t), "--task", "mis", "--out", stem + ".mis"],
                            check_mis(oracle.build(q, n, k, t), stem + ".mis", alpha)))
    cmds.append(Command("cli.verify_separators_s", ["verify", "separators"],
                        lambda f, w: _expect(f, "ok", "true") + _expect(f, "failures", 0)))
    return cmds


def construct_sweep_commands(oracle: Oracle, seed: int, workdir: Path) -> list[Command]:
    # One workload rather than two: a lone construct or sweep pass is too
    # short to average out this host's speed swings (bench/README.md, Noise)
    return construct_commands(oracle, seed, workdir) + sweep_commands(oracle, seed, workdir)


WORKLOADS = {
    "construct_sweep": construct_sweep_commands,
    "exact": exact_commands,
}

# per-command metrics reported per workload (the rest read 0 there)
COMMAND_METRICS = [
    "cli.build_s", "cli.decompose_s", "cli.solve_gr_mis_s",
    "cli.verify_degrees_s", "cli.verify_ekr_s",
    "cli.solve_tw_s", "cli.solve_gr_tw_s", "cli.solve_mis_s", "cli.verify_separators_s",
]


# -- running commands -----------------------------------------------------------

def child_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["QKNESER_OUT_DIR"] = str(workdir)
    return env


class Spawner:
    """Handle on spawner.py, which starts every child and reports its wall
    time, CPU time and peak RSS from os.wait4."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, workdir: Path, env, timeout: float) -> dict:
        req = {"argv": argv, "cwd": str(workdir), "env": env, "timeout": timeout,
               "stdout": str(workdir / "stdout.txt"), "stderr": str(workdir / "stderr.txt")}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def parse_report(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith(("#", "FAIL")):
            key, _, value = line.partition("=")
            fields[key] = value
    return fields


def run_pass(spawner: Spawner, cmds: list[Command], workdir: Path, deadline: float,
             traced: bool, between=None) -> list[Result]:
    """Run every command once; `between`, if given, is called before each
    command and after the last, outside the commands' timing."""
    env = child_env(workdir)
    results = []
    for i, cmd in enumerate(cmds):
        if between:
            between()
        if traced:
            spans_path = workdir / f"spans-{i}.json"
            argv = [sys.executable, str(BENCH / "launch.py"), str(spans_path), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "qkneser.cli", *cmd.argv]
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - time.monotonic()))
        u = spawner.run(argv, workdir, env, timeout)
        r = Result(cmd, u["wall"], u["cpu"], u["maxrss_kb"] / 1024.0, u["code"],
                   u["timed_out"], parse_report((workdir / "stdout.txt").read_text()))
        if traced and spans_path.exists():
            r.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        results.append(r)
    if between:
        between()
    return results


def check_pass(results: list[Result], workdir: Path) -> int:
    """Fill in each result's problems; returns the number of failed commands."""
    failed = 0
    for r in results:
        if r.timed_out:
            r.problems.append("timed out")
        elif r.code != 0:
            r.problems.append(f"exit code {r.code}")
        else:
            try:
                r.problems.extend(r.command.check(r.fields, workdir))
            except Exception as exc:  # a malformed certificate is a failed check
                r.problems.append(f"check raised {type(exc).__name__}: {exc}")
        failed += bool(r.problems)
    return failed


def pass_metrics(results: list[Result]) -> dict[str, float]:
    m = {"wall_s": sum(r.wall for r in results),
         "peak_rss_mb": max(r.rss_mb for r in results)}
    for key in COMMAND_METRICS:
        m[key] = sum(r.wall for r in results if r.command.key == key)
    return m


class SetupTimer:
    """Times a fresh interpreter plus `import qkneser.cli`.  The samples are
    spread over the first pass, a few at each gap between commands, so that
    their median sees the same machine as the pass rather than one moment."""

    def __init__(self, spawner: Spawner, workdir: Path, gaps: int):
        self.spawner, self.workdir = spawner, workdir
        self.per_gap = max(2, -(-SETUP_SAMPLES // gaps))
        self.samples: list[float] = []
        self.spent = 0.0  # wall time taken by sampling, kept out of pass timing
        self._time_import()  # may compile bytecode, so it is not counted

    def _time_import(self) -> float:
        argv = [sys.executable, "-c", "import qkneser.cli"]
        u = self.spawner.run(argv, self.workdir, child_env(self.workdir), COMMAND_TIMEOUT_S)
        if u["code"] != 0:
            raise RuntimeError(f"import qkneser.cli failed: exit code {u['code']}")
        return u["wall"]

    def sample(self) -> None:
        start = time.monotonic()
        self.samples += [self._time_import() for _ in range(self.per_gap)]
        self.spent += time.monotonic() - start


# -- per-layer metrics from spans ---------------------------------------------------

SPAN_TIMES = [
    "subspace.enumerate", "graph.build", "graph.build_all_t", "graph.write_gr",
    "graph.read_gr", "ekr.point_pencil", "ekr.nest_family", "ekr.is_independent",
    "ekr.mis", "cliques.max_clique", "td.star", "td.validate", "td.write_td",
    "td.read_td", "twsolve.treewidth_exact", "twsolve.min_fill",
    "twsolve.minor_min_width", "twsolve.separator",
]
SELF_ONLY = ["verify.degrees", "verify.ekr", "verify.separators"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    total, own, calls, attrs = {}, {}, {}, {}
    for s in spans:
        name = s["name"]
        if not s["nested"]:
            total[name] = total.get(name, 0.0) + s["busy"]
        own[name] = own.get(name, 0.0) + s["busy"] - s["child"]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s["attrs"].items():
            attrs[(name, key)] = attrs.get((name, key), 0) + value

    def count(name, key):
        return attrs.get((name, key), 0)

    m = {}
    for name in SPAN_TIMES:
        m[name + "_s"] = total.get(name, 0.0)
        m[name + "_self_s"] = own.get(name, 0.0)
    for name in SELF_ONLY:
        m[name + "_s"] = own.get(name, 0.0)
    builds = ("graph.build", "graph.build_all_t")
    levels = count("twsolve.treewidth_exact", "levels")
    m.update({
        "subspace.vertices": count("subspace.enumerate", "items"),
        "graph.pairs": sum(count(b, "pairs") for b in builds),
        "graph.edges": sum(count(b, "edges") for b in builds),
        "graph.write_gr_bytes": count("graph.write_gr", "bytes"),
        "graph.read_gr_bytes": count("graph.read_gr", "bytes"),
        "ekr.point_pencil_calls": calls.get("ekr.point_pencil", 0),
        "cliques.nodes": count("cliques.max_clique", "nodes"),
        "td.validate_edges": count("td.validate", "edges"),
        "td.write_td_bytes": count("td.write_td", "bytes"),
        "twsolve.nodes": count("twsolve.treewidth_exact", "nodes"),
        "twsolve.levels_searched": levels,
        "twsolve.level_yield": count("twsolve.treewidth_exact", "decisive") / levels if levels else 0.0,
    })
    return m


def trace_metrics(plain: list[Result], traced: list[Result], certify: list[dict]):
    """Per-layer metrics of a traced run: span totals over the traced pass
    and its certificate checks, per-command times of the untraced pass,
    the CLI time outside top-level spans, and the tracing overhead."""
    m = layer_metrics([s for r in traced for s in r.spans] + certify)
    plain_metrics = pass_metrics(plain)
    m.update({k: plain_metrics[k] for k in COMMAND_METRICS})
    m["cli.overhead_s"] = sum(
        r.wall - sum(s["busy"] for s in r.spans if s["parent"] is None) for r in traced)
    m["trace.overhead_s"] = pass_metrics(traced)["wall_s"] - plain_metrics["wall_s"]
    return m


# -- run metadata and output ----------------------------------------------------------

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
         "subspace.vertices": "count", "graph.pairs": "count-computed", "graph.edges": "count",
         "graph.write_gr_bytes": "bytes", "graph.read_gr_bytes": "bytes",
         "td.write_td_bytes": "bytes", "ekr.point_pencil_calls": "count",
         "cliques.nodes": "count", "td.validate_edges": "count", "twsolve.nodes": "count",
         "twsolve.levels_searched": "count", "twsolve.level_yield": "ratio"}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


def run_metadata() -> str:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qkneser").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"commit={commit} src_sha256={digest.hexdigest()[:16]} "
            f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"loadavg={os.getloadavg()[0]:.2f}")


def log(line: str) -> None:
    print("# " + line, flush=True)


def log_pass(label: str, results: list[Result]) -> None:
    for r in results:
        status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        log(f"{label} {r.wall:8.3f}s cpu={r.cpu:7.3f}s rss={r.rss_mb:6.1f}MB "
            f"{' '.join(r.command.argv)} -> {status}")


LOGGED_SPANS = ("graph.build", "graph.build_all_t", "twsolve.treewidth_exact")


def log_spans(results: list[Result]) -> None:
    """Per-command detail of the counts behind the per-layer totals."""
    for r in results:
        for s in r.spans:
            # builds, and treewidth solves that searched at least one level
            if s["name"] in LOGGED_SPANS and s["attrs"].get("levels", 1):
                detail = " ".join(f"{k}={v}" for k, v in sorted(s["attrs"].items()))
                log(f"  span {s['name']} {s['busy']:.3f}s [{' '.join(r.command.argv)}] {detail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qkneser" / "cli.py").is_file():
        print(f"error: no qkneser sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    spawner = Spawner()  # before the runner grows; see spawner.py
    try:
        log(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} " + run_metadata())
        oracle = Oracle()
        cmds = WORKLOADS[args.workload](oracle, args.seed, workdir)
        setup = SetupTimer(spawner, workdir, gaps=len(cmds) + 1)
        if args.trace:
            plain = run_pass(spawner, cmds, workdir, deadline, traced=False)
            failed = check_pass(plain, workdir)
            log_pass("untraced", plain)
            traced = run_pass(spawner, cmds, workdir, deadline, traced=True)
            tracer = spans.Tracer()
            spans.install(tracer)  # the traced pass's certificate checks
            failed += check_pass(traced, workdir)
            log_pass("traced", traced)
            attempted = len(plain) + len(traced)
            certify = [s.as_dict() for s in tracer.spans]
            metrics = trace_metrics(plain, traced, certify)
            log_spans(traced)
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            dump = [{"request": " ".join(r.command.argv), "wall": r.wall, "spans": r.spans}
                    for r in traced] + [{"request": "certify", "spans": certify}]
            (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))
        else:
            attempted = failed = 0
            passes = []
            measure_start = time.monotonic()
            while True:
                results = run_pass(spawner, cmds, workdir, deadline, traced=False,
                                   between=None if passes else setup.sample)
                failed += check_pass(results, workdir)
                attempted += len(results)
                passes.append(pass_metrics(results))
                log_pass(f"pass {len(passes)}", results)
                per_pass = (time.monotonic() - measure_start - setup.spent) / len(passes)
                if per_pass * (len(passes) + 1) > args.seconds \
                        or time.monotonic() + per_pass > deadline:
                    break
            metrics = {key: statistics.median(p[key] for p in passes)
                       for key in ("wall_s", "peak_rss_mb")}
            metrics["setup_s"] = statistics.median(setup.samples)
            metrics["ok_ratio"] = (attempted - failed) / attempted
            log(f"setup_s samples={len(setup.samples)} "
                + " ".join(f"{x:.4f}" for x in setup.samples))
            log(f"medians over passes={len(passes)}: " + " ".join(
                f"{k}={statistics.median(p[k] for p in passes):.3f}"
                for k in COMMAND_METRICS if passes[0][k]))
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
