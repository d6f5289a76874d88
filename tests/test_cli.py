import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qkneser
from qkneser.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(qkneser.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "qkneser.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def exit_code(argv):
    """main's exit code, whether it returns it or exits via argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def parse(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith(("#", "FAIL")):
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


# one vertex above graph.VERTEX_LIMIT, then a line the reader would refuse
OVER_LIMIT_GR = "p tw 5001 1\n1 two\n"


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_in_formula_range(capsys):
    code, out = run(capsys, "params", "-q", "2", "-n", "7", "-k", "2", "-t", "1")
    got = parse(out)
    assert code == 0
    assert got["vertices"] == "2667"
    assert got["delta"] == "2480"
    assert got["alpha"] == "63"
    assert got["tw"] == "2603"


def test_params_reports_window_for_open_case(capsys):
    code, out = run(capsys, "params", "-q", "2", "-n", "4", "-k", "2", "-t", "1")
    got = parse(out)
    assert code == 0
    assert got["tw_formula_applies"] == "false"
    assert (got["tw_lower"], got["tw_upper"]) == ("19", "27")


def test_params_usage_error_when_t_not_below_k():
    with pytest.raises(SystemExit) as exc:
        main(["params", "-q", "2", "-n", "4", "-k", "2", "-t", "3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# build / decompose
# ---------------------------------------------------------------------------

def test_build_writes_deterministic_gr(tmp_path, capsys):
    out1 = tmp_path / "a.gr"
    out2 = tmp_path / "b.gr"
    code, out = run(capsys, "build", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                    "--out", str(out1))
    assert code == 0
    assert parse(out)["edges"] == "280"
    run(capsys, "build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_build_resource_limit_exit_code(tmp_path, capsys):
    code = main(["build", "-q", "2", "-n", "9", "-k", "2", "-t", "1",
                 "--out", str(tmp_path / "x.gr")])
    assert code == 3


def test_decompose_reports_width(tmp_path, capsys):
    out = tmp_path / "d.td"
    code, text = run(capsys, "decompose", "-q", "2", "-n", "5", "-k", "2", "-t", "1",
                     "--out", str(out))
    got = parse(text)
    assert code == 0
    assert got["width"] == "139"
    assert got["valid"] == "true"
    # n=5 is below the q-Kneser range, but t = k-1 makes this the complement
    # Grassmann graph, whose formula value the star construction achieves
    assert got["width_matches_formula"] == "true"
    assert out.exists()


def test_decompose_open_window_case(tmp_path, capsys):
    code, text = run(capsys, "decompose", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                     "--out", str(tmp_path / "w.td"))
    got = parse(text)
    assert code == 0
    assert got["width"] == "27"
    assert got["width_matches_formula"] == "within_window"


def test_default_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QKNESER_OUT_DIR", str(tmp_path))
    code, text = run(capsys, "build", "-q", "2", "-n", "4", "-k", "2", "-t", "1")
    assert code == 0
    assert (tmp_path / "kq2_n4_k2_t1.gr").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_identities(capsys):
    code, out = run(capsys, "verify", "identities", "--qmax", "4")
    assert code == 0
    assert parse(out)["ok"] == "true"


def test_verify_claims_reports_known_counterexamples(tmp_path, capsys):
    records = tmp_path / "records.csv"
    code, out = run(capsys, "verify", "claims", "--qmax", "2", "--nmax", "14",
                    "--out", str(records))
    # the q=2, t=1, n=3k+1 boundary counterexamples make this suite red
    assert code == 1
    assert "pigeonhole" in out
    lines = records.read_text().splitlines()
    assert lines[0].count(",") == 8
    assert any(line.startswith("2,13,4,1,true,false") for line in lines)


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_suite_parameters_are_the_readme_options():
    import inspect
    import re

    from qkneser.verify import SUITES

    expected = {"identities": {"qmax"}, "claims": {"qmax", "nmax", "out"},
                "degrees": set(), "ekr": set(), "td": set(), "separators": set()}
    assert {name: set(inspect.signature(suite).parameters)
            for name, suite in SUITES.items()} == expected
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| suite | options |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        suites, options = row.strip("|").split("|")
        for name in re.findall(r"`(\w+)`", suites):
            documented[name] = set(re.findall(r"`--(\w+)`", options))
    assert documented == expected


def test_command_options_are_the_readme_synopsis():
    import argparse
    import re

    from qkneser.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in synopsis.splitlines():
        if line.startswith("qkneser "):
            options = documented[line.split()[1]] = set()
        options |= set(re.findall(r"(?<![\w.-])--?[a-z][\w-]*", line))
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    given = {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
             for name, sub in subs.choices.items()}
    assert given == documented


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_tw_petersen_from_gr(tmp_path, capsys):
    from qkneser.families import petersen_graph
    from qkneser.graph import write_gr

    gr = tmp_path / "petersen.gr"
    write_gr(petersen_graph(), gr)
    cert = tmp_path / "petersen.td"
    code, out = run(capsys, "solve", "--gr", str(gr), "--task", "tw",
                    "--out", str(cert))
    got = parse(out)
    assert code == 0
    assert got["value"] == "4" and got["status"] == "exact"
    from qkneser.td import read_td, width

    assert width(read_td(cert)) == 4


def test_solve_gr_respects_vertex_limit(tmp_path, capsys):
    gr = tmp_path / "over.gr"
    gr.write_text(OVER_LIMIT_GR)
    code = main(["solve", "--gr", str(gr), "--task", "mis"])
    captured = capsys.readouterr()
    assert code == 3
    assert "over.gr:1: 5001 vertices exceed vertex limit 5000" in captured.err
    assert captured.out == ""


def test_solve_mis_from_params(capsys):
    code, out = run(capsys, "solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                    "--task", "mis")
    got = parse(out)
    assert code == 0
    assert got["value"] == "7" and got["status"] == "exact"


@pytest.mark.parametrize("source", ["params", "gr"])
def test_solve_mis_out_writes_an_independent_set(tmp_path, capsys, source):
    from qkneser.ekr import is_independent
    from qkneser.graph import build_qkneser, write_gr
    from qkneser.qcount import Params

    g = build_qkneser(Params(5, 2, 1, 2))
    if source == "gr":
        gr = tmp_path / "kq2_n5_k2_t1.gr"
        write_gr(g, gr)
        argv = ["--gr", str(gr)]
    else:
        argv = ["-q", "2", "-n", "5", "-k", "2", "-t", "1"]
    cert = tmp_path / "mis.txt"
    code, out = run(capsys, "solve", *argv, "--task", "mis", "--out", str(cert))
    got = parse(out)
    assert code == 0 and got["status"] == "exact" and got["out"] == str(cert)
    text = cert.read_text()
    ids = [int(line) for line in text.splitlines()]
    assert text == "".join(f"{v}\n" for v in ids)  # one id per line, nothing else
    assert len(ids) == int(got["value"]) == 15
    assert ids == sorted(set(ids)) and 1 <= ids[0] and ids[-1] <= g.n_vertices
    assert is_independent(g, sum(1 << (v - 1) for v in ids))


def test_solve_budget_zero_gives_bracket(capsys):
    code, out = run(capsys, "solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                    "--task", "tw", "--budget-ms", "0")
    got = parse(out)
    assert code == 0
    assert got["status"] == "upper_bound_only"
    assert int(got["lower"]) <= int(got["upper"])


def test_solve_mis_budget_zero_gives_lower_bound_only(capsys):
    # the clock is read before the first search node, so --budget-ms 0
    # leaves only the greedy seed, as --help promises
    code, out = run(capsys, "solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                    "--task", "mis", "--budget-ms", "0")
    got = parse(out)
    assert code == 0
    assert got["status"] == "lower_bound_only" and got["nodes"] == "0"
    assert 1 <= int(got["value"]) <= 7


def test_solve_tw_from_params_refutes_one_level(capsys):
    code, out = run(capsys, "solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                    "--task", "tw")
    got = parse(out)
    assert code == 0
    assert got["value"] == "27" and got["status"] == "exact"
    assert int(got["nodes"]) <= 3000
    assert got["levels"] == f"26:refuted:{got['nodes']}"
    assert out.splitlines()[-2].startswith("levels=")


def test_solve_tw_reports_memo_hits_and_forced_after_nodes(capsys):
    code, out = run(capsys, "solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                    "--task", "tw")
    keys = [line.partition("=")[0] for line in out.splitlines()]
    assert code == 0
    at = keys.index("nodes")
    assert keys[at + 1:at + 3] == ["memo_hits", "forced"]
    assert keys[-2:] == ["levels", "elapsed_ms"]
    got = parse(out)
    assert int(got["memo_hits"]) > 0 and int(got["forced"]) > 0


def test_solve_tw_reports_kept_after_forced_and_before_levels(capsys):
    # K_2(4,2,1) is solved as vertex-transitive: the kept clique is N(0)
    # once vertex 0 is eliminated, 16 vertices
    code, out = run(capsys, "solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                    "--task", "tw")
    keys = [line.partition("=")[0] for line in out.splitlines()]
    assert code == 0
    assert keys[keys.index("forced") + 1:keys.index("levels")] == ["kept"]
    assert parse(out)["kept"] == "16"


def _empty_first_bag(d):
    """The first bag loses its vertices: the first eliminated vertex is in
    no bag."""
    d.bags[0] = 0
    return d


def _drop_first_bag(d):
    """The first bag, a leaf of the tree, is dropped with its edge."""
    d.bags.pop(0)
    d.edges = [(i - 1, j - 1) for i, j in d.edges if 0 not in (i, j)]
    return d


def _drop_first_bag_keep_edges(d):
    """The first bag is dropped but its edge is kept: not a tree."""
    d.bags.pop(0)
    return d


@pytest.mark.parametrize("damage", [_empty_first_bag, _drop_first_bag,
                                    _drop_first_bag_keep_edges])
def test_solve_tw_fails_when_its_decomposition_does_not_certify(
        tmp_path, capsys, monkeypatch, damage):
    from qkneser import twsolve
    from qkneser.families import petersen_graph
    from qkneser.graph import write_gr

    gr = tmp_path / "petersen.gr"
    write_gr(petersen_graph(), gr)
    _, good = run(capsys, "solve", "--gr", str(gr), "--task", "tw")
    solve = twsolve.treewidth_exact

    def damaged(g, **kwargs):
        r = solve(g, **kwargs)
        r.decomposition = damage(r.decomposition)
        return r

    monkeypatch.setattr(twsolve, "treewidth_exact", damaged)
    code, bad = run(capsys, "solve", "--gr", str(gr), "--task", "tw")
    assert code == 1
    # the report is the same, elapsed_ms and read_ms aside
    assert bad.splitlines()[:-2] == good.splitlines()[:-2]
    assert parse(bad)["status"] == "exact"


@pytest.mark.parametrize("source, promised", [
    (["--gr", "{tmp}/petersen.gr"], False),
    (["-q", "2", "-n", "4", "-k", "2", "-t", "1"], True),
])
def test_solve_promises_vertex_transitivity_only_for_built_graphs(
        tmp_path, capsys, monkeypatch, source, promised):
    from qkneser import ekr, twsolve
    from qkneser.families import petersen_graph
    from qkneser.graph import write_gr

    write_gr(petersen_graph(), tmp_path / "petersen.gr")
    calls = []

    def spy(solve):
        def spied(g, **kwargs):
            calls.append((solve.__name__, kwargs.get("vertex_transitive", False)))
            return solve(g, **kwargs)
        return spied

    monkeypatch.setattr(twsolve, "treewidth_exact", spy(twsolve.treewidth_exact))
    monkeypatch.setattr(ekr, "max_independent_set_exact", spy(ekr.max_independent_set_exact))
    for task in ("tw", "mis"):
        code, _ = run(capsys, "solve", *[a.format(tmp=tmp_path) for a in source], "--task", task)
        assert code == 0
    assert calls == [("treewidth_exact", promised), ("max_independent_set_exact", promised)]


def test_solve_needs_input():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--task", "tw"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", ["p tw 3 x\n", "p tw 3 1\n1 two\n"])
def test_solve_gr_malformed_file_is_usage_error(tmp_path, text):
    gr = tmp_path / "bad.gr"
    gr.write_text(text)
    proc = cli("solve", "--gr", str(gr))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "bad.gr:" in proc.stderr and "non-integer token" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["solve", "--gr", "{tmp}/missing.gr"],
    ["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--out", "{tmp}/no/such/dir/x.gr"],
])
def test_file_the_os_cannot_open_is_usage_error(tmp_path, argv):
    proc = cli(*[a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and "No such file or directory" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["verify", "degrees", "--qmax", "3"],
    ["solve", "--gr", "{tmp}/bad.gr"],
    ["verify", "claims", "--nmax", "3"],
    ["params", "-q", "6", "-n", "7", "-k", "2", "-t", "1"],
])
def test_input_error_prints_one_line_without_usage(tmp_path, argv):
    (tmp_path / "bad.gr").write_text("p tw 3 1\n1 two\n")
    proc = cli(*[a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("qkneser: error: ")
    assert "usage:" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["params", "-q", "2", "-n", "240", "-k", "120", "-t", "1"],
    ["params", "-q", "3", "-n", "20000", "-k", "2", "-t", "1"],
    ["build", "-q", "2", "-n", "4000", "-k", "2000", "-t", "1", "--out", "{tmp}/g.gr"],
    ["verify", "claims", "--qmax", "9", "--nmax", "600", "--out", "{tmp}/records.csv"],
    ["solve", "--gr", "{tmp}/wide.gr", "--task", "tw"],
    ["params", "-q", str(2**521 - 1), "-n", "3", "-k", "2", "-t", "1"],
    ["decompose", "-q", "2", "-n", "1000000", "-k", "1000000", "-t", "1", "--out", "{tmp}/d.td"],
])
def test_resource_limit_prints_one_line_without_traceback(tmp_path, argv):
    (tmp_path / "wide.gr").write_text("p tw 65 1\n1 2\n")
    proc = cli(*[a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("resource limit: ")
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["wide.gr"]  # nothing written


@pytest.mark.parametrize("command", ["build", "decompose", "solve"])
def test_one_vertex_graph_with_an_oversized_label_is_refused_at_once(
        tmp_path, capsys, monkeypatch, command):
    # K_2(10^6,10^6,1) has one vertex, whose label alone would take ~62 GB
    monkeypatch.setenv("QKNESER_OUT_DIR", str(tmp_path))
    start = time.monotonic()
    assert main([command, "-q", "2", "-n", "1000000", "-k", "1000000", "-t", "1"]) == 3
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("resource limit: ") and "1000000000000 coordinates" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, field, value", [("build", "edges", "0"),
                                                   ("decompose", "width", "0")])
def test_largest_admitted_label_builds_and_decomposes_at_once(
        tmp_path, capsys, monkeypatch, command, field, value):
    monkeypatch.setenv("QKNESER_OUT_DIR", str(tmp_path))
    start = time.monotonic()
    code, out = run(capsys, command, "-q", "2", "-n", "512", "-k", "512", "-t", "1")
    assert time.monotonic() - start < 1
    assert code == 0 and parse(out)["vertices"] == "1" and parse(out)[field] == value


def test_the_fixed_gates_bound_every_admitted_build():
    # every (q, n, k) that build, decompose and solve admit, walked by formula:
    # a built-in field, 2 <= k <= n, [n,k]_q <= VERTEX_LIMIT and k*n <= LABEL_LIMIT.
    # A graph of V vertices holds V^2/8 bytes of rows and V*k*n*cw/8 of labels.
    from qkneser.errors import QKneserError, TooLargeError
    from qkneser.gf import make_field
    from qkneser.graph import VERTEX_LIMIT
    from qkneser.qcount import gauss, gauss_at_most
    from qkneser.subspace import LABEL_LIMIT, enumerate_subspaces, lanes

    fields = []
    for q in range(2, 129):
        try:
            fields.append(make_field(q))
        except QKneserError:
            pass
    assert len(fields) == 44
    start = time.monotonic()
    rows, labels = {}, {}
    for field in fields:
        admitted, refused = [], []
        n = 2
        while n * n <= LABEL_LIMIT:  # k = n: one vertex, only the label gate binds
            admitted.append((n, n))
            n += 1
        refused.append((n, n))
        k = 2
        while gauss_at_most(k + 1, k, field.q, VERTEX_LIMIT):
            n = k + 1
            while gauss_at_most(n, k, field.q, VERTEX_LIMIT) and k * n <= LABEL_LIMIT:
                admitted.append((n, k))
                n += 1
            refused.append((n, k))
            k += 1
        refused.append((k + 1, k))
        cw = lanes(field, 1).cw
        for n, k in admitted:
            v = gauss(n, k, field.q)
            rows[field.q, n, k] = v * v // 8
            labels[field.q, n, k] = v * k * n * cw // 8
        for n, k in refused:  # the walk stops where the enumeration's gates do
            with pytest.raises(TooLargeError):
                next(enumerate_subspaces(field, n, k, VERTEX_LIMIT))
    assert max(rows, key=rows.get) == (8, 4, 2) and gauss(4, 2, 8) == 4745
    assert max(rows.values()) == 2_814_378 <= 3 * 2**20
    assert max(labels, key=labels.get) == (81, 512, 512)
    assert max(labels.values()) == 393_216 <= 2**19
    assert time.monotonic() - start < 1


def test_solver_cap_binds_only_the_treewidth_task(tmp_path, capsys):
    gr = tmp_path / "wide.gr"
    gr.write_text("p tw 65 1\n1 2\n")
    assert main(["solve", "--gr", str(gr), "--task", "tw"]) == 3
    assert "wide.gr:1: 65 vertices exceed vertex limit 64" in capsys.readouterr().err
    code, out = run(capsys, "solve", "--gr", str(gr), "--task", "mis")
    assert code == 0 and parse(out)["value"] == "64"


# ---------------------------------------------------------------------------
# report shape and exit codes, across all commands
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["params", "-q", "2", "-n", "4", "-k", "2", "-t", "1"],
    ["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--out", "{tmp}/g.gr"],
    ["decompose", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--out", "{tmp}/d.td"],
    ["verify", "identities", "--qmax", "2"],
    ["solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--task", "mis"],
])
def test_report_runs_from_command_to_elapsed_ms(tmp_path, capsys, argv):
    code, out = run(capsys, *[a.format(tmp=tmp_path) for a in argv])
    assert code == 0
    lines = out.splitlines()
    # only verify prints anything ahead of the report: its suite's log
    log = [line for line in lines if line.startswith(("# ", "FAIL "))]
    assert not log or argv[0] == "verify"
    report = lines[len(log):]
    assert report[0] == f"command={argv[0]}"
    key, _, value = report[-1].partition("=")
    assert key == "elapsed_ms" and value.isdigit()
    assert all("=" in line and not line.startswith("#") for line in report)
    if argv[0] in ("params", "build", "decompose"):
        assert report[1:5] == ["q=2", "n=4", "k=2", "t=1"]


@pytest.mark.parametrize("task", ["tw", "mis"])
def test_gr_io_time_is_reported_just_before_elapsed_ms(tmp_path, capsys, task):
    gr = str(tmp_path / "g.gr")
    _, built = run(capsys, "build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--out", gr)
    _, solved = run(capsys, "solve", "--gr", gr, "--task", task)
    _, from_params = run(capsys, "solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1",
                         "--task", task)
    for out, field in [(built, "write_ms"), (solved, "read_ms")]:
        key, _, value = out.splitlines()[-2].partition("=")
        assert key == field and value.isdigit()
    assert "read_ms=" not in from_params


@pytest.mark.parametrize("argv, expected", [
    (["params", "-q", "2", "-n", "4", "-k", "2", "-t", "1"], 0),
    (["verify", "claims", "--qmax", "2", "--nmax", "14"], 1),
    (["params", "-q", "2", "-n", "4", "-k", "2", "-t", "3"], 2),   # t >= k
    (["params", "-q", "2", "-n", "4", "-k", "2"], 2),              # missing -t
    (["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--format", "gr"], 2),
    (["solve", "--gr", "{tmp}/bad.gr"], 2),                        # malformed .gr
    (["solve", "--gr", "{tmp}/missing.gr"], 2),
    (["verify", "degrees", "--qmax", "3"], 2),
    (["verify", "identities", "--nmax", "5"], 2),
    (["verify", "td", "--out", "{tmp}/records.csv"], 2),
    (["build", "-q", "4", "-n", "5", "-k", "2", "-t", "1", "--out", "{tmp}/g.gr"], 3),  # 5,797
    (["solve", "--gr", "{tmp}/over.gr", "--task", "mis"], 3),      # header checked first
    (["solve", "--gr", "{tmp}/latin1.gr"], 2),                     # not UTF-8
    (["solve", "--gr", "{tmp}/latin1_late.gr", "--task", "mis"], 2),  # in a later batch
    (["verify", "identities", "--qmax", "1"], 2),                  # empty grid
    (["verify", "claims", "--qmax", "1", "--out", "{tmp}/records.csv"], 2),  # writes nothing
    (["verify", "claims", "--nmax", "3"], 2),
    (["solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--budget-ms", "-1"], 2),
    (["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--limit", "-1",
      "--out", "{tmp}/g.gr"], 2),                                  # not an option
    (["params", "-q", "6", "-n", "7", "-k", "2", "-t", "1"], 2),   # no field of order 6
    (["params", "-q", "131", "-n", "7", "-k", "2", "-t", "1"], 0),  # prime; params builds no field
    (["params", "-q", str(10**14 + 31), "-n", "7", "-k", "2", "-t", "1"], 0),  # a large prime
    (["solve", "--gr", "{tmp}/edge.gr", "-q", "3", "-n", "5", "-k", "2", "-t", "1"], 2),
    # counts too long to print, or graphs too large to build: refused by the size gate
    (["params", "-q", "2", "-n", "240", "-k", "120", "-t", "1"], 3),
    (["params", "-q", "2", "-n", "1000000000", "-k", "2", "-t", "1"], 3),
    (["build", "-q", "2", "-n", "240", "-k", "120", "-t", "1", "--out", "{tmp}/g.gr"], 3),
    (["decompose", "-q", "2", "-n", "240", "-k", "120", "-t", "1", "--out", "{tmp}/g.td"], 3),
    (["solve", "-q", "2", "-n", "240", "-k", "120", "-t", "1"], 3),
    (["build", "-q", "2", "-n", "4000", "-k", "2000", "-t", "1", "--out", "{tmp}/g.gr"], 3),
    (["verify", "claims", "--qmax", "9", "--nmax", "600", "--out", "{tmp}/records.csv"], 3),
    # grids of more than 100,000 points, refused before they are built
    (["verify", "claims", "--qmax", "9", "--nmax", "600"], 3),
    (["verify", "identities", "--qmax", "1284"], 3),
    (["verify", "claims", "--qmax", "1", "--nmax", "1000000000"], 2),  # empty comes first
    # no option raises the vertex gate
    (["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--limit", "5000"], 2),
    (["decompose", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--limit", "5000"], 2),
    (["solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--limit", "5000"], 2),
])
def test_exit_code_contract(tmp_path, capsys, argv, expected):
    (tmp_path / "edge.gr").write_text("p tw 2 1\n1 2\n")
    (tmp_path / "bad.gr").write_text("p tw 3 1\n1 two\n")
    (tmp_path / "latin1.gr").write_bytes(b"p tw 3 1\n1 2\xff\n")
    (tmp_path / "latin1_late.gr").write_bytes(b"p tw 2 1\n" + b"1 2\n" * 10000 + b"2 1\xff\n")
    (tmp_path / "over.gr").write_text(OVER_LIMIT_GR)
    inputs = sorted(tmp_path.iterdir())
    assert exit_code([a.format(tmp=tmp_path) for a in argv]) == expected
    out = capsys.readouterr().out
    # a usage, input or resource error prints no report
    assert ("command=" in out) == (expected < 2)
    assert sorted(tmp_path.iterdir()) == inputs  # no command in the table writes a file


@pytest.mark.parametrize("command, value", [("build", "-1"), ("build", "5000"),
                                            ("decompose", "5000"), ("solve", "5000")])
def test_limit_is_not_an_option(capsys, command, value):
    # the vertex and label gates are fixed; no option raises them
    with pytest.raises(SystemExit) as exc:
        main([command, "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--limit", value])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: --limit {value}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, points", [
    (["claims", "--nmax", "1000000000"], 195999997844),
    (["identities", "--qmax", "1000000000"], 77999999922),
])
def test_verify_grid_above_the_cap_is_refused_at_once(capsys, argv, points):
    start = time.monotonic()
    assert main(["verify", *argv]) == 3
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert f"has {points} points, above the limit 100000" in err


def test_verify_grid_below_the_cap_stops_at_the_digit_gate(tmp_path, capsys):
    # 50,092 points, but [1800,8]_2 has more than 4300 decimal digits
    assert main(["verify", "claims", "--qmax", "2", "--nmax", "1800",
                 "--out", str(tmp_path / "records.csv")]) == 3
    assert "[1800,8]_2 has more than" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suite, checks", [("identities", 1248), ("claims", 16800)])
def test_default_grids_keep_their_checks(capsys, suite, checks):
    code, out = run(capsys, "verify", suite)
    assert parse(out)["checks"] == str(checks)
    assert code == (1 if suite == "claims" else 0)  # the five pigeonhole failures


def test_claims_size_counts_the_grid_it_does_not_build():
    from qkneser.verify import claims_params, claims_size

    for qmax in (1, 2, 4, 9, 10):
        for nmax in (-1, 3, 4, 5, 12, 17, 40):
            for kmax in (2, 5, 8):
                assert claims_size(qmax, nmax, kmax) == len(claims_params(qmax, nmax, kmax))
    assert claims_size() == 5684 and claims_size(9, 600) == 115444


def test_verify_claims_out_records_the_suite_grid(tmp_path, capsys):
    from qkneser.qcount import sweep_records
    from qkneser.verify import claims_params

    records = tmp_path / "records.csv"
    run(capsys, "verify", "claims", "--qmax", "3", "--nmax", "12", "--out", str(records))
    assert records.read_text().splitlines() == sweep_records(claims_params(3, 12))


# ---------------------------------------------------------------------------
# seeded argv sweep: every command, every kind of value, no escaped error
# ---------------------------------------------------------------------------

HUGE = [10**6, 10**18]
ODD_Q = [0, 1, -3, 6, 12, 131, *HUGE]           # boundary, composite, no built-in field
ODD_NKT = [0, -1, 6, *HUGE]                     # with the small ones: k > n and t >= k
SWEEP_LIMIT = [-1, 0, 1, 35, 5000, 10**18]      # not an option: exit 2 at any value
SWEEP_GRID = [-1, 0, 1, 2, 3, 5, 12, *HUGE]     # --qmax and --nmax


def sweep_params(rng):
    """-q -n -k -t: a small valid point, each value swapped for an odd one
    with probability 1/4, and sometimes k = n (one vertex, a long label)."""
    t = rng.randint(1, 3)
    k = rng.randint(t + 1, 4)
    q, n, k, t = [rng.choice(odd) if rng.random() < 0.25 else v for v, odd in
                  ((rng.choice([2, 3, 4, 9]), ODD_Q), (rng.randint(k, 5), ODD_NKT),
                   (k, ODD_NKT), (t, ODD_NKT))]
    if rng.random() < 0.15:
        n = k = rng.choice([k, 512, 513, *HUGE])
    return ["-q", str(q), "-n", str(n), "-k", str(k), "-t", str(t)]


def sweep_argv(rng, tmp):
    """One random command line; verify draws only options that keep it cheap."""
    command = rng.choice(["params", "build", "decompose", "verify", "solve"])
    if command == "verify":
        suite = rng.choice(["identities", "claims", "degrees", "ekr", "separators", "td"])
        if suite not in ("identities", "claims"):  # an option they do not take: exit 2
            return ["verify", suite, "--qmax", "2"]
        argv = ["verify", suite, "--qmax", str(rng.choice(SWEEP_GRID))]
        if suite == "claims" or rng.random() < 0.2:
            argv += ["--nmax", str(rng.choice(SWEEP_GRID))]
        return argv
    argv = [command]
    if command == "solve" and rng.random() < 0.3:
        argv += ["--gr", rng.choice([f"{tmp}/edge.gr", f"{tmp}/missing.gr"])]
    if len(argv) == 1 or rng.random() < 0.2:
        argv += sweep_params(rng)
    if command != "params" and rng.random() < 0.3:
        argv += ["--limit", str(rng.choice(SWEEP_LIMIT))]
    if command == "solve":
        argv += ["--task", rng.choice(["tw", "mis"]),
                 "--budget-ms", rng.choice(["0", "50", "-1"])]
    return argv


def test_seeded_argv_sweep_exits_with_a_documented_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QKNESER_OUT_DIR", str(tmp_path))
    (tmp_path / "edge.gr").write_text("p tw 2 1\n1 2\n")
    rng = random.Random(20261022)
    start = time.monotonic()
    codes = set()
    for _ in range(80):
        argv = sweep_argv(rng, tmp_path)
        try:
            code = exit_code(argv)
        except Exception as exc:
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2, 3), argv
        assert code == 2 or "--limit" not in argv, argv
        codes.add(code)
        capsys.readouterr()
    assert codes >= {0, 2, 3}
    assert time.monotonic() - start < 10
