import os
import subprocess
import sys
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
    from qkneser.families import petersen_graph
    from qkneser.graph import write_gr

    gr = tmp_path / "petersen.gr"
    write_gr(petersen_graph(), gr)
    code = main(["solve", "--gr", str(gr), "--task", "mis", "--limit", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert "10 vertices exceed vertex limit 5" in captured.err
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
    from qkneser import twsolve
    from qkneser.families import petersen_graph
    from qkneser.graph import write_gr

    write_gr(petersen_graph(), tmp_path / "petersen.gr")
    calls = []
    solve = twsolve.treewidth_exact

    def spy(g, **kwargs):
        calls.append(kwargs)
        return solve(g, **kwargs)

    monkeypatch.setattr(twsolve, "treewidth_exact", spy)
    code, _ = run(capsys, "solve", *[a.format(tmp=tmp_path) for a in source], "--task", "tw")
    assert code == 0
    assert [c.get("vertex_transitive", False) for c in calls] == [promised]


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
])
def test_resource_limit_prints_one_line_without_traceback(tmp_path, argv):
    (tmp_path / "wide.gr").write_text("p tw 65 1\n1 2\n")
    proc = cli(*[a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("resource limit: ")
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["wide.gr"]  # nothing written


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
    (["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--limit", "34",
      "--out", "{tmp}/g.gr"], 3),
    (["solve", "--gr", "{tmp}/bad.gr", "--limit", "2"], 3),        # header checked first
    (["solve", "--gr", "{tmp}/latin1.gr"], 2),                     # not UTF-8
    (["solve", "--gr", "{tmp}/latin1_late.gr", "--task", "mis"], 2),  # in a later batch
    (["verify", "identities", "--qmax", "1"], 2),                  # empty grid
    (["verify", "claims", "--qmax", "1", "--out", "{tmp}/records.csv"], 2),  # writes nothing
    (["verify", "claims", "--nmax", "3"], 2),
    (["solve", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--budget-ms", "-1"], 2),
    (["build", "-q", "2", "-n", "4", "-k", "2", "-t", "1", "--limit", "-1",
      "--out", "{tmp}/g.gr"], 2),                                  # not a resource limit
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
])
def test_exit_code_contract(tmp_path, capsys, argv, expected):
    (tmp_path / "edge.gr").write_text("p tw 2 1\n1 2\n")
    (tmp_path / "bad.gr").write_text("p tw 3 1\n1 two\n")
    (tmp_path / "latin1.gr").write_bytes(b"p tw 3 1\n1 2\xff\n")
    (tmp_path / "latin1_late.gr").write_bytes(b"p tw 2 1\n" + b"1 2\n" * 10000 + b"2 1\xff\n")
    assert exit_code([a.format(tmp=tmp_path) for a in argv]) == expected
    out = capsys.readouterr().out
    # a usage, input or resource error prints no report
    assert ("command=" in out) == (expected < 2)
    assert not (tmp_path / "records.csv").exists()


def test_verify_claims_out_records_the_suite_grid(tmp_path, capsys):
    from qkneser.qcount import sweep_records
    from qkneser.verify import claims_params

    records = tmp_path / "records.csv"
    run(capsys, "verify", "claims", "--qmax", "3", "--nmax", "12", "--out", str(records))
    assert records.read_text().splitlines() == sweep_records(claims_params(3, 12))
