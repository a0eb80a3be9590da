import hashlib
import io
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from steinergut import EnumerationSpec, find_extremal, from_edge_list, graph6_encode, run_cli


def run(argv, stdin=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_family_emits_graph6():
    code, out, err = run(["family", "--name", "cycle", "--n", "5", "--emit", "g6"])
    assert code == 0
    assert out == "Dhc\n"


def test_family_emits_edgelist():
    code, out, _ = run(["family", "--name", "path", "--n", "3", "--emit", "edgelist"])
    assert code == 0
    assert out.splitlines() == ["3", "0 1", "1 2"]


def test_family_rejects_odd_matching_order():
    code, _, err = run(["family", "--name", "kn-minus-matching", "--n", "5"])
    assert code == 1
    assert "error:" in err


def test_compute_single_k_json(tmp_path):
    path = write(tmp_path, "g.g6", "Dhc\n")
    code, out, _ = run(["compute", "--graph", path, "--k", "5", "--indices", "sgut"])
    assert code == 0
    recs = json.loads(out)
    assert recs == [{"graph6": "Dhc", "n": 5, "m": 5, "k": 5, "sgut": 128}]


def test_compute_all_k_reports_gut_only_at_two(tmp_path):
    path = write(tmp_path, "g.g6", "Bg\n")
    code, out, _ = run(["compute", "--graph", path])
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 2
    assert recs[0]["k"] == 2 and recs[0]["gut"] == 6 and recs[0]["sgut"] == 6
    assert recs[1]["k"] == 3 and recs[1]["gut"] is None


def test_compute_csv_leaves_missing_gut_empty(tmp_path):
    path = write(tmp_path, "g.g6", "Bg\n")
    code, out, _ = run(
        ["compute", "--graph", path, "--indices", "sw,gut", "--out", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,m,k,sw,gut"
    assert lines[1] == "Bg,3,2,2,4,6"
    assert lines[2] == "Bg,3,2,3,2,"


@pytest.mark.parametrize(
    "g6, k, message",
    [("Ch", "99", "k must satisfy 2 <= k <= 4, got 99"),
     ("B?", "3", "invariant defined for connected graphs only")],
    ids=["p4-k99", "edgeless"],
)
def test_compute_guards_a_gut_only_query(tmp_path, g6, k, message):
    path = write(tmp_path, "g.g6", f"{g6}\n")
    code, out, err = run(["compute", "--graph", path, "--k", k, "--indices", "gut"])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:1: {g6}: {message}\n"


def test_compute_gut_only_builds_no_table(tmp_path, count_calls):
    from steinergut import steiner

    tables = count_calls(steiner, "_tables")
    path = write(tmp_path, "g.g6", "Ch\n")
    code, out, _ = run(["compute", "--graph", path, "--indices", "gut"])
    assert code == 0
    assert [rec["gut"] for rec in json.loads(out)] == [19, None, None]
    assert tables == []


def test_compute_all_k_builds_one_table_per_graph(tmp_path, count_calls):
    from steinergut import steiner

    tables = count_calls(steiner, "_tables")
    path = write(tmp_path, "g.g6", "Bg\nCh\nDhc\n")
    code, out, _ = run(["compute", "--graph", path, "--k", "all"])
    assert code == 0
    assert len(json.loads(out)) == 2 + 3 + 4
    assert len(tables) == 3


def test_compute_reads_stdin(monkeypatch):
    code, out, _ = run(
        ["compute", "--graph", "-", "--k", "2", "--indices", "sgut"],
        stdin="Bg\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)[0]["sgut"] == 6


def test_compute_edgelist_with_count_line(tmp_path):
    path = write(tmp_path, "g.edges", "# a comment\n4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(
        ["compute", "--graph", path, "--format", "edgelist", "--k", "2", "--indices", "sgut"]
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["n"] == 4 and rec["sgut"] == 19


def test_compute_rejects_malformed_graph6(tmp_path):
    path = write(tmp_path, "g.g6", "Bg\nA_?\n")
    code, _, err = run(["compute", "--graph", path, "--k", "2"])
    assert code == 1
    assert ":2:" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 0\n", "loop at vertex 0"),
        ("1 -2\n", "edge (1, -2) outside vertex range 0..1"),
        ("100\n0 1\n", "order must be between 1 and 62, got 100"),
    ],
    ids=["loop", "endpoint", "order"],
)
def test_edgelist_graph_error_names_the_file(tmp_path, text, message):
    path = write(tmp_path, "g.edges", text)
    code, out, err = run(["compute", "--graph", path, "--format", "edgelist"])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command", ["compute", "bounds"])
def test_batch_error_names_the_file_line_and_graph(tmp_path, command):
    # line 3 holds the edgeless graph of order 2, which is disconnected
    path = write(tmp_path, "g.g6", "Bg\n\nA?\n")
    code, out, err = run([command, "--graph", path, "--k", "2"])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:3: A?: invariant defined for connected graphs only\n"


@pytest.mark.parametrize("command", ["compute", "bounds"])
def test_batch_above_the_table_cap_builds_no_table(tmp_path, count_calls, command):
    from steinergut import steiner

    calls = count_calls(steiner, "_tables")
    p21 = graph6_encode(from_edge_list(21, [(i, i + 1) for i in range(20)]))
    # line 1 could be computed, but line 2 is refused before any table is built
    path = write(tmp_path, "g.g6", f"Dhc\n{p21}\n")
    code, out, err = run([command, "--graph", path, "--k", "2"])
    assert code == 1
    assert out == ""
    assert err == f"error: {path}:2: {p21}: full table wants n <= 20, got 21\n"
    assert calls == []


def test_compute_rejects_bad_k(tmp_path):
    path = write(tmp_path, "g.g6", "Dhc\n")
    code, out, err = run(["compute", "--graph", path, "--k", "9"])
    assert (code, out) == (1, "")
    assert err == f"error: {path}:1: Dhc: k must satisfy 2 <= k <= 5, got 9\n"
    code, _, err = run(["compute", "--graph", path, "--k", "two"])
    assert code == 1


def test_bounds_tight_check_exits_zero(tmp_path):
    path = write(tmp_path, "g.g6", "Dhc\n")
    code, out, _ = run(
        ["bounds", "--graph", path, "--k", "5", "--set", "thm32.1.sum_upper"]
    )
    assert code == 0
    rec = json.loads(out)[0]
    check = rec["checks"][0]
    assert check["bound_value"] == "256"
    assert check["actual"] == 256
    assert check["holds"] and check["tight"]
    assert rec["skipped"] == []


def test_bounds_violation_exits_two(tmp_path):
    path = write(tmp_path, "g.g6", "DBg\n")
    code, out, _ = run(
        ["bounds", "--graph", path, "--k", "5", "--set", "cor41.1.sum_upper"]
    )
    assert code == 2
    check = json.loads(out)[0]["checks"][0]
    assert not check["holds"]
    assert check["actual"] == 320


def test_bounds_reports_skipped_groups(tmp_path):
    path = write(tmp_path, "g.g6", "Bg\n")
    code, out, _ = run(["bounds", "--graph", path, "--k", "2"])
    assert code == 0
    rec = json.loads(out)[0]
    ran = {c["bound_id"].split(".")[0] for c in rec["checks"]}
    assert ran == {"prop21", "lem22"}
    skipped = {s["group"]: s["reason"] for s in rec["skipped"]}
    assert set(skipped) == {"thm32", "cor41", "ps", "amgm"}
    assert skipped["thm32"] == "complement is disconnected"


@pytest.mark.parametrize(
    "g6, k, error",
    [("A?", "2", "invariant defined for connected graphs only"), ("A_", "5", "k must satisfy"),
     ("Dhc", "9", "k must satisfy 2 <= k <= 5, got 9")],
)
def test_bounds_guards_the_graph_and_k_even_when_every_group_is_skipped(tmp_path, g6, k, error):
    # order 2 is below prop21's least order, so prop21 is skipped either way;
    # C5 runs it, and its bad k reads the same text
    path = write(tmp_path, "g.g6", f"{g6}\n")
    code, out, err = run(["bounds", "--graph", path, "--k", k, "--set", "prop21"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and error in err


def test_bounds_decimal_column(tmp_path):
    path = write(tmp_path, "g.g6", "Ch\n")  # the 4-path
    code, out, _ = run(
        ["bounds", "--graph", path, "--k", "3", "--set", "amgm.sum_lower",
         "--decimal", "3", "--out", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,n,k,bound_id,case_label,bound_value,decimal,actual,holds,tight"
    fields = lines[1].split(",")
    assert fields[5] == "sqrt(2048)"
    assert fields[6] == "45.254"


def test_bounds_unknown_set_token(tmp_path):
    path = write(tmp_path, "g.g6", "Bg\n")
    code, _, err = run(["bounds", "--graph", path, "--set", "thm99"])
    assert code == 1
    assert "usage error" in err


def test_verify_small_clean_run():
    code, out, err = run(["verify", "--n-max", "4", "--dedup", "--coconnected", "--set", "all"])
    assert code == 0
    doc = json.loads(out)
    assert doc["totals"]["violations"] == 0
    assert doc["totals"]["graphs_scanned"] == 1
    assert [r["spec"]["n"] for r in doc["reports"]] == [2, 3, 4]
    assert "n=4: 1 graphs" in err


def test_verify_reports_violations_with_exit_two(tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        ["verify", "--n-max", "5", "--coconnected", "--out", str(out_path)]
    )
    assert code == 2
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["totals"]["violations"] == 2
    viols = doc["reports"][-1]["violations"]
    assert {v["graph6"] for v in viols} == {"DBg", "DLs"}
    assert all(v["bound_id"] == "cor41.1.sum_upper" for v in viols)


def test_verify_is_deterministic_and_job_count_invariant():
    args = ["verify", "--n-max", "4", "--coconnected"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert (code1, out1) == (code2, out2)
    code3, out3, _ = run(args + ["--jobs", "2"])
    assert code3 == code1
    assert out3 == out1


def test_verify_writes_csv(tmp_path):
    csv_path = tmp_path / "checks.csv"
    code, _, _ = run(
        ["verify", "--n-max", "4", "--coconnected", "--out",
         str(tmp_path / "r.json"), "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("n,graph6,k,")
    assert len(lines) == 1 + 48  # one co-connected graph, three k values, 16 checks


def test_verify_k_filter():
    code, out, _ = run(["verify", "--n-max", "5", "--coconnected", "--k", "5"])
    assert code == 2
    doc = json.loads(out)
    assert doc["totals"]["violations"] == 2
    # orders below 5 have no admissible k and scan nothing
    assert doc["reports"][0]["checks_run"] == 0


def test_verify_rejects_out_of_range_k():
    code, out, err = run(["verify", "--n-max", "5", "--k", "9"])
    assert (code, out) == (1, "")
    assert err == "error: k must satisfy 2 <= k <= 5, got 9\n"


def test_verify_rejects_dedup_labeled_conflict():
    code, _, err = run(["verify", "--n-max", "3", "--dedup", "--labeled"])
    assert code == 1


def test_verify_labeled_refuses_order_seven_before_any_order_runs(monkeypatch):
    from steinergut import verify

    def refuse(*args):
        raise AssertionError("from_edge_mask called")

    monkeypatch.setattr(verify, "from_edge_mask", refuse)
    code, out, err = run(["verify", "--labeled", "--n-max", "7"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: labeled enumeration handles orders 1..6, got 7"]


def test_audit_formulas_cli():
    code, out, _ = run(["audit-formulas", "--n-max", "5"])
    assert code == 2
    lines = out.strip().splitlines()
    assert "complete n=3 k=2: printed 24 != computed 12" in lines
    assert "path n=4 k=3: printed 16 != computed 28" in lines
    assert lines[-1] == "30 comparisons, 16 disagreements"


def test_extremal_cli():
    code, out, _ = run(["extremal", "--n", "5", "--k", "3", "--objective", "max-sgut"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 1280
    assert doc["objective"] == "max-sgut"
    assert len(doc["graph6s"]) == 1


def test_usage_errors_exit_one(tmp_path):
    for argv in (
        ["frobnicate"],
        ["compute"],
        ["compute", "--graph", str(tmp_path / "missing.g6")],
        ["compute", "--graph", "x", "--out", "yaml"],
        ["family", "--name", "hypercube", "--n", "4"],
        ["extremal", "--n", "5", "--k", "3", "--objective", "max-girth"],
    ):
        code, _, err = run(argv)
        assert code == 1, argv
        assert err


def test_indices_validation(tmp_path):
    path = write(tmp_path, "g.g6", "Bg\n")
    code, _, err = run(["compute", "--graph", path, "--indices", "sgut,wiener"])
    assert code == 1
    assert "unknown index" in err


def test_help_exits_zero():
    code, _, _ = run(["--help"])
    assert code == 0


def test_bounds_rejects_negative_decimal(tmp_path):
    path = write(tmp_path, "g.g6", "Dhc\n")
    code, out, err = run(["bounds", "--graph", path, "--k", "5", "--decimal", "-1"])
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and "--decimal" in err


def test_non_ascii_input_is_an_input_error(tmp_path):
    p = tmp_path / "g.g6"
    p.write_bytes("Dhc\n# café\n".encode("utf-8"))
    for sub in ("compute", "bounds"):
        code, out, err = run([sub, "--graph", str(p)])
        assert code == 1, sub
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "not ASCII" in err


# each refusal verify makes before it runs, and its one stderr line: the
# order and k in the library's words, as extremal gives them, --jobs and
# --set by the CLI
VERIFY_REFUSALS = {
    "--n-max 4 --jobs 0": "usage error: --jobs must lie in 1..64, got 0",
    "--n-max 4 --jobs -2": "usage error: --jobs must lie in 1..64, got -2",
    "--n-max 9": "error: enumeration handles orders 1..8, got 9",
    "--n-max 9 --coconnected --jobs 2": "error: enumeration handles orders 1..8, got 9",
    "--labeled --n-max 7": "error: labeled enumeration handles orders 1..6, got 7",
    "--n-max 5 --k 9": "error: k must satisfy 2 <= k <= 5, got 9",
    "--n-max 4 --set x": "usage error: unknown bound id 'x'",
}


@pytest.mark.parametrize("argv", [["verify", *request.split()] for request in VERIFY_REFUSALS])
def test_verify_limits_fail_before_any_order_runs(argv, tmp_path, monkeypatch):
    # both outputs name existing files, which a refusal must neither open nor truncate
    monkeypatch.chdir(tmp_path)
    for name in ("r.json", "c.csv"):
        (tmp_path / name).write_text(f"old {name}\n")
    code, out, err = run(argv + ["--out", "r.json", "--csv", "c.csv"])
    assert code == 1
    assert out == ""
    # one line and no per-order progress line: nothing was swept
    assert err.splitlines() == [VERIFY_REFUSALS[" ".join(argv[1:])]]
    assert sorted(os.listdir(tmp_path)) == ["c.csv", "r.json"]
    for name in ("r.json", "c.csv"):
        assert (tmp_path / name).read_text() == f"old {name}\n"


@pytest.mark.parametrize("jobs", ["65", "5000"])
def test_verify_jobs_above_the_cap_start_no_pool(jobs, monkeypatch):
    from steinergut import cli

    made = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **kw: made.append(kw))
    code, out, err = run(["verify", "--n-max", "4", "--jobs", jobs])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and len(err.splitlines()) == 1
    assert "--jobs" in err
    assert made == []


def test_python_dash_m_runs_the_cli(tmp_path):
    path = write(tmp_path, "g.g6", "Dhc\n")
    argv = ["compute", "--graph", path, "--k", "all"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "steinergut", *argv], capture_output=True, text=True, env=env
    )
    code, out, err = run(argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert proc.stderr == err == ""


def test_python_dash_m_on_the_cli_module_runs_the_cli():
    argv = ["family", "--name", "cycle", "--n", "5"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "steinergut.cli", *argv], capture_output=True, text=True, env=env
    )
    code, out, _ = run(argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out == "Dhc\n"


@pytest.mark.parametrize("objective", ["min-sum", "min-product"])
def test_extremal_offers_every_library_objective(objective):
    code, out, _ = run(
        ["extremal", "--n", "6", "--k", "3", "--objective", objective, "--coconnected"]
    )
    assert code == 0
    res = find_extremal(EnumerationSpec(n=6, require_coconnected=True), 3, objective)
    doc = json.loads(out)
    assert (doc["objective"], doc["value"], doc["graph6s"]) == (
        objective, res.value, list(res.graph6s)
    )


@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "eb530e99397488bd8d8733d2c0a67fc3d8b811f756afd059b681c5c66c74807c"),
        (
            ["--out", "csv", "--decimal", "6"],
            "4ae70e34df7e2ca39833133ac9e7450698646bd42d9f28f973817cfb7efb5515",
        ),
    ],
    ids=["json", "csv-decimal"],
)
def test_bounds_report_bytes_match_golden_digests(tmp_path, connected_by_order, extra, digest):
    # every connected graph of orders 2..6: skipped records, all four degree
    # cases and SquareRoot decimals all appear
    names = [graph6_encode(g) for n in range(2, 7) for g in connected_by_order[n]]
    path = write(tmp_path, "all.g6", "".join(f"{s}\n" for s in names))
    code, out, _ = run(["bounds", "--graph", path, "--k", "all", "--set", "all", *extra])
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("bound_set, tables", [("lem22", 1), ("prop21", 1), ("all", 2)])
def test_bounds_builds_the_complement_table_only_for_a_paired_group(
    tmp_path, count_calls, bound_set, tables
):
    # C5 is self-complementary, so both tables could be built; only a
    # runnable paired group reads the complement's
    from steinergut import steiner

    calls = count_calls(steiner, "_tables")
    path = write(tmp_path, "c5.g6", "Dhc\n")
    code, _, _ = run(["bounds", "--graph", path, "--k", "all", "--set", bound_set])
    assert code == 0
    assert len(calls) == tables


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_verify_unwritable_output_fails_before_any_order_runs(tmp_path, monkeypatch, flag):
    from steinergut import cli

    made = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *a, **kw: made.append(kw))
    # the other output names an existing file, which must keep its bytes
    # whichever of the two fails to open
    other = {"--out": "--csv", "--csv": "--out"}[flag]
    kept = tmp_path / "kept"
    kept.write_bytes(b"123456789")
    (tmp_path / "directory").mkdir()
    for target in (tmp_path / "missing" / "x.out", tmp_path / "directory"):
        argv = ["verify", "--n-max", "3", "--jobs", "2", flag, str(target), other, str(kept)]
        code, out, err = run(argv)
        assert code == 1
        assert out == ""
        # one error line, no per-order progress line and no pool: nothing ran
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(target) in err
        assert made == []
        assert kept.read_bytes() == b"123456789"


def test_verify_writes_either_output_to_a_device(tmp_path):
    # only a regular file is emptied before the run, so a device such as
    # the null device takes either output, as a file opened with "w" would
    report = tmp_path / "r.json"
    code, out, _ = run(["verify", "--n-max", "3", "--out", str(report), "--csv", os.devnull])
    assert (code, out) == (0, "")
    assert json.loads(report.read_text())["totals"]["graphs_scanned"] == 3
    code, out, _ = run(["verify", "--n-max", "3", "--out", os.devnull, "--csv", "-"])
    assert code == 0
    assert out.splitlines()[0] == "n,graph6,k,bound_id,case_label,bound_value,actual,holds,tight"


def test_verify_rejects_one_file_for_report_and_csv(tmp_path):
    # refused before either is opened: the file keeps its bytes, whether it
    # is named twice, through a symbolic or a hard link, or is stdout's file
    path = tmp_path / "both"
    path.write_bytes(b"123456789")
    (tmp_path / "symlink").symlink_to(path)
    os.link(path, tmp_path / "hardlink")
    for other in ("both", "symlink", "hardlink"):
        argv = ["verify", "--n-max", "3", "--out", str(path), "--csv", str(tmp_path / other)]
        code, out, err = run(argv)
        assert (code, out) == (1, ""), other
        assert err == "usage error: --out and --csv name the same file\n", other
        assert path.read_bytes() == b"123456789", other
    with open(path, "a") as stdout:
        err = io.StringIO()
        code = run_cli(["verify", "--n-max", "3", "--csv", str(path)], stdout=stdout, stderr=err)
    assert code == 1
    assert err.getvalue() == "usage error: --out and --csv name the same file\n"
    assert path.read_bytes() == b"123456789"
    # a missing file named twice is refused by its resolved path, and not made
    code, _, err = run(["verify", "--n-max", "3", "--out", str(tmp_path / "new"),
                        "--csv", str(tmp_path / "." / "new")])
    assert code == 1 and "same file" in err
    assert not (tmp_path / "new").exists()


def test_verify_csv_dash_writes_the_rows_to_stdout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--n-max", "4", "--coconnected", "--out", "r.json"]
    code, out, err = run(argv + ["--csv", "-"])
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["r.json"]
    assert run(argv + ["--csv", "c.csv"])[0] == 0
    assert out == (tmp_path / "c.csv").read_bytes().decode()
    assert out.splitlines()[0] == "n,graph6,k,bound_id,case_label,bound_value,actual,holds,tight"


@pytest.mark.parametrize("out_flag", [[], ["--out", "-"]], ids=["default", "dash"])
def test_verify_csv_dash_and_stdout_report_is_one_file(tmp_path, monkeypatch, out_flag):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["verify", "--n-max", "3", *out_flag, "--csv", "-"])
    assert code == 1
    assert out == ""
    assert err == "usage error: --out and --csv name the same file\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "n, k, line",
    [
        ("0", "2", "error: enumeration handles orders 1..8, got 0"),
        ("9", "10", "error: enumeration handles orders 1..8, got 9"),
        pytest.param("5", "9", "error: k must satisfy 2 <= k <= 5, got 9", id="5-9-bad-k"),
    ],
)
def test_extremal_checks_the_order_before_k(n, k, line):
    code, out, err = run(["extremal", "--n", n, "--k", k, "--objective", "max-sgut"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [line]


def test_audit_formulas_above_the_table_cap_builds_no_table(count_calls):
    from steinergut import steiner

    calls = count_calls(steiner, "_tables")
    code, out, err = run(["audit-formulas", "--n-max", "21"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "n <= 20" in err
    assert calls == []


def test_audit_formulas_below_order_two_builds_no_table(count_calls):
    from steinergut import steiner

    calls = count_calls(steiner, "_tables")
    code, out, err = run(["audit-formulas", "--n-max", "1"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: n_max must be at least 2, got 1"]
    assert calls == []


def test_audit_formulas_builds_one_table_per_family_and_order(count_calls):
    from steinergut import steiner

    calls = count_calls(steiner, "_tables")
    code, _, _ = run(["audit-formulas", "--n-max", "6"])
    assert code == 2
    # star, complete and path at each order 2..6, whatever the number of k,
    # in one batched pass per order
    assert [[g.n for g in batch] for batch, in calls] == [[n] * 3 for n in range(2, 7)]


# argv fuzz: each subcommand's options, mostly with values it accepts, some
# with free text or small integers, then one token inserted or dropped; no
# order above 4 is ever swept or searched
_FUZZ_OPTIONS = {
    "compute": {
        "--format": ["g6", "edgelist"],
        "--k": ["all", "2", "3", "9"],
        "--indices": ["sgut,sw,sdd,gut", "gut", "sw,x", ""],
        "--out": ["json", "csv"],
    },
    "bounds": {
        "--format": ["g6", "edgelist"],
        "--k": ["all", "2", "3", "9"],
        "--set": ["all", "lem22", "thm32,ps", "cor41.1.sum_upper", "x"],
        "--out": ["json", "csv"],
        "--decimal": ["0", "4", "-1"],
    },
    "family": {
        "--name": ["path", "cycle", "star", "complete", "kn-minus-matching"],
        "--n": ["1", "2", "4", "7", "0", "-1"],
        "--emit": ["g6", "edgelist"],
    },
    "extremal": {
        "--n": ["4", "3", "2", "1"],
        "--k": ["2", "3", "4", "5"],
        "--objective": ["max-sgut", "min-sgut", "max-sum", "min-sum", "max-product"],
        "--coconnected": None,
    },
    "verify": {
        "--n-max": ["1", "2", "3", "4", "0"],
        "--k": ["all", "2", "4", "5"],
        "--set": ["all", "lem22", "thm32,ps", "cor41.1.sum_upper", "x"],
        "--labeled": None,
        "--coconnected": None,
        "--out": ["r.json", "-", "no/r.json"],
        "--csv": ["c.csv", "no/c.csv"],
    },
}
_FUZZ_REQUIRED = {
    "family": ("--name", "--n"), "extremal": ("--n", "--k", "--objective"), "verify": ("--n-max",),
}
_FUZZ_TEXT = st.text(alphabet=string.ascii_letters + string.punctuation + " ", max_size=6)
_FUZZ_LINES = {
    "g6": ["Dhc", "DBg", "Bw", "C~", "A_", "E?NO", "CF", "# c", ""],
    "edgelist": ["3", "0 1", "1 2", "2 0", "2 3", "# c", ""],
}
_FUZZ_LINE_TEXT = st.text(alphabet=string.printable.strip() + " ", max_size=8)


@st.composite
def _cli_calls(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [sub]
    for flag, values in _FUZZ_OPTIONS[sub].items():
        if flag not in _FUZZ_REQUIRED.get(sub, ()) and not draw(st.booleans()):
            continue
        argv.append(flag)
        if values is None:
            continue
        if draw(st.integers(0, 3)) < 3:
            argv.append(draw(st.sampled_from(values)))
        else:
            argv.append(draw(st.one_of(_FUZZ_TEXT, st.integers(-3, 4).map(str))))
    at = draw(st.integers(1, len(argv)))
    edit = draw(st.integers(0, 3))  # 2: insert a token, 3: drop one, else keep
    if edit == 2:
        argv.insert(at, draw(st.one_of(st.sampled_from(list(_FUZZ_OPTIONS[sub])), _FUZZ_TEXT)))
    elif edit == 3 and at < len(argv):
        del argv[at]
    pool = _FUZZ_LINES["edgelist" if "edgelist" in argv else "g6"]
    line = st.one_of(st.sampled_from(pool), st.sampled_from(pool), _FUZZ_LINE_TEXT)
    return argv, draw(st.lists(line, min_size=1, max_size=4))


@settings(
    max_examples=300, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(call=_cli_calls())
def test_fuzzed_argv_and_graph_files_exit_cleanly(tmp_path, monkeypatch, call):
    monkeypatch.chdir(tmp_path)  # --out and --csv values are file names
    argv, lines = call
    path = write(tmp_path, "g.txt", "".join(f"{line}\n" for line in lines))
    if argv[0] in ("compute", "bounds"):
        argv = argv[:1] + ["--graph", path] + argv[1:]
    code, _, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1, err
