"""Command line contract: exit codes, determinism, schemas, failure diffs."""

import concurrent.futures
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from affine_verma import cli, liealg, singular, verma, weights

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


def run_cli(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "affine_verma.cli", *argv],
        capture_output=True, text=True, env=full_env)


def main_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---- exit codes -----------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    cases = [
        ["dump-algebra", "--type", "B", "--l", "3"],
        ["dump-algebra", "--type", "E", "--l", "4"],
        ["verify", "triality", "--l", "5"],
        ["verify", "singular", "--l", "4"],
        ["verify", "unknown", "--l", "4"],
        ["verify", "embedding"],
        ["verify", "all", "--l-range", "6..4"],
        ["verify", "all", "--l-range", "2..4"],
        ["verify", "singular", "--type", "B", "--l", "4", "--jobs", "0"],
        ["verify", "admissible", "--l", "4", "--mode-bound", "0"],
        ["verify", "all", "--l", "4", "--strict"],
        ["verify", "embedding", "--l", "4", "--strict", "--mode-bound", "3"],
        ["verify", "admissible", "--l", "4", "--strict"],
        ["verify", "singular", "--type", "B", "--l", "4", "--mode-bound", "3"],
        ["verify", "conformal", "--l", "4", "--mode-bound", "3"],
        ["verify", "embedding", "--type", "B", "--l", "4"],
        ["verify", "all", "--type", "D", "--l", "4"],
        ["verify", "appendix", "--l", "4", "--l-range", "4..5"],
        ["verify", "singular", "--type", "B", "--l", "4", "--l-range", "4..5"],
        ["verify", "embedding", "--l", "4", "--jobs", "3"],
        ["verify", "all", "--l", "4", "--jobs", "0"],
        ["verify", "all", "--l", "300", "--l-range", "4..4", "--jobs", "1"],
    ]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        capsys.readouterr()
    # a rank below 4 is reported under the flag that gave it
    for argv, flag in (
            (["verify", "all", "--l", "3"], "--l must"),
            (["verify", "all", "--l-range", "3..4"], "--l-range must"),
            (["verify", "embedding", "--l", "3"], "--l must")):
        assert cli.main(argv) == 2, argv
        assert flag in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv", [
    "verify embedding --l 300",
    "verify all --l-range 4..300",
    "dump-algebra --type B --l 300",
    "verify all --l 25",
    "verify singular --type D --l 25",
])
def test_rank_above_budget_exits_two_fast(capsys, argv):
    t0 = time.perf_counter()
    assert cli.main(argv.split()) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "above %d" % cli.MAX_L in capsys.readouterr().err


def test_ranks_within_budget_run(capsys, tmp_path):
    parser = cli.build_parser()
    for argv in ("verify embedding --l 24", "verify all --l-range 4..24",
                 "dump-algebra --type B --l 24"):
        cli._validate(parser, parser.parse_args(argv.split()))
    out = tmp_path / "d12.json"
    assert cli.main(["dump-algebra", "--type", "D", "--l", "12",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["l"] == 12


def test_passing_checks_exit_zero(capsys):
    code, rep = main_json(capsys, "verify", "singular", "--type", "B",
                          "--l", "4")
    assert code == 0 and rep["passed"] is True
    code, rep = main_json(capsys, "verify", "triality", "--l", "4")
    assert code == 0 and rep["passed"] is True


@pytest.mark.usefixtures("fresh_caches")
def test_corrupted_vector_fails_with_monomial_diff(capsys, monkeypatch):
    true_families = singular.term_families

    def corrupted(alg):
        if alg.kind != "D":
            return true_families(alg)
        # e(1-3)e(1+3)e(2-4)e(2+4), the second term of the first row
        fams = [list(f) for f in true_families(alg)]
        coeff, factors = fams[0][1]
        fams[0][1] = (coeff * 3, factors)
        return tuple(fams)

    monkeypatch.setattr(singular, "term_families", corrupted)
    code, rep = main_json(capsys, "verify", "singular", "--type", "D",
                          "--l", "4")
    assert code == 1
    assert rep["passed"] is False
    failing = [op for op in rep["operators"] if not op["kills"]]
    assert failing
    for op in failing:
        assert op["residual"], "diff must list surviving monomials"
        for term in op["residual"]:
            assert term["monomial"]

    # the same corruption surfaces through the aggregate run
    code = cli.main(["verify", "all", "--l-range", "4..4", "--jobs", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["passed"] is False
    bad = {(s["check"], s["type"]) for s in out["summary"] if not s["passed"]}
    # the embedding certificate consumes the vector, so it breaks too
    assert bad == {("singular", "D"), ("embedding", None)}


# ---- determinism ----------------------------------------------------------------


def test_byte_identical_runs():
    first = run_cli("verify", "conformal", "--l", "4")
    second = run_cli("verify", "conformal", "--l", "4")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_parallel_matches_sequential():
    seq = run_cli("verify", "all", "--l-range", "4..4", "--jobs", "1")
    par = run_cli("verify", "all", "--l-range", "4..4", "--jobs", "2")
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout


def recording_pool(asked):
    """A ProcessPoolExecutor stand-in that appends the size it is asked for
    to asked and maps serially, so no process is started."""
    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return FakePool


@pytest.mark.parametrize("argv, tasks, workers", [
    (["--l-range", "4..4", "--jobs", "64"], 7, 7),
    (["--l-range", "4..7", "--jobs", "2"], 25, 2),
])
def test_pool_never_exceeds_task_count(capsys, monkeypatch, argv, tasks,
                                       workers):
    # on a 64-CPU host; the checks themselves are stubbed out
    asked = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        recording_pool(asked))
    monkeypatch.setattr(cli, "_run_task", lambda task: {
        "check": task[0], "type": task[1], "passed": True})
    code, rep = main_json(capsys, "verify", "all", *argv)
    assert code == 0 and len(rep["reports"]) == tasks
    assert asked == [workers]


def test_pool_never_exceeds_usable_cpus(capsys, monkeypatch):
    # --jobs 64 on two usable CPUs of a 64-CPU host forks two workers,
    # and the report is the sequential one
    def run(jobs):
        code = cli.main(["verify", "all", "--l", "4", "--jobs", jobs])
        return code, capsys.readouterr().out

    seq = run("1")
    asked = []
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                        raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        recording_pool(asked))
    assert run("64") == seq and seq[0] == 0
    assert asked == [2]


def test_one_task_runs_without_a_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a pool for one task")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "_all_tasks", lambda l_values, mode_bound: [
        ("conformal", None, 4, None)])
    monkeypatch.setattr(cli, "_run_task", lambda task: {"passed": True})
    assert cli.run_all([4], 8)["passed"] is True


def test_jobs_default_counts_the_cpus_this_process_may_use(monkeypatch):
    # under taskset or a cpuset the affinity mask is smaller than the host
    parser = cli.build_parser()

    def default_jobs():
        args = parser.parse_args(["verify", "all"])
        cli._validate(parser, args)
        return args.jobs

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                        raising=False)
    assert default_jobs() == 3
    # platforms without sched_getaffinity fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_jobs() == 64


def test_verify_all_releases_finished_ranks():
    # a process entering a new rank drops the algebras and modules of the
    # ranks before it, so only the last rank's B and D objects stay cached
    rep = cli.run_all(range(4, 7), 1)
    assert rep["passed"]
    assert liealg.algebra.cache_info().currsize <= 2
    assert verma.vacuum_module.cache_info().currsize <= 2


def test_fraction_rendering(capsys):
    code, rep = main_json(capsys, "verify", "conformal", "--l", "5")
    assert code == 0
    assert rep["level"] == "-7/2"
    assert rep["central_charge_B"] == "-35"


def test_cli_import_leaves_out_pool_and_dataclasses():
    # -S keeps site hooks from adding modules; only a pool needs these
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, %r); import affine_verma.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing',"
            " 'dataclasses', 'inspect') if m in sys.modules))" % str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_import_loads_every_source_module():
    # src/ holds only what a command runs; claims is the catalog tool, run
    # as python -m affine_verma.claims
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, %r); import affine_verma.cli; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('affine_verma.'))))" % str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    files = {"affine_verma." + p.stem
             for p in (src / "affine_verma").glob("*.py")}
    assert out.split() == sorted(files - {"affine_verma.__init__",
                                          "affine_verma.claims"})


# ---- dump-algebra ---------------------------------------------------------------


def test_dump_round_trip(capsys):
    code, dump = main_json(capsys, "dump-algebra", "--type", "D", "--l", "4")
    assert code == 0
    assert dump["dim"] == 28
    assert len(dump["basis"]) == 28
    blob = json.dumps(dump, sort_keys=True, indent=2) + "\n"
    assert json.loads(blob) == dump
    code2, dump2 = main_json(capsys, "dump-algebra", "--type", "D",
                             "--l", "4")
    assert dump2 == dump


def test_dump_matches_schema(capsys):
    schema = load_schema("dump_algebra.schema.json")
    for kind in ("B", "D"):
        code, dump = main_json(capsys, "dump-algebra", "--type", kind,
                               "--l", "4")
        assert code == 0
        jsonschema.validate(dump, schema)


# ---- schemas for verify ---------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["verify", "singular", "--type", "B", "--l", "4"],
    ["verify", "singular", "--type", "D", "--l", "4", "--strict"],
    ["verify", "embedding", "--l", "4"],
    ["verify", "conformal", "--l", "4"],
    ["verify", "admissible", "--l", "4"],
    ["verify", "triality", "--l", "4"],
    ["verify", "appendix", "--l", "4"],
    ["verify", "all", "--l-range", "4..4", "--jobs", "1"],
])
def test_verify_reports_match_schema(capsys, argv):
    schema = load_schema("verify_report.schema.json")
    code, rep = main_json(capsys, *argv)
    assert code == 0
    jsonschema.validate(rep, schema)


# ---- flags ----------------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["verify", "embedding", "--l", "4",
                     "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(target.read_text())
    assert rep["check"] == "embedding"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the always-full device /dev/full")
def test_failed_write_exits_two_with_one_line(capsys):
    # the work is done and then the write fails, to --out or to stdout
    assert cli.main(["dump-algebra", "--type", "B", "--l", "4",
                     "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("affine-verma: error: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "affine_verma.cli", "verify", "admissible",
             "--l", "4"], stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("affine-verma: error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_unopenable_out_exits_two_fast(capsys, tmp_path):
    t0 = time.perf_counter()
    code = cli.main(["verify", "all", "--l-range", "4..5", "--jobs", "1",
                     "--out", str(tmp_path / "missing" / "x.json")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and "--out" in captured.err


def test_human_out_writes_text(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = cli.main(["verify", "conformal", "--l", "4", "--human",
                     "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert "passed: True" in text
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)


def test_human_rendering(capsys):
    code = cli.main(["verify", "all", "--l-range", "4..4", "--jobs", "1",
                     "--human"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out
    assert "singular" in out and "triality" in out
    code = cli.main(["verify", "conformal", "--l", "4", "--human"])
    out = capsys.readouterr().out
    assert code == 0
    assert "passed: True" in out


def test_human_dump(capsys):
    # a dump has no check key; it renders as key: value lines
    code = cli.main(["dump-algebra", "--type", "B", "--l", "4", "--human"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dim: 36\n" in out and "type: B\n" in out


def test_mode_bound_env_and_flag_priority():
    env_run = run_cli("verify", "admissible", "--l", "4",
                      env={"AFFINE_VERMA_MODE_BOUND": "25"})
    assert env_run.returncode == 0
    assert json.loads(env_run.stdout)["mode_bound"] == 25
    flag_run = run_cli("verify", "admissible", "--l", "4",
                       "--mode-bound", "30",
                       env={"AFFINE_VERMA_MODE_BOUND": "25"})
    assert json.loads(flag_run.stdout)["mode_bound"] == 30


@pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-3", ""])
@pytest.mark.parametrize("check", ["admissible", "all"])
def test_bad_mode_bound_env_is_usage_error(capsys, monkeypatch, raw, check):
    monkeypatch.setenv("AFFINE_VERMA_MODE_BOUND", raw)
    jobs = ["--jobs", "1"] if check == "all" else []
    assert cli.main(["verify", check, "--l", "4", *jobs]) == 2
    err = capsys.readouterr().err
    assert "AFFINE_VERMA_MODE_BOUND must be a positive integer" in err


@pytest.mark.parametrize("raw", [str(cli.MAX_MODE_BOUND + 1), "2000",
                                 "200000"])
@pytest.mark.parametrize("check", ["admissible", "all"])
def test_mode_bound_above_budget_exits_two_fast(capsys, monkeypatch, raw,
                                                check):
    jobs = ["--jobs", "1"] if check == "all" else []
    argv = ["verify", check, "--l", "24", *jobs]
    monkeypatch.delenv(weights.MODE_BOUND_ENV, raising=False)
    t0 = time.perf_counter()
    assert cli.main(argv + ["--mode-bound", raw]) == 2
    assert "above %d" % cli.MAX_MODE_BOUND in capsys.readouterr().err
    monkeypatch.setenv(weights.MODE_BOUND_ENV, raw)
    assert cli.main(argv) == 2
    assert "above %d" % cli.MAX_MODE_BOUND in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0


def test_mode_bound_within_budget_is_accepted(monkeypatch):
    parser = cli.build_parser()
    bound = str(cli.MAX_MODE_BOUND)
    monkeypatch.setenv(weights.MODE_BOUND_ENV, bound)
    for argv in ("verify admissible --l 24", "verify all --l 4",
                 "verify admissible --l 24 --mode-bound " + bound):
        args = parser.parse_args(argv.split())
        cli._validate(parser, args)
        assert args.mode_bound == cli.MAX_MODE_BOUND


def test_verify_all_passes_mode_bound(capsys, monkeypatch):
    monkeypatch.setenv("AFFINE_VERMA_MODE_BOUND", "25")
    for argv, bound in ((["--mode-bound", "30"], 30), ([], 25)):
        code, rep = main_json(capsys, "verify", "all", "--l", "4",
                              "--jobs", "1", *argv)
        assert code == 0
        bounds = [r["mode_bound"] for r in rep["reports"]
                  if r["check"] == "admissible"]
        assert bounds == [bound]


def test_verify_all_default_range(capsys):
    # --l N is accepted as a one-rank range
    code, rep = main_json(capsys, "verify", "all", "--l", "4", "--jobs", "1")
    assert code == 0
    assert rep["l_values"] == [4]
    # triality included exactly at rank 4
    checks = [(s["check"], s["l"]) for s in rep["summary"]]
    assert ("triality", 4) in checks


def test_verify_all_range_contents(capsys):
    code, rep = main_json(capsys, "verify", "all", "--l-range", "4..5",
                          "--jobs", "1")
    assert code == 0
    per_l = {}
    for s in rep["summary"]:
        per_l.setdefault(s["l"], []).append(s["check"])
    assert set(per_l) == {4, 5}
    for l, names in per_l.items():
        expect = {"singular", "embedding", "conformal", "admissible",
                  "appendix"}
        if l == 4:
            expect.add("triality")
        assert set(names) == expect
        assert names.count("singular") == 2
    assert len(rep["reports"]) == len(rep["summary"])
