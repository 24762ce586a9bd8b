"""Claim catalog and the coverage gate that keeps each claim tested."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from affine_verma import claims, cli

TESTS_DIR = Path(__file__).resolve().parent
DOCS_DIR = TESTS_DIR.parent / "docs"


def test_claim_ids_unique_and_nonempty():
    ids = [c["id"] for c in claims.CLAIMS]
    assert len(ids) == len(set(ids)) == 21
    for c in claims.CLAIMS:
        assert c["statement"].strip()
        assert c["command"].strip()


def test_claim_commands_are_invocable():
    parser = cli.build_parser()
    for c in claims.CLAIMS:
        words = shlex.split(c["command"])
        if words[0] == "pytest":
            target = words[1].split("::")[0]
            assert (TESTS_DIR.parent / target).exists(), c["id"]
        else:
            assert words[0] == "affine-verma", c["id"]
            args = parser.parse_args(words[1:])
            cli._validate(parser, args)


def test_every_claim_is_covered():
    matrix = claims.generate_trace_matrix(tests_dir=str(TESTS_DIR))
    for entry in matrix["entries"]:
        assert entry["tests"], entry["claim"]
        for test_id in entry["tests"]:
            name, func = test_id.split("::")
            assert (TESTS_DIR / name).exists()


def test_committed_matrix_is_current(tmp_path):
    matrix = claims.generate_trace_matrix(tests_dir=str(TESTS_DIR))
    claims.write_docs(matrix, str(tmp_path))
    for name in ("trace_matrix.json", "trace_matrix.md"):
        fresh = (tmp_path / name).read_bytes()
        committed = (DOCS_DIR / name).read_bytes()
        assert fresh == committed, "%s is stale; regenerate it" % name


def test_unknown_claim_id_rejected_at_import():
    for cid in ("no-such-claim", ["admissibility"]):
        with pytest.raises(KeyError):
            claims.verifies(cid)
    with pytest.raises(ValueError):
        claims.verifies()


def strip_mark(tests_dir, claim_id):
    """Copy the test sources to tests_dir without the marks that name
    claim_id alone."""
    tests_dir.mkdir()
    mark = '@verifies("%s")\n' % claim_id
    for path in TESTS_DIR.glob("test_*.py"):
        (tests_dir / path.name).write_text(path.read_text().replace(mark, ""))
    return tests_dir


def test_removed_coverage_trips_the_gate(tmp_path):
    stripped = strip_mark(tmp_path / "tests", "zero-mode-table")
    with pytest.raises(claims.CoverageError) as err:
        claims.generate_trace_matrix(str(stripped))
    assert str(err.value) == "claims with no marked test: zero-mode-table"


def test_generator_entry_point(tmp_path, capsys):
    code = claims.main(["--tests-dir", str(TESTS_DIR),
                        "--out-dir", str(tmp_path)])
    assert code == 0
    out = json.loads((tmp_path / "trace_matrix.json").read_text())
    assert len(out["entries"]) == len(claims.CLAIMS)
    assert "| Claim |" in (tmp_path / "trace_matrix.md").read_text()
    capsys.readouterr()

    stripped = strip_mark(tmp_path / "tests", "zero-mode-table")
    code = claims.main(["--tests-dir", str(stripped),
                        "--out-dir", str(tmp_path)])
    assert code == 1
    assert "zero-mode-table" in capsys.readouterr().err


def test_generator_runs_on_the_standard_library(tmp_path):
    # -S leaves out site-packages, pytest among them: the marks are read
    # from the sources, not by importing the tests
    env = dict(os.environ, PYTHONPATH=str(TESTS_DIR.parent / "src"))
    subprocess.run([sys.executable, "-S", "-m", "affine_verma.claims",
                    "--tests-dir", str(TESTS_DIR), "--out-dir", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    for name in ("trace_matrix.json", "trace_matrix.md"):
        assert (tmp_path / name).read_bytes() == (DOCS_DIR / name).read_bytes()


def test_non_literal_or_unknown_mark_fails_generation(tmp_path):
    for mark, error in (('@verifies("no-such-claim")', KeyError),
                        ("@verifies(CLAIM_ID)", ValueError)):
        tests_dir = tmp_path / error.__name__
        tests_dir.mkdir()
        (tests_dir / "test_marks.py").write_text(
            "%s\ndef test_marked():\n    pass\n" % mark)
        with pytest.raises(error):
            claims.generate_trace_matrix(str(tests_dir))


def test_attribute_marks_are_read(tmp_path):
    # a mark written claims.verifies(...) counts like verifies(...)
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    mark = '@verifies("zero-mode-table")\n'
    for path in TESTS_DIR.glob("test_*.py"):
        (tests_dir / path.name).write_text(
            path.read_text().replace(mark, "@claims." + mark[1:]))
    assert claims.generate_trace_matrix(str(tests_dir)) \
        == claims.generate_trace_matrix(str(TESTS_DIR))


def test_bad_mark_is_one_error_line(tmp_path, capsys):
    for mark, name in (('@verifies("no-such-claim")', "test_unknown"),
                       ("@claims.verifies(CLAIM_ID)", "test_not_literal")):
        tests_dir = tmp_path / name
        tests_dir.mkdir()
        (tests_dir / "test_marks.py").write_text(
            "%s\ndef %s():\n    pass\n" % (mark, name))
        code = claims.main(["--tests-dir", str(tests_dir),
                            "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "test_marks.py::%s" % name in err
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["test_not_literal", "test_unknown"]


def test_claims_import_loads_no_engine_module():
    # the package re-exports nothing, so the catalog tool loads no engine
    code = ("import sys; sys.path.insert(0, %r); import affine_verma.claims; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('affine_verma'))))" % str(TESTS_DIR.parent / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["affine_verma", "affine_verma.claims"]


def test_missing_directory_is_a_usage_error(tmp_path):
    # run outside the repository root, the default tests and docs do not
    # exist: one error line and exit 2, no traceback
    env = dict(os.environ, PYTHONPATH=str(TESTS_DIR.parent / "src"))
    tool = [sys.executable, "-m", "affine_verma.claims"]
    for argv, flag in (([], "--tests-dir"),
                       (["--tests-dir", str(TESTS_DIR)], "--out-dir")):
        proc = subprocess.run(tool + argv, cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "error: %s" % flag in proc.stderr
    assert list(tmp_path.iterdir()) == []
