"""The snapshot tool: its tolerance comparison of two output trees, and the
seed log it writes for each run."""

import importlib.util
import logging
import os
import pathlib
import re
import sys

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_snapshot.py"
_spec = importlib.util.spec_from_file_location("output_snapshot", _TOOL)
snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot)

FILES = {
    "run-a/jacobi.txt": (
        "geodesic g000\n"
        "length 6.1344978839180992\n"
        "multipliers (0.90747945324368517, 0.42009646742210055)\n"
        "d 1: iota 1 nu 0 tau 3.7444139113330463e-05 gap 3.8501864696426864 "
        "floquet_nu 0 sector_ok yes\n"),
    "run-a/count.csv": "length,weight,cumulative\n6.2519850779502946,-2,-2\n",
    "run-a/exit_code": "0\n",
    "run-b/summary.txt": "command: count\ncount over (0, 7): -2\n",
}


def _tree(root, edits=None, drop=()):
    files = dict(FILES)
    for rel, (old, new) in (edits or {}).items():
        assert old in files[rel]
        files[rel] = files[rel].replace(old, new)
    for rel, text in files.items():
        if rel in drop:
            continue
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def _compare(tmp_path, capsys, **change):
    parent = _tree(tmp_path / "parent")
    other = _tree(tmp_path / "change", **change)
    code = snapshot.main(["--compare", parent, other])
    return code, capsys.readouterr().out


def test_identical_trees_pass(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys)
    assert code == 0
    assert out.strip() == "0 differences, 0 outside rel tol 1e-09"


def test_float_within_tolerance_passes_and_is_listed(tmp_path, capsys):
    # 3.8501864696426864 moved by about 1e-12 relative
    code, out = _compare(tmp_path, capsys, edits={
        "run-a/jacobi.txt": ("gap 3.8501864696426864", "gap 3.8501864696465366")})
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("within run-a/jacobi.txt:4: 3.8501864696426864 -> "
                               "3.8501864696465366 (rel 1.00e-12)")
    assert lines[1] == "1 differences, 0 outside rel tol 1e-09"


def test_float_outside_tolerance_fails(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, edits={
        "run-a/count.csv": ("6.2519850779502946", "6.2519913299353725")})
    assert code == 1
    assert "FAIL   run-a/count.csv:2: 6.2519850779502946 -> 6.2519913299353725 " \
        "(rel 1.00e-06)" in out


def test_float_inside_parentheses_and_exponent_compare_as_floats(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, edits={
        "run-a/jacobi.txt": ("tau 3.7444139113330463e-05", "tau 3.7444139113330470e-05")})
    assert code == 0
    assert "within run-a/jacobi.txt:4" in out


def test_integer_against_float_fails_with_its_relative_size(tmp_path, capsys):
    # an exact 0.0 prints as the integer literal 0
    code, out = _compare(tmp_path, capsys, edits={
        "run-b/summary.txt": ("(0, 7)", "(1.2e-17, 7)")})
    assert code == 1
    assert "FAIL   run-b/summary.txt:2: 0 -> 1.2e-17 (rel 1.00e+00, integer and float)" in out


@pytest.mark.parametrize("rel, old, new", [
    ("run-a/jacobi.txt", "iota 1 ", "iota 2 "),          # integer
    ("run-a/count.csv", ",-2,-2", ",-2,0"),               # integer column
    ("run-a/jacobi.txt", "geodesic g000", "geodesic g001"),  # id
    ("run-a/jacobi.txt", "sector_ok yes", "sector_ok no"),   # flag
    ("run-b/summary.txt", "(0, 7)", "(0; 7)"),            # separators
    ("run-a/exit_code", "0", "3"),
])
def test_exact_tokens_must_match(tmp_path, capsys, rel, old, new):
    code, out = _compare(tmp_path, capsys, edits={rel: (old, new)})
    assert code == 1
    assert f"FAIL   {rel}:" in out


def test_missing_file_fails(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, drop=("run-b/summary.txt",))
    assert code == 1
    assert "FAIL   run-b/summary.txt: only in " in out


def test_changed_line_count_fails(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys, edits={
        "run-a/count.csv": ("-2,-2\n", "-2,-2\n6.3,2,0\n")})
    assert code == 1
    assert "FAIL   run-a/count.csv: 2 lines -> 3 lines" in out


def test_snapshot_runs_include_the_sphere_count():
    assert ("SPHERE_COUNT_CFG", "count") in snapshot.TEST_RUNS
    assert ("NOISE_COUNT_CFG", "count") in snapshot.TEST_RUNS
    assert ("CONFORMAL_COUNT_CFG", "count") in snapshot.TEST_RUNS


def test_snapshot_runs_include_a_revolution_census():
    assert ("REVOLUTION_CENSUS_CFG", "census") in snapshot.TEST_RUNS


def test_snapshot_writes_the_seed_log_of_each_run(tmp_path, monkeypatch):
    # one census run of the snapshot set; its 24 seeds each log one line
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    real_runs = snapshot.runs
    monkeypatch.setattr(snapshot, "runs", lambda: [
        r for r in real_runs() if r[0] == "test_cli-ELLIPSOID_CFG-census"])
    assert snapshot.main([str(tmp_path)]) == 0
    run = tmp_path / "test_cli-ELLIPSOID_CFG-census"
    assert (run / "exit_code").read_text() == "0\n"
    lines = (run / "seeds.log").read_text().splitlines()
    assert len(lines) == 24
    for k, line in enumerate(lines):
        assert re.fullmatch(rf"geocount\.solver DEBUG seed {k}: "
                            r"(converged in \d+( \+ \d+)? iterations|\w+: .+)", line)
    assert logging.getLogger("geocount").level == logging.NOTSET
