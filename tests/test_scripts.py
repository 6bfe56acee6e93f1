"""Smoke tests for the scripts: each is loaded by path and its ``main`` run on
a small input, so that an API change in the package cannot leave them broken."""
from __future__ import annotations

import csv
import hashlib
import importlib.util
from dataclasses import replace
from fractions import Fraction

import pytest

from test_acceptance import ROOT, _load_script


def test_cross_check_agrees(capsys):
    cross_check = _load_script("cross_check")
    assert cross_check.main(["--mode", "both", "--games", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("OK (both, 3 games/mode")


@pytest.mark.parametrize("family, solver, support, shown", [
    ("binary", "solve_binary", (Fraction(1, 7), Fraction(6, 7)), "(1/7, 6/7)"),
    ("uniform", "solve_general_uniform", (Fraction(1, 7), Fraction(9, 14)), "(1/7, 9/14)"),
], ids=["binary", "uniform"])
def test_cross_check_reports_a_wrong_closed_support(
    capsys, monkeypatch, family, solver, support, shown
):
    # a support off every breakpoint axis, which no oracle answer can hold
    from infochain import cli

    solve = getattr(cli, solver)
    monkeypatch.setattr(cli, solver, lambda h: replace(solve(h), support=support))
    cross_check = _load_script("cross_check")
    assert cross_check.main(["--mode", family, "--games", "2", "--seed", "7"]) == 1
    out = capsys.readouterr().out
    assert f"[{family} 0] closed support {shown} not among [" in out
    assert "MISMATCHES" in out.splitlines()[-1]


def _load_perfbench(name: str):
    """Load ``perfbench/<name>.py`` by path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_operations_pass_on_the_census():
    # one operation of each benchmark workload on its census inputs (the
    # shipped configs), so that a change breaking a call the benchmark makes
    # into the package fails here
    workloads = _load_perfbench("workloads")
    inputs = workloads.census_inputs()
    assert {name for name, _ in inputs} == set(workloads.WORKLOADS)
    for name, item in inputs:
        assert workloads.WORKLOADS[name].op(item, workloads.Context()) == workloads.OK, name


def test_benchmark_census_passes_traced():
    # the same operations as a traced run makes them: every timed call is
    # wrapped in a span, and each span named in spans.WORK counts its work
    # from the call's result, so a change breaking what a counter reads
    # (grid.outcomes, chain.levels) fails here and not only under --trace
    spans, workloads = _load_perfbench("spans"), _load_perfbench("workloads")
    tracer = spans.Tracer()
    with spans.patched(tracer):
        for name, item in workloads.census_inputs():
            ctx = workloads.Context(tracer)
            assert workloads.WORKLOADS[name].op(item, ctx) == workloads.OK, name
    assert [s for s in tracer.spans if s[spans.ERROR] is not None] == []
    counted = [s for s in tracer.spans if s[spans.NAME] in spans.WORK]
    assert {s[spans.NAME] for s in counted} == set(spans.WORK)
    assert all(s[spans.WORK_DONE] is not None for s in counted)


def test_cross_check_digest_repeats(capsys):
    cross_check = _load_script("cross_check")
    argv = ["--digest", "--mode", "both", "--games", "3", "--seed", "7"]
    runs = []
    for _ in range(2):
        assert cross_check.main(argv) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert [line.split(":")[0] for line in runs[0].splitlines()] == [
        f"{mode} {i}" for mode in ("binary", "uniform") for i in range(3)]


@pytest.mark.parametrize("mode,games,seed,md5", [
    ("binary", 500, 1001, "4a43a247ac7dfd3fd2ecd1f1ebb61a89"),
    ("uniform", 286, 3003, "d2c135b7091cadb6275c441346dfb442"),
], ids=["binary", "uniform"])
def test_cross_check_digest_is_pinned(capsys, mode, games, seed, md5):
    # both routes' answers, every player's exact value included, on the
    # acceptance suites' draws; a change that moves an answer updates the md5
    # and says why
    cross_check = _load_script("cross_check")
    argv = ["--digest", "--mode", mode, "--games", str(games), "--seed", str(seed)]
    assert cross_check.main(argv) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


def test_sweep_threshold_writes_one_row_per_step(capsys, tmp_path):
    sweep = _load_script("sweep_threshold")
    out = tmp_path / "sweep.csv"
    config = ROOT / "configs" / "uniform_interior.json"
    assert sweep.main([str(config), "--agent", "2", "--steps", "9", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["threshold", "kind", "trace", "support_lo", "support_hi",
                       "receiver_value"]
    assert [row[0] for row in rows[1:]] == [str(Fraction(k, 10)) for k in range(1, 10)]
    assert capsys.readouterr().err.endswith("/9 positions solved\n")
