"""Smoke tests for the scripts: each is loaded by path and its ``main`` run on
a small input, so that an API change in the package cannot leave them broken."""
from __future__ import annotations

import csv
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(monkeypatch, name):
    # a script puts the source tree on sys.path when loaded; restore it after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cross_check_agrees(monkeypatch, capsys):
    cross_check = load(monkeypatch, "cross_check")
    assert cross_check.main(["--mode", "both", "--games", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("OK (both, 3 games/mode")


def test_cross_check_digest_repeats(monkeypatch, capsys):
    cross_check = load(monkeypatch, "cross_check")
    argv = ["--digest", "--mode", "both", "--games", "3", "--seed", "7",
            "--binary-grid", "37", "--uniform-grid", "40"]
    runs = []
    for _ in range(2):
        assert cross_check.main(argv) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert [line.split(":")[0] for line in runs[0].splitlines()] == [
        f"{mode} {i}" for mode in ("binary", "uniform") for i in range(3)]


def test_sweep_threshold_writes_one_row_per_step(monkeypatch, capsys, tmp_path):
    sweep = load(monkeypatch, "sweep_threshold")
    out = tmp_path / "sweep.csv"
    config = ROOT / "configs" / "uniform_interior.json"
    assert sweep.main([str(config), "--agent", "2", "--steps", "9", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["threshold", "kind", "trace", "support_lo", "support_hi",
                       "receiver_value"]
    assert [row[0] for row in rows[1:]] == [str(Fraction(k, 10)) for k in range(1, 10)]
    assert capsys.readouterr().err.endswith("/9 positions solved\n")
