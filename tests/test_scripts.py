"""Smoke tests for the scripts: each is loaded by path and its ``main`` run on
a small input, so that an API change in the package cannot leave them broken."""
from __future__ import annotations

import csv
from fractions import Fraction

from test_acceptance import ROOT, _load_script


def test_cross_check_agrees(capsys):
    cross_check = _load_script("cross_check")
    assert cross_check.main(["--mode", "both", "--games", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out.startswith("OK (both, 3 games/mode")


def test_cross_check_digest_repeats(capsys):
    cross_check = _load_script("cross_check")
    argv = ["--digest", "--mode", "both", "--games", "3", "--seed", "7",
            "--binary-grid", "37", "--uniform-grid", "40"]
    runs = []
    for _ in range(2):
        assert cross_check.main(argv) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert [line.split(":")[0] for line in runs[0].splitlines()] == [
        f"{mode} {i}" for mode in ("binary", "uniform") for i in range(3)]


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
