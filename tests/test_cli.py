"""Command surface: config ingestion, dispatch, exit codes, and artifacts."""
from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from infochain import (
    BinaryPrior,
    Kind,
    conformist_table,
    receiver_class,
    sender_classes,
)
from infochain.cli import (
    MAX_TRIALS,
    ParseError,
    RunConfig,
    ValidationError,
    hierarchy_doc,
    hierarchy_from_doc,
    ingest,
    main,
)
from infochain.oracle import EmptyLevelSet, SeedRequired

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ORDERING = CONFIGS / "binary_ordering.json"
PARTIAL = CONFIGS / "binary_partial.json"
INTERIOR = CONFIGS / "uniform_interior.json"
SILENT = CONFIGS / "uniform_silent.json"


def uniform_config(tmp_path, senders, receiver) -> Path:
    """A uniform-state config of linear agents, each given as (alpha, beta)."""
    def linear(alpha, beta):
        return {"model": "linear", "params": {"alpha": str(alpha), "beta": str(beta)}}

    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({
        "prior": {"kind": "uniform"},
        "senders": [linear(*s) for s in senders],
        "receiver": linear(*receiver),
    }))
    return path


def run_json(capsys, *args):
    code = main([*map(str, args)])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestIngest:
    def test_well_formed_binary(self):
        h = ingest(ORDERING)
        assert h.prior == BinaryPrior(F(3, 5))
        assert [c.kind for c in sender_classes(h)] == [
            Kind.CONFORMIST, Kind.CONTRARIAN, Kind.CONFORMIST,
        ]
        assert receiver_class(h).threshold == F(2, 5)
        assert h.senders[0].label == "analyst"

    def test_duplicate_thresholds(self, tmp_path):
        doc = json.loads(ORDERING.read_text())
        doc["senders"][1] = doc["senders"][2]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="thresholds must be pairwise distinct"):
            ingest(path)

    @pytest.mark.parametrize("relabel", [
        lambda doc: doc["senders"][1].update(label="skeptic"),
        lambda doc: (doc["senders"][0].update(label="receiver"), doc["receiver"].pop("label")),
    ], ids=["same_label", "label_meets_fallback"])
    def test_duplicate_labels_exit_one(self, capsys, tmp_path, relabel):
        doc = json.loads(PARTIAL.read_text())
        relabel(doc)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="labels must be pairwise distinct"):
            ingest(path)
        assert main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().out == ""

    def test_threshold_collides_with_prior(self, tmp_path):
        doc = json.loads(ORDERING.read_text())
        u = conformist_table(F(3, 5))
        doc["senders"][0]["params"] = {
            k: str(getattr(u, k)) for k in ("u00", "u10", "u01", "u11")
        }
        path = tmp_path / "collide.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="threshold collides with prior"):
            ingest(path)

    def test_malformed_json_carries_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"prior": {"kind": "uniform"},\n  "senders": [}')
        with pytest.raises(ParseError) as err:
            ingest(path)
        assert err.value.line == 2

    def test_schema_errors_name_the_field(self, capsys, tmp_path):
        base = json.loads(SILENT.read_text())
        for mutate, field in [
            (lambda d: d["senders"][0].pop("model"), "senders[0].model"),
            (lambda d: d["senders"][1]["params"].pop("beta"), "senders[1].params.beta"),
            (lambda d: d["receiver"]["params"].update(alpha="x/y"), "receiver.params.alpha"),
            (lambda d: d.update(prior={"kind": "gaussian"}), "prior.kind"),
            (lambda d: d.update(senders=[]), "senders"),
            (lambda d: d.pop("prior"), "prior"),
            (lambda d: d.update(prior={"kind": "binary", "p": [1]}), "prior.p"),
            (lambda d: d.update(prior={"kind": "binary", "p": None}), "prior.p"),
            (lambda d: d["senders"].__setitem__(0, 3), "senders[0]"),
            (lambda d: d["senders"][0].pop("params"), "senders[0].params"),
            (lambda d: d["senders"][0].update(label=7), "senders[0].label"),
        ]:
            doc = json.loads(json.dumps(base))
            mutate(doc)
            path = tmp_path / "mut.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ParseError) as err:
                ingest(path)
            assert err.value.field == field
            assert main(["solve", "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {err.value}\n"
            assert captured.err.endswith(f" (field {field!r})\n")

    @pytest.mark.parametrize("number", [
        '"1e-5000"', '"1e-10000000"', '"0.' + "1" * 200 + '"', "1" + "0" * 4999,
    ], ids=["exponent", "huge_exponent", "long_text", "digit_limit"])
    def test_hostile_numbers_exit_one(self, capsys, tmp_path, number):
        # refused before any exact arithmetic (or the JSON reader's own
        # integer conversion) can blow up
        text = PARTIAL.read_text().replace('"p": "3/5"', f'"p": {number}')
        assert text != PARTIAL.read_text()
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err) < 300

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe" + '{"prior": {"kind": "uniform"}}'.encode("utf-16-le"), "is not UTF-8"),
        (b"[" * 10_000 + b"]" * 10_000, "JSON nested too deeply"),
        (b"[]", "top level must be an object (field '$')"),
        (None, ": No such file or directory"),
    ], ids=["not_utf8", "deep_nesting", "top_level_array", "missing"])
    def test_unreadable_documents_exit_one(self, capsys, tmp_path, content, reason):
        path = tmp_path / "odd.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ParseError):
            ingest(path)
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err) < 300
        assert reason in captured.err

    @pytest.mark.parametrize("fixture", ["binary_ordering", "binary_partial",
                                         "uniform_interior", "uniform_silent"])
    def test_documents_round_trip(self, fixture):
        h = ingest(CONFIGS / f"{fixture}.json")
        assert hierarchy_from_doc(hierarchy_doc(h)) == h


class TestRunConfig:
    def test_simulate_needs_seed(self):
        with pytest.raises(SeedRequired):
            RunConfig(ORDERING, "simulate").validate()

    def test_delta_domain(self):
        with pytest.raises(ValidationError):
            RunConfig(ORDERING, "vp", delta=F(3, 2)).validate()

    def test_simulate_needs_two_trials(self):
        # a standard error needs two draws
        with pytest.raises(ValidationError, match="at least 2"):
            RunConfig(PARTIAL, "simulate", trials=1, seed=1).validate()
        RunConfig(PARTIAL, "simulate", trials=2, seed=1).validate()

    def test_trials_ceiling_for_simulate(self):
        # validate() only, so nothing ever runs at the extreme value
        with pytest.raises(ValidationError, match="at most 1000000 trials"):
            RunConfig(PARTIAL, "simulate", trials=MAX_TRIALS + 1, seed=1).validate()
        RunConfig(PARTIAL, "simulate", trials=MAX_TRIALS, seed=1).validate()

    def test_unknown_command(self):
        with pytest.raises(ValidationError):
            RunConfig(ORDERING, "meditate").validate()


class TestCommands:
    def test_classify(self, capsys):
        code, doc = run_json(capsys, "classify", "--config", ORDERING)
        assert code == 0
        kinds = [a["kind"] for a in doc["agents"]]
        assert kinds == ["conformist", "contrarian", "conformist", "conformist"]
        assert doc["pivotal"]["a_star"] == 1
        assert doc["pivotal"]["a_star_threshold"] == "1/4"
        assert doc["pivotal"]["e_star"] == 2
        assert doc["relabeling"] == {"flip_action": False, "flip_state": False}

    def test_classify_uniform_renders_the_general_fields(self, capsys):
        code, doc = run_json(capsys, "classify", "--config", INTERIOR)
        assert code == 0
        piv = doc["pivotal"]
        assert (piv["p_pivot"], piv["p_threshold"]) == (2, "1/5")
        assert (piv["b_star_threshold"], piv["b_star_after_p_threshold"]) == ("29/50", "29/50")
        assert (piv["d_dstar_threshold"], piv["d_star_general"]) == ("0", "0")

    def test_classify_notes_an_extremist_receiver(self, capsys, tmp_path):
        path = uniform_config(tmp_path, [(1, F(-3, 10))], (1, F(1, 5)))
        code, doc = run_json(capsys, "classify", "--config", path)
        assert code == 0
        assert doc["relabeling"] is None and doc["pivotal"] is None
        assert doc["note"] == "the receiver never responds to information"

    def test_classify_notes_a_chain_without_a_conformist(self, capsys, tmp_path):
        path = uniform_config(tmp_path, [(-1, F(1, 5))], (1, F(-3, 10)))
        code, doc = run_json(capsys, "classify", "--config", path)
        assert code == 0
        assert doc["relabeling"] == {"flip_action": False, "flip_state": False}
        assert doc["pivotal"] is None
        assert doc["note"] == "no player wants to match the state on any interior mean"

    def test_solve_binary(self, capsys):
        code, doc = run_json(capsys, "solve", "--config", ORDERING)
        assert code == 0
        assert doc["game"] == "binary"
        assert doc["kind"] == "no-info"
        assert doc["cause"] == "ordering"
        assert doc["support"] == ["3/5"]
        assert doc["witness"] == ["1/10", "1/4"]
        assert doc["labels"][-1] == "board"

    def test_solve_uniform(self, capsys):
        code, doc = run_json(capsys, "solve", "--config", INTERIOR)
        assert code == 0
        assert doc["game"] == "uniform"
        assert doc["support"] == ["4/25", "33/50"]
        assert doc["cut"] == "8/25"
        assert doc["condition_trace"] == "c"
        assert doc["efficient"] is True

    def test_oracle_binary(self, capsys):
        code, doc = run_json(capsys, "oracle", "--config", ORDERING)
        assert code == 0
        assert doc["spe"] == [["3/5"]]
        assert set(doc["pass_levels"]) == {"2", "3"}
        assert doc["garble_proof_size"] <= int(doc["pass_levels"]["2"])

    def test_oracle_uniform(self, capsys):
        code, doc = run_json(capsys, "oracle", "--config", INTERIOR)
        assert code == 0
        assert ["4/25", "33/50"] in doc["spe"]

    @pytest.mark.parametrize("fixture", [PARTIAL, INTERIOR, SILENT])
    def test_compare_agrees_on_fixtures(self, capsys, fixture):
        code, doc = run_json(capsys, "compare", "--config", fixture)
        assert code == 0
        assert doc["matched"] is True

    def test_compare_matches_an_off_lattice_support(self, capsys, tmp_path):
        # 23/100 is off the 1/20 lattice, but the binary oracle runs on the
        # game's breakpoints, so both routes agree exactly
        doc = json.loads(PARTIAL.read_text())
        u = conformist_table(F(23, 100))
        doc["senders"][1]["params"] = {
            k: str(getattr(u, k)) for k in ("u00", "u10", "u01", "u11")
        }
        path = tmp_path / "offgrid.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "compare", "--config", path)
        assert code == 0
        assert out["matched"] is True
        assert out["closed_form"]["support"] == ["23/100", "1"]
        assert ["23/100", "1"] in out["oracle"]
        assert "23/100" in out["axes"]["q0s"] and "grid" not in out

    def test_compare_exits_two_on_a_wrong_closed_form(self, capsys, monkeypatch):
        # the breakpoint oracle has no resolution to miss a support with, so a
        # mismatch takes a closed form that reports the wrong one
        from infochain import cli

        solve = cli.solve_binary
        monkeypatch.setattr(cli, "solve_binary", lambda h: replace(solve(h), support=(F(0), F(1))))
        code, out = run_json(capsys, "compare", "--config", PARTIAL)
        assert code == 2
        assert out["matched"] is False
        assert out["closed_form"]["support"] == ["0", "1"]
        assert out["oracle"] == [["1/4", "1"]]

    def test_compare_matches_a_uniform_support_off_every_lattice(self, capsys, tmp_path):
        # crossings in eighths put the optimum at (3/8, 7/8), which no 1/20 or
        # 1/100 lattice holds; the pair search runs on the game's breakpoint
        # means, so both routes agree exactly
        def linear(beta):
            return {"model": "linear", "params": {"alpha": "1", "beta": beta}}

        path = tmp_path / "eighths.json"
        path.write_text(json.dumps({
            "prior": {"kind": "uniform"},
            "senders": [linear("-7/8"), linear("-3/8")],
            "receiver": linear("-5/8"),
        }))
        code, out = run_json(capsys, "compare", "--config", path)
        assert code == 0
        assert out["matched"] is True
        assert out["closed_form"]["support"] == ["3/8", "7/8"]
        assert out["oracle"] == [["3/8", "7/8"]]
        assert "7/8" in out["means"] and "grid" not in out and "tolerance" not in out

    def test_uniform_compare_exits_two_on_a_wrong_closed_form(self, capsys, monkeypatch):
        from infochain import cli

        solve = cli.solve_general_uniform
        monkeypatch.setattr(cli, "solve_general_uniform",
                            lambda h: replace(solve(h), support=(F(1, 5), F(7, 10))))
        code, out = run_json(capsys, "compare", "--config", INTERIOR)
        assert code == 2
        assert out["matched"] is False
        assert out["closed_form"]["support"] == ["1/5", "7/10"]
        assert out["oracle"] == [["4/25", "33/50"]]

    @pytest.mark.parametrize("game", [20, 100, "uniform"])
    def test_compare_agrees_on_an_extremist_receiver(self, capsys, tmp_path, game):
        # a receiver who never reacts leaves every outcome silent: in a binary
        # game at a prior a third of a step off the 1/game lattice, and in a
        # uniform one
        if game == "uniform":
            doc = {
                "prior": {"kind": "uniform"},
                "senders": [{"model": "linear", "params": {"alpha": "1", "beta": f"-{w}"}}
                            for w in ("8/25", "1/5", "29/50")],
                "receiver": {"model": "linear", "params": {"alpha": "1", "beta": "1/10"}},
            }
            cause, silence = ("condition_trace", "1a"), ["1/2", "1/2"]
        else:
            prior = F(3, 5) + F(1, 3 * game)
            doc = {
                "prior": {"kind": "binary", "p": str(prior)},
                "senders": [{"model": "table", "params": {
                    "u00": "0", "u10": "-1", "u01": "-3/5", "u11": "2/5"}}],
                "receiver": {"model": "table", "params": {
                    "u00": "2", "u10": "1", "u01": "0", "u11": "0"}},
            }
            cause, silence = ("cause", "opposed"), [str(prior)]
        path = tmp_path / "extremist.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "compare", "--config", path)
        assert code == 0
        assert out["closed_form"]["kind"] == "no-info"
        assert out["closed_form"][cause[0]] == cause[1]
        assert out["matched"] is True
        assert out["oracle"] == [silence]

    def test_vp_binary(self, capsys):
        code, doc = run_json(capsys, "vp", "--config", ORDERING)
        assert code == 0
        assert doc["improvable"] is True
        assert doc["rule"] == "bridge-blocker-gap"
        assert doc["interval"] == ["1/10", "1/4"]
        vp = conformist_table(F(23, 200))
        assert doc["appointees"][0]["params"]["u11"] == str(vp.u11)
        assert doc["after"]["support"] == ["23/200", "1"]
        assert doc["receiver_gain"] == "76/295"

    def test_vp_uniform(self, capsys):
        code, doc = run_json(capsys, "vp", "--config", SILENT)
        assert code == 0
        assert doc["rule"] == "tighten-pivot"
        assert doc["appointees"][0]["params"] == {"alpha": "1", "beta": "-3/20"}
        assert doc["after"]["support"] == ["3/20", "13/20"]
        assert doc["before"]["efficient"] is False and doc["after"]["efficient"] is True

    def test_vp_no_improvement_is_a_clean_exit(self, capsys, tmp_path):
        doc = json.loads(PARTIAL.read_text())
        doc["senders"] = doc["senders"][1:]  # all conformists: already full info
        path = tmp_path / "allconf.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, "vp", "--config", path)
        assert code == 0
        assert out["improvable"] is False
        assert out["reason"]

    def test_vp_respects_delta_flag(self, capsys):
        code, doc = run_json(capsys, "vp", "--config", ORDERING, "--delta", "1/2")
        assert code == 0
        assert doc["after"]["support"] == ["7/40", "1"]

    def test_simulate_matches_analytic(self, capsys):
        code, doc = run_json(capsys, "simulate", "--config", INTERIOR,
                             "--trials", 20000, "--seed", 7)
        assert code == 0
        assert doc["equilibrium_support"] == ["4/25", "33/50"]
        for row in doc["rows"]:
            assert abs(row["z"]) < 4
            assert row["stderr"] > 0

    def test_simulate_is_deterministic(self, capsys, tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = main(["simulate", "--config", str(PARTIAL), "--trials", "5000",
                         "--seed", "42", "--out", str(out_dir)])
            capsys.readouterr()
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outs[0] == outs[1]
        assert set(outs[0]) == {"simulate.csv", "simulate.json"}

    def test_simulate_prints_strict_json(self, capsys):
        # with two draws the skeptic's payoffs agree (standard error 0) yet
        # miss the analytic value: z has no value, not an infinite one
        def refuse(constant):
            raise ValueError(f"non-finite number {constant} in the report")

        assert main(["simulate", "--config", str(PARTIAL), "--seed", "1",
                     "--trials", "2"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        skeptic = doc["rows"][0]
        assert (skeptic["stderr"], skeptic["z"]) == (0.0, None)
        assert skeptic["empirical"] != skeptic["analytic_float"]
        assert main(["simulate", "--config", str(PARTIAL), "--seed", "1",
                     "--trials", "2", "--format", "csv"]) == 0
        assert "\nskeptic,0.12,0,0,\n" in capsys.readouterr().out

    def test_curve(self, capsys, tmp_path):
        out_dir = tmp_path / "curve"
        code = main(["curve", "--config", str(INTERIOR), "--out", str(out_dir)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["argmax_m0"] == "4/25"
        assert doc["argmax_value"] == "289/1250"
        assert len(doc["rows"]) == 11
        assert "grid" not in doc
        by_m0 = {row["m0"]: row for row in doc["rows"]}
        assert by_m0["4/25"]["subgame_kind"] == "pass"
        assert by_m0["0"]["subgame_kind"] == "blocked"
        lines = (out_dir / "curve.csv").read_text().splitlines()
        assert lines[0] == "m0,m1,player1_value,subgame_kind"
        assert "0.16,0.66,0.2312,pass" in lines

    def test_curve_passes_a_split_at_the_receivers_indifference_mean(self, capsys):
        # the receiver's crossing is 3/10; at m0 = 3/10 the last sender
        # loses from action 1, so the tie goes to action 0, the receiver
        # still splits, and the oracle delivers (3/10, 4/5) as well
        code, doc = run_json(capsys, "curve", "--config", SILENT)
        assert code == 0
        by_m0 = {row["m0"]: row for row in doc["rows"]}
        assert by_m0["3/10"]["m1"] == "4/5"
        assert by_m0["3/10"]["subgame_kind"] == "pass"
        # no pass row beats silence, so the argmax is silence at player 1's
        # value in `solve`, not the garbled rows' higher player1_value
        assert (doc["argmax_m0"], doc["argmax_value"]) == (None, "3/10")

    def test_curve_answers_an_extremist_receiver_with_silence(self, capsys, tmp_path):
        # the receiver's gain m + 1/5 is positive at every mean: no cut moves
        # her action, so there are no rows, and silence is worth player 1's
        # value in `solve`
        path = uniform_config(tmp_path, [(1, "-3/10")], (1, "1/5"))
        code, doc = run_json(capsys, "curve", "--config", path)
        assert code == 0
        assert doc["frame"] == {"flip_action": False, "flip_state": False}
        assert (doc["argmax_m0"], doc["rows"]) == (None, [])
        code, solved = run_json(capsys, "solve", "--config", path)
        assert code == 0
        assert doc["argmax_value"] == solved["values"][0] == "1/5"

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_pivot_past_receiver_pins_the_cut(self, capsys, tmp_path, command):
        # the pivot's crossing 8/25 is past the receiver's 3/10: the cut is
        # pinned at the receiver's indifference mean, the oracle's one answer
        path = uniform_config(tmp_path, [(1, "-8/25"), (-1, "1/5"), (1, "-29/50")],
                              (1, "-3/10"))
        code, doc = run_json(capsys, command, "--config", path)
        assert code == 0
        solved = doc if command == "solve" else doc["closed_form"]
        assert (solved["support"], solved["condition_trace"]) == (["3/10", "4/5"], "r")
        if command == "compare":
            assert doc["matched"] and doc["oracle"] == [["3/10", "4/5"]]

    def test_curve_rejects_binary_chains(self, capsys):
        assert main(["curve", "--config", str(ORDERING)]) == 1
        assert "uniform-state" in capsys.readouterr().err

    def test_csv_format_curve(self, capsys):
        code = main(["curve", "--config", str(INTERIOR), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("m0,m1,player1_value,subgame_kind\n")

    def test_csv_format_flattens_scalar_reports(self, capsys):
        code = main(["solve", "--config", str(SILENT), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("key,value\n")
        assert "kind,no-info" in out

    @pytest.mark.parametrize("args", [
        ("classify", "--config", ORDERING),
        ("solve", "--config", INTERIOR),
        ("oracle", "--config", ORDERING),
        ("compare", "--config", PARTIAL),
        ("vp", "--config", SILENT),
        ("simulate", "--config", INTERIOR, "--seed", 3, "--trials", 1000),
        ("curve", "--config", INTERIOR),
    ])
    def test_reports_reparse_under_the_schema(self, capsys, args):
        code, doc = run_json(capsys, *args)
        assert code == 0
        assert hierarchy_from_doc(doc["hierarchy"]) == ingest(Path(str(args[2])))
        assert doc["command"] == args[0]


class TestExitCodes:
    def test_validation_failures_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["solve", "--config", str(bad)]) == 1
        assert main(["simulate", "--config", str(PARTIAL)]) == 1
        assert main(["curve", "--config", str(INTERIOR), "--grid", "0"]) == 1
        assert main(["simulate", "--config", str(PARTIAL), "--seed", "1",
                     "--trials", "abc"]) == 1
        assert main(["solve", "--config", str(PARTIAL), "--bogus"]) == 1
        assert main(["vp", "--config", str(ORDERING), "--delta", "7"]) == 1
        assert main(["vp", "--config", str(ORDERING), "--delta", "abc"]) == 1
        assert main(["vp", "--config", str(ORDERING), "--delta", "1e-5000"]) == 1
        assert main(["simulate", "--config", str(PARTIAL), "--seed", "1",
                     "--trials", "1"]) == 1
        assert main(["simulate", "--config", str(PARTIAL), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --bogus" in captured.err
        assert captured.err.endswith("error: seed must be non-negative, got -1\n")

    @pytest.mark.parametrize("below, reason", [
        ("", "File exists"),
        ("sub", "Not a directory"),
    ], ids=["file", "under_a_file"])
    def test_unusable_out_dir_exits_one_before_printing(self, capsys, tmp_path, below, reason):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / below if below else taken
        assert main(["solve", "--config", str(PARTIAL), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write to {out}: {reason}\n"

    @pytest.mark.parametrize("p", ["0", "1", "2"])
    def test_binary_prior_outside_the_open_interval_exits_one(self, capsys, tmp_path, p):
        doc = json.loads(PARTIAL.read_text())
        doc["prior"]["p"] = p
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: prior must lie strictly inside (0,1), got {p} (field 'prior.p')\n"
        )

    def test_huge_trial_count_exits_one_before_simulating(self, capsys, monkeypatch):
        from infochain import cli

        def never(*args, **kwargs):
            raise AssertionError("Monte Carlo ran")

        monkeypatch.setattr(cli, "monte_carlo", never)
        assert main(["simulate", "--config", str(PARTIAL), "--seed", "1",
                     "--trials", "1000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most 1000000 trials" in captured.err

    def test_internal_faults_exit_three(self, capsys, monkeypatch):
        from infochain import cli

        def boom(h, cfg):
            raise RuntimeError("wires crossed")

        monkeypatch.setitem(cli._COMMANDS, "solve", boom)
        assert main(["solve", "--config", str(ORDERING)]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_a_placed_cut_that_does_not_survive_is_an_internal_fault(self, capsys, monkeypatch):
        # the uniform closed form places only cuts its subgame passes intact
        from infochain import general_solver

        monkeypatch.setattr(general_solver, "solve_subgame_given_support", lambda h, m0, m1: None)
        assert main(["solve", "--config", str(INTERIOR)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal error: ChainError: the support (4/25, 33/50) did not "
                                "survive the induced subgame (delivered: None)\n")

    def test_empty_level_set_is_an_internal_fault(self, capsys, monkeypatch):
        # only a broken level recursion empties a level set: not bad input
        from infochain import cli

        def broken(h, grid):
            raise EmptyLevelSet("level 2 is empty")

        monkeypatch.setattr(cli, "ic_chain", broken)
        assert main(["oracle", "--config", str(PARTIAL)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: EmptyLevelSet: level 2 is empty\n"


class ClosedPipe(io.StringIO):
    """stdout whose reader has gone away, as under ``| head``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def run_python(*args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on `args`, with this tree's sources first on the
    path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          timeout=120, **kwargs)


def modules_loaded(args: list[str], package: str) -> str:
    """The modules of `package` loaded by a fresh ``python -m infochain.cli``
    run of `args`, printed as a sorted list; the command must exit 0."""
    probe = (
        "import runpy, sys\n"
        f"sys.argv = ['infochain', *{args!r}]\n"
        "try:\n"
        "    runpy.run_module('infochain.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] == {package!r}), "
        "file=sys.stderr)\n"
    )
    proc = run_python("-c", probe, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


class TestProcess:
    def test_broken_pipe_keeps_the_command_status(self, capsys, monkeypatch, tmp_path):
        from infochain import cli

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", "--config", str(PARTIAL), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "solve.json").exists()
        monkeypatch.setitem(cli._COMMANDS, "solve", lambda h, cfg: (2, {}, {}))
        assert main(["solve", "--config", str(PARTIAL), "--format", "csv"]) == 2
        assert capsys.readouterr().err == ""

    def test_closed_pipe_is_a_quiet_exit(self):
        # the reader closes before the first write, so every write fails,
        # including the interpreter's own flush of stdout at exit
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_python("-m", "infochain.cli", "curve", "--config", str(INTERIOR),
                              stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.parametrize("args", [
        ["solve", "--config", str(INTERIOR)],
        ["simulate", "--config", str(PARTIAL), "--seed", "1", "--trials", "100"],
    ])
    def test_commands_run_without_scipy(self, args):
        # scipy is a test-only dependency: ``python -m infochain.cli`` must
        # never load it
        assert modules_loaded(args, "scipy") == "[]"

    @pytest.mark.parametrize("args", [
        ["solve", "--config", str(INTERIOR)],
        ["classify", "--config", str(PARTIAL)],
        ["vp", "--config", str(ORDERING)],
        ["curve", "--config", str(INTERIOR)],
    ])
    def test_commands_run_without_numpy(self, args):
        # only Monte Carlo needs numpy, and importing it is a large share of
        # a CLI start
        assert modules_loaded(args, "numpy") == "[]"
