"""Config files in, reports out: the command surface over the whole toolkit.

Hierarchy files are JSON: ``{"prior": ..., "senders": [...], "receiver": ...}``.
A prior is ``{"kind": "binary", "p": "3/5"}`` or ``{"kind": "uniform"}``; an
agent is ``{"model": "table", "params": {"u00": ..., "u10": ..., "u01": ...,
"u11": ...}}`` or ``{"model": "linear", "params": {"alpha": ..., "beta": ...}}``
with an optional ``"label"``.  Numeric fields accept integers, decimals, or
fraction strings like ``"3/10"``; they are kept exact.

Commands: ``classify`` (taxonomy and pivotal structure), ``solve`` (closed-form
equilibrium), ``oracle`` (brute-force equilibria on the game's breakpoints:
beliefs for a binary game, with pass-through level sizes, and means for a
uniform one), ``compare`` (closed form against the oracle, matched exactly;
exits 2 on disagreement), ``vp`` (appointment advice), ``simulate`` (seeded
Monte Carlo against analytic values), ``curve`` (first mover's value and the
subgame's kind along the cut edge, one row per breakpoint mean, as CSV, and
her best passing cut or silence).
Every report is a JSON document whose ``hierarchy`` field re-parses under the
input schema; ``--out`` additionally writes the report (and any CSV) into a
directory.  Exit codes: 0 ok, 1 bad input or usage, 2 a ``compare``
mismatch, 3 an internal fault.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional, Union

from .core import (
    HALF,
    BinaryPrior,
    ChainError,
    UniformPrior,
    as_ratio,
    experiment_of_outcome,
    identity_experiment,
    make_outcome,
)
from .agents import (
    AgentSpec,
    DegenerateAgent,
    ExtremistReceiver,
    HierarchySpec,
    LinearUtility,
    NoConformist,
    PivotalReport,
    Relabeling,
    TableUtility,
    ThresholdCollision,
    ValidationError,
    canonicalize_receiver,
    hierarchy,
    pivotal_binary,
    pivotal_general,
    receiver_class,
    seat_values,
    sender_classes,
)
from .binary_solver import EquilibriumReport, solve_binary
from .general_solver import (
    GeneralEquilibriumReport,
    player1_value,
    solve_general_uniform,
    solve_subgame_given_support,
)
from .advisor import NoImprovement, optimal_vp_binary, optimal_vp_general
from .oracle import (
    IntervalCut,
    SeedRequired,
    breakpoint_grid,
    breakpoint_means,
    ic_chain,
    monte_carlo,
    solve_general_grid,
    solve_spe_grid,
)


class ParseError(ChainError):
    """A hierarchy file failed to parse; carries the offending line or field."""

    def __init__(self, message: str, *, line: Optional[int] = None,
                 field: Optional[str] = None) -> None:
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.line = line
        self.field = field


COMMANDS = ("classify", "solve", "oracle", "compare", "vp", "simulate", "curve")

#: most --trials ``simulate`` accepts: its peak memory grows by about 19 bytes
#: per trial (54 MB at this ceiling)
MAX_TRIALS = 1_000_000

#: longest number text and largest decimal exponent a config field or flag may
#: carry: ``Fraction("1e-10000000")`` alone takes seconds and builds a
#: ten-million-digit integer, and exact arithmetic on it only grows
_MAX_NUMBER_CHARS = 100
_MAX_EXPONENT = 100


@dataclass(frozen=True)
class RunConfig:
    hierarchy_path: Path
    command: str
    trials: int = 10_000
    seed: Optional[int] = None
    out_dir: Optional[Path] = None
    delta: Fraction = Fraction(1, 10)
    fmt: str = "text"

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.fmt not in ("text", "csv"):
            raise ValidationError(f"format must be 'text' or 'csv', got {self.fmt!r}")
        if self.command == "simulate":
            if self.seed is None:
                raise SeedRequired("simulate needs --seed; runs must be reproducible")
            if self.seed < 0:
                raise ValidationError(f"seed must be non-negative, got {self.seed}")
            if self.trials < 2:
                raise ValidationError(
                    f"trials must be at least 2 for a standard error, got {self.trials}"
                )
            if self.trials > MAX_TRIALS:
                raise ValidationError(
                    f"simulate takes at most {MAX_TRIALS} trials, got {self.trials}"
                )
        if self.command == "vp" and not 0 < self.delta < 1:
            raise ValidationError(
                f"delta must sit strictly inside (0, 1), got {self.delta}"
            )


# ---------------------------------------------------------------------------
# hierarchy files
# ---------------------------------------------------------------------------

def _parse_number(raw: Union[int, float, str]) -> Fraction:
    """Read a config field or flag exactly, refusing text too long or with an
    exponent too large before ``Fraction`` runs on it.  Raises ValueError or
    ZeroDivisionError on anything that is not a number."""
    text = str(raw)
    if len(text) > _MAX_NUMBER_CHARS:
        raise ValueError(f"longer than {_MAX_NUMBER_CHARS} characters")
    try:
        exponent = int(text.lower().partition("e")[2])
    except ValueError:
        exponent = 0  # no exponent, or a malformed one that Fraction refuses
    if abs(exponent) > _MAX_EXPONENT:
        raise ValueError(f"exponent beyond +/-{_MAX_EXPONENT}")
    return as_ratio(raw)


def _ratio_field(doc: dict, key: str, where: str) -> Fraction:
    if key not in doc:
        raise ParseError("missing numeric field", field=f"{where}.{key}")
    raw = doc[key]
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ParseError(f"expected a number, got {reprlib.repr(raw)}", field=f"{where}.{key}")
    try:
        return _parse_number(raw)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad number {reprlib.repr(raw)}: {e}", field=f"{where}.{key}") from e


def _agent_from_doc(doc: Any, where: str) -> AgentSpec:
    if not isinstance(doc, dict):
        raise ParseError("agent must be an object", field=where)
    model = doc.get("model")
    if model not in ("table", "linear"):
        raise ParseError(f"model must be 'table' or 'linear', got {model!r}",
                         field=f"{where}.model")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ParseError("missing params object", field=f"{where}.params")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise ParseError("label must be a string", field=f"{where}.label")
    at = f"{where}.params"
    if model == "table":
        u = TableUtility(*(_ratio_field(params, k, at) for k in ("u00", "u10", "u01", "u11")))
    else:
        u = LinearUtility(_ratio_field(params, "alpha", at), _ratio_field(params, "beta", at))
    return AgentSpec(utility=u, label=label)


def hierarchy_from_doc(doc: Any) -> HierarchySpec:
    """Build a validated hierarchy from a parsed config document."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", field="$")
    prior_doc = doc.get("prior")
    if not isinstance(prior_doc, dict):
        raise ParseError("missing prior object", field="prior")
    prior_kind = prior_doc.get("kind")
    if prior_kind == "binary":
        p = _ratio_field(prior_doc, "p", "prior")
        if not 0 < p < 1:
            raise ParseError(f"prior must lie strictly inside (0,1), got {p}", field="prior.p")
        prior: Union[BinaryPrior, UniformPrior] = BinaryPrior(p)
    elif prior_kind == "uniform":
        prior = UniformPrior()
    else:
        raise ParseError(f"prior kind must be 'binary' or 'uniform', got {prior_kind!r}",
                         field="prior.kind")
    senders_doc = doc.get("senders")
    if not isinstance(senders_doc, list) or not senders_doc:
        raise ParseError("senders must be a non-empty array", field="senders")
    senders = [_agent_from_doc(d, f"senders[{i}]") for i, d in enumerate(senders_doc)]
    receiver = _agent_from_doc(doc.get("receiver"), "receiver")
    try:
        return hierarchy(senders, receiver, prior)
    except (ThresholdCollision, DegenerateAgent) as e:
        # surface footnote-assumption breaches uniformly as validation errors
        raise ValidationError(str(e)) from e


def ingest(path: Union[str, Path]) -> HierarchySpec:
    """Parse and validate a hierarchy file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8: {e.reason} at byte {e.start}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from e
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise ParseError(str(e)) from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply") from e
    return hierarchy_from_doc(doc)


def agent_doc(spec: AgentSpec) -> dict:
    u = spec.utility
    if isinstance(u, TableUtility):
        model, params = "table", {k: str(getattr(u, k)) for k in ("u00", "u10", "u01", "u11")}
    else:
        model, params = "linear", {"alpha": str(u.alpha), "beta": str(u.beta)}
    doc: dict = {"model": model, "params": params}
    if spec.label:
        doc["label"] = spec.label
    return doc


def hierarchy_doc(h: HierarchySpec) -> dict:
    if isinstance(h.prior, BinaryPrior):
        prior: dict = {"kind": "binary", "p": str(h.prior.p)}
    else:
        prior = {"kind": "uniform"}
    return {
        "prior": prior,
        "senders": [agent_doc(s) for s in h.senders],
        "receiver": agent_doc(h.receiver),
    }


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _nums(xs) -> list[str]:
    return [str(x) for x in xs]


def _floats(xs) -> list[float]:
    return [float(x) for x in xs]


def _sig(x) -> str:
    # bit-exact decimal rendering: 12 significant digits of the double
    return format(float(x), ".12g")


def _csv_text(rows) -> str:
    """The rows as CSV, one line each, newline-terminated."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _relabeling_doc(rel) -> dict:
    return {"flip_action": rel.flip_action, "flip_state": rel.flip_state}


def _pivotal_doc(piv: PivotalReport) -> dict:
    doc = {
        "a_star": piv.a_star,
        "a_star_threshold": str(piv.a_star_threshold),
        "e_star": piv.e_star,
        "d_star_threshold": str(piv.d_star_threshold),
        "a_star_after_e": piv.a_star_e,
    }
    if piv.p_threshold is not None:
        doc.update(
            p_pivot=piv.p_pivot,
            p_threshold=str(piv.p_threshold),
            b_star_threshold=str(piv.b_star_threshold),
            b_star_after_p_threshold=str(piv.b_star_p_threshold),
            d_dstar_threshold=str(piv.d_dstar_threshold),
            d_star_general=str(piv.d_star_general),
        )
    return doc


def _solve_doc(r: Union[EquilibriumReport, GeneralEquilibriumReport]) -> dict:
    doc = {
        "kind": r.kind.value,
        "support": _nums(r.support),
        "support_float": _floats(r.support),
        "efficient": r.efficient,
        "labels": list(r.labels),
        "values": _nums(r.values),
        "values_float": _floats(r.values),
        "relabeling": _relabeling_doc(r.relabeling),
    }
    if isinstance(r, EquilibriumReport):
        doc["game"] = "binary"
        doc["cause"] = r.no_info_cause.value if r.no_info_cause else None
        doc["tie_action"] = r.tie_action
        doc["witness"] = _nums(r.witness) if r.witness else None
    else:
        doc["game"] = "uniform"
        doc["cut"] = str(r.cut) if r.cut is not None else None
        doc["condition_trace"] = r.condition_trace
    return doc


def _receiver_summary(r) -> dict:
    return {
        "kind": r.kind.value,
        "support": _nums(r.support),
        "efficient": r.efficient,
        "receiver_value": str(r.values[-1]),
        "receiver_value_float": float(r.values[-1]),
    }


def _solve_for(h: HierarchySpec):
    return solve_binary(h) if h.is_binary else solve_general_uniform(h)


def oracle_answer(h: HierarchySpec):
    """The oracle's answer on one hierarchy: (found, axes, chain).

    ``axes`` are the game's breakpoints, a binary game's `breakpoint_grid` or
    a uniform game's `breakpoint_means`, and ``found`` the oracle's supports
    on them: `solve_spe_grid`'s, or the pairs of `solve_general_grid`.
    ``chain`` is the binary game's `ic_chain` on the axes, and None for a
    uniform game.  The closed form never runs here."""
    if h.is_binary:
        axes = breakpoint_grid(h)
        chain = ic_chain(h, axes)
        return [o.support() for o in solve_spe_grid(h, axes, chain)], axes, chain
    axes = breakpoint_means(h)
    return solve_general_grid(h, axes), axes, None


def routes(h: HierarchySpec):
    """Both routes on one hierarchy: (closed, support, found, axes).

    ``closed`` is the closed form's report; both closed forms answer every
    chain.  ``support`` is the closed support as the oracle writes one: a
    silent uniform report's (1/2,) becomes the pair (1/2, 1/2).  ``found``
    and ``axes`` are `oracle_answer`'s.  The two routes agree when
    ``support`` is among ``found``."""
    closed = _solve_for(h)
    support = closed.support
    found, axes, _ = oracle_answer(h)
    if not h.is_binary and support == (HALF,):
        support = (HALF, HALF)
    return closed, support, found, axes


def _axes_doc(h: HierarchySpec, axes) -> dict:
    """The report fields of `oracle_answer`'s axes."""
    if h.is_binary:
        return {"axes": {"q0s": _nums(axes.q0s), "q1s": _nums(axes.q1s)}}
    return {"means": _nums(axes)}


# ---------------------------------------------------------------------------
# commands (each returns exit code, report document, extra files)
# ---------------------------------------------------------------------------

CommandResult = tuple[int, dict, dict[str, str]]


def _cmd_classify(h: HierarchySpec, cfg: RunConfig) -> CommandResult:
    seats = [*range(1, h.n + 1), "receiver"]
    specs = [*h.senders, h.receiver]
    classes = [*sender_classes(h), receiver_class(h)]
    agents = [
        {
            "seat": seat,
            "label": label,
            "model": agent_doc(spec)["model"],
            "kind": cls.kind.value,
            "threshold": str(cls.threshold) if cls.threshold is not None else None,
        }
        for seat, spec, cls, label in zip(seats, specs, classes, h.labels)
    ]
    report: dict = {"agents": agents}
    try:
        report["relabeling"] = _relabeling_doc(canonicalize_receiver(h)[1])
    except ExtremistReceiver as e:
        report["relabeling"] = None
        report["note"] = str(e)
    try:
        piv = pivotal_binary(h) if h.is_binary else pivotal_general(h)
        report["pivotal"] = _pivotal_doc(piv)
    except (ExtremistReceiver, NoConformist) as e:
        report["pivotal"] = None
        report.setdefault("note", str(e))
    return 0, report, {}


def _cmd_solve(h: HierarchySpec, cfg: RunConfig) -> CommandResult:
    return 0, _solve_doc(_solve_for(h)), {}


def _cmd_oracle(h: HierarchySpec, cfg: RunConfig) -> CommandResult:
    found, axes, chain = oracle_answer(h)
    report = {"game": "binary" if h.is_binary else "uniform", **_axes_doc(h, axes),
              "spe": [_nums(s) for s in found]}
    if chain is not None:
        # the level sets count their masks and build no outcome
        report["pass_levels"] = {str(k): len(v) for k, v in sorted(chain.levels.items())}
        report["garble_proof_size"] = len(chain.garble_proof)
    return 0, report, {}


def _cmd_compare(h: HierarchySpec, cfg: RunConfig) -> CommandResult:
    closed, support, found, axes = routes(h)
    matched = support in found
    report = {"matched": matched, **_axes_doc(h, axes), "closed_form": _solve_doc(closed),
              "oracle": [_nums(c) for c in found]}
    return (0 if matched else 2), report, {}


def _cmd_vp(h: HierarchySpec, cfg: RunConfig) -> CommandResult:
    try:
        rec = optimal_vp_binary(h, delta=cfg.delta) if h.is_binary else optimal_vp_general(h)
    except NoImprovement as e:
        return 0, {"improvable": False, "reason": str(e)}, {}
    report = {
        "improvable": True,
        "rule": rec.rule_fired,
        "appointees": [agent_doc(s) for s in rec.specs],
        "interval": _nums(rec.interval) if rec.interval else None,
        "monotonicity": rec.monotonicity,
        "before": _receiver_summary(rec.before),
        "after": _receiver_summary(rec.after),
        "receiver_gain": str(rec.receiver_gain),
        "receiver_gain_float": float(rec.receiver_gain),
    }
    return 0, report, {}


def _cmd_simulate(h: HierarchySpec, cfg: RunConfig) -> CommandResult:
    r = _solve_for(h)
    passthrough = [identity_experiment(2) for _ in range(h.n - 1)]
    if h.is_binary:
        profile = [experiment_of_outcome(r.outcome), *passthrough]
    else:
        cut = r.cut if r.cut is not None else Fraction(0)
        profile = [IntervalCut(cut), *passthrough]
    mc = monte_carlo(h, profile, cfg.trials, cfg.seed)
    rows = []
    for i, label in enumerate(mc.labels):
        analytic = r.values[i]
        gap = mc.means[i] - float(analytic)
        # no z when every draw agreed (standard error 0) yet missed the value
        z = 0.0 if gap == 0 else (gap / mc.stderrs[i] if mc.stderrs[i] else None)
        rows.append({
            "label": label,
            "analytic": str(analytic),
            "analytic_float": float(analytic),
            "empirical": mc.means[i],
            "stderr": mc.stderrs[i],
            "z": z,
        })
    report = {
        "trials": cfg.trials,
        "seed": cfg.seed,
        "equilibrium_support": _nums(r.support),
        "rows": rows,
    }
    table = _csv_text([["label", "analytic", "empirical", "stderr", "z"]] + [
        [row["label"], _sig(row["analytic_float"]), _sig(row["empirical"]),
         _sig(row["stderr"]), "" if row["z"] is None else _sig(row["z"])]
        for row in rows
    ])
    return 0, report, {"simulate.csv": table}


def _cmd_curve(h: HierarchySpec, cfg: RunConfig) -> CommandResult:
    """Player 1's value and the subgame's kind on the cut edge
    m1 = m0 + 1/2, in the canonical frame, one row per mean m0 <= 1/2 of
    ``breakpoint_means``: every point, and one midpoint per gap between two.

    The rows are exact.  On the edge, `solve_subgame_given_support` reads m0
    only through the sign of m0 - w and of m0 + 1/2 - w for each crossing w
    of seats 2..n and the receiver (`reclassify_under_support` and the
    guard, whose `receiver_rule` reads the last sender's gain only at w_r, a
    number of the game), the order of the stand-in thresholds 2 (w - m0),
    which is the order of the w's, and whether d0 < 1/2 < d1, where d1 is
    m0 + 1/2 and d0 is m0 or a crossing.  All of these change only where m0
    or m0 + 1/2 meets a crossing, 0 or 1/2, which are points of the axis, so
    a midpoint row's kind holds on its whole open gap.  `player1_value` is
    (1 - 2 m0) g(m0 + 1/2) for player 1's gain g = alpha m + beta, a
    quadratic in m0 with its vertex at v, half her crossing, a point.

    ``player1_value`` is hers only on a ``pass`` row, so the argmax is taken
    over the pass rows and silence, which is worth her `seat_values` entry
    (`split_value` under `receiver_rule`).  ``argmax_m0`` is the first pass
    row of largest value, or null when silence is worth more; a tie goes to
    the row.  No vertex
    lies inside a gap, so on a pass gap the value is monotone and its
    supremum sits at an end: a pass point, whose own row holds it, or an end
    that does not pass, which no cut attains.  That such an end never beats
    the argmax is checked, not proved: criterion 11 requires the argmax to be
    `solve_general_uniform`'s answer on 586 draws."""
    if h.is_binary:
        raise ValidationError("curve needs a uniform-state hierarchy")
    try:
        canon, rel = canonicalize_receiver(h)
        means = breakpoint_means(canon)
    except ExtremistReceiver:
        canon, rel, means = h, Relabeling(), ()  # no cut moves her action
    u1 = canon.senders[0].utility
    rows = []
    passing = []
    for m0 in (m for m in means if m <= HALF):
        m1 = m0 + HALF
        value = player1_value(m0, u1)
        delivered = solve_subgame_given_support(canon, m0, m1)
        if delivered is None:
            kind = "blocked"
        elif delivered.support() == (m0, m1):
            kind = "pass"
        else:
            kind = "garbled"
        rows.append({"m0": str(m0), "m1": str(m1), "player1_value": str(value),
                     "player1_value_float": float(value), "subgame_kind": kind})
        if kind == "pass":
            passing.append((value, m0))
    silence = seat_values(canon, make_outcome(HALF, HALF, HALF))[0]
    # max keeps the first of equal values: the lowest row, and a row over silence
    best_value, best_m0 = max([*passing, (silence, None)], key=lambda row: row[0])
    report = {
        "frame": _relabeling_doc(rel),
        "argmax_m0": None if best_m0 is None else str(best_m0),
        "argmax_value": str(best_value),
        "rows": rows,
    }
    table = _csv_text([["m0", "m1", "player1_value", "subgame_kind"]] + [
        [_sig(Fraction(row["m0"])), _sig(Fraction(row["m1"])),
         _sig(row["player1_value_float"]), row["subgame_kind"]]
        for row in rows
    ])
    return 0, report, {"curve.csv": table}


_COMMANDS: dict[str, Callable[[HierarchySpec, RunConfig], CommandResult]] = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "vp": _cmd_vp,
    "simulate": _cmd_simulate,
    "curve": _cmd_curve,
}

#: problems with the input or configuration — exit code 1
_INPUT_ERRORS = (
    ParseError,
    ValidationError,
    ThresholdCollision,
    DegenerateAgent,
    ExtremistReceiver,
    NoConformist,
    SeedRequired,
)


def _csv_view(report: dict) -> str:
    """Flatten a report into key,value rows for --format csv consumers."""
    rows = [["key", "value"]]

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key, sub in node.items():
                walk(f"{prefix}.{key}" if prefix else str(key), sub)
        elif isinstance(node, list) and any(isinstance(x, (dict, list)) for x in node):
            for i, sub in enumerate(node):
                walk(f"{prefix}[{i}]", sub)
        else:
            rows.append([prefix, node if isinstance(node, str) else json.dumps(node)])

    walk("", report)
    return _csv_text(rows)


def _emit(text: str) -> None:
    """Write to stdout.  A reader that stops early (``| head``) closes the
    pipe, which ends the output but not the run."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point the descriptor
        # at devnull so that flush has nowhere left to fail
        try:
            fd = sys.stdout.fileno()
        except OSError:
            return  # no descriptor behind stdout, so no exit-time flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def run(config: RunConfig) -> int:
    """Dispatch a command; returns the exit status (0 ok, 1 validation,
    2 solver/oracle mismatch, 3 internal assertion)."""
    try:
        config.validate()
        h = ingest(config.hierarchy_path)
        code, report, files = _COMMANDS[config.command](h, config)
        report = {"command": config.command, **report, "hierarchy": hierarchy_doc(h)}
        rendered = json.dumps(report, indent=2, allow_nan=False)
        if config.out_dir is not None:
            # written before anything is printed, so an unusable directory
            # leaves stdout empty
            try:
                config.out_dir.mkdir(parents=True, exist_ok=True)
                (config.out_dir / f"{config.command}.json").write_text(rendered + "\n")
                for name, text in files.items():
                    (config.out_dir / name).write_text(text)
            except OSError as e:
                print(f"error: cannot write to {config.out_dir}: {e.strerror or e}",
                      file=sys.stderr)
                return 1
        if config.fmt == "csv":
            # tabular commands print their natural table; the rest flatten
            _emit(files.get(f"{config.command}.csv") or _csv_view(report))
        else:
            _emit(rendered + "\n")
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 — anything else is an internal fault
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infochain",
        description="Equilibria of hierarchical persuasion chains: closed-form "
                    "solvers, a grid oracle, appointment advice, and simulation.",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="hierarchy file (JSON)")
    parser.add_argument("--trials", type=int, default=10_000, metavar="N",
                        help="Monte Carlo trials for simulate (default 10000)")
    parser.add_argument("--seed", type=int, default=None, metavar="S",
                        help="RNG seed; required by simulate")
    parser.add_argument("--delta", default="1/10", metavar="D",
                        help="appointment offset inside the workable interval "
                             "as a fraction of its length (default 1/10)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for report artifacts")
    parser.add_argument("--format", choices=("text", "csv"), default="text",
                        help="stdout rendering (default text)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed --help (code 0) or a usage error (code 2, which
        # is compare's mismatch here): a usage error is bad input, exit 1
        return 1 if e.code else 0
    try:
        delta = _parse_number(args.delta)
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: --delta must be a number, got {reprlib.repr(args.delta)}: {e}",
              file=sys.stderr)
        return 1
    config = RunConfig(
        hierarchy_path=Path(args.config),
        command=args.command,
        trials=args.trials,
        seed=args.seed,
        out_dir=Path(args.out) if args.out else None,
        delta=delta,
        fmt=args.format,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
