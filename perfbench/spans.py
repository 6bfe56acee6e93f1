"""In-memory spans around the calls into each infochain layer.

A `Tracer` keeps one record per call: name, start, end, parent span, the
operation it belongs to, the exception it raised (if any) and a work count.
`patched` swaps the timed public functions for recording wrappers in every
loaded ``infochain`` module that refers to them, so calls one layer makes into
another get their own span; the functions' bodies are not touched.

The traced CLI child loads this module before timing ``import
infochain.cli``, so it imports nothing at import time that the package
would import itself.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: span name -> (module, function) of every timed public call
TIMED = {
    "cli.ingest": ("infochain.cli", "ingest"),
    "cli.run": ("infochain.cli", "run"),
    "agents.hierarchy": ("infochain.agents", "hierarchy"),
    "agents.pivotal_binary": ("infochain.agents", "pivotal_binary"),
    "agents.pivotal_general": ("infochain.agents", "pivotal_general"),
    "binary_solver.solve_binary": ("infochain.binary_solver", "solve_binary"),
    "general_solver.solve_general_uniform": ("infochain.general_solver", "solve_general_uniform"),
    "advisor.optimal_vp_binary": ("infochain.advisor", "optimal_vp_binary"),
    "advisor.optimal_vp_general": ("infochain.advisor", "optimal_vp_general"),
    "advisor.optimal_two_vps": ("infochain.advisor", "optimal_two_vps"),
    "oracle.build_grid": ("infochain.oracle", "build_grid"),
    "oracle.ic_chain": ("infochain.oracle", "ic_chain"),
    "oracle.solve_spe_grid": ("infochain.oracle", "solve_spe_grid"),
    "oracle.verify_simple_equilibrium": ("infochain.oracle", "verify_simple_equilibrium"),
    "oracle.solve_general_grid": ("infochain.oracle", "solve_general_grid"),
    "oracle.monte_carlo": ("infochain.oracle", "monte_carlo"),
}

#: spans that are not function calls: the CLI process start (spawn to the
#: child's first statement) and a fresh ``import infochain.cli``
PROCESS_SPANS = ("cli.python_start", "cli.import")

#: span name -> (count name, work done by one call, from its result)
WORK = {
    "oracle.build_grid": ("oracle.grid.outcomes", lambda grid: len(grid.outcomes)),
    "oracle.ic_chain": ("oracle.ic_chain.level_outcomes",
                        lambda chain: sum(len(level) for level in chain.levels.values())),
    "oracle.solve_spe_grid": ("oracle.solve_spe_grid.argmax", len),
    "oracle.verify_simple_equilibrium": ("oracle.verify.rejects", lambda ok: int(not ok)),
    "oracle.solve_general_grid": ("oracle.solve_general_grid.argmax", len),
    "oracle.monte_carlo": ("oracle.monte_carlo.trials", lambda mc: mc.trials),
}

#: count name -> (span name prefix, exception class name) of refusals
REFUSALS = {
    "general_solver.not_covered": ("general_solver.solve_general_uniform", "NotCovered"),
    "advisor.no_improvement": ("advisor.", "NoImprovement"),
}

NAME, START, END, PARENT, OP, ERROR, WORK_DONE = range(7)

#: operation ids of spans outside the replayed operations: the set-up probes,
#: and the census, one operation of each workload on the shipped configs
SETUP, CENSUS = "setup", "census"


class Tracer:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None

    def add(self, name: str, start: float, end: float, error: Optional[str] = None,
            work: Optional[int] = None, parent: Optional[int] = None) -> int:
        """Record a finished span; its parent defaults to the innermost open one."""
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append([name, start, end, parent, self.op, error, work])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        idx = self.add(name, time.perf_counter(), 0.0)
        self._open.append(idx)
        try:
            yield idx
        except BaseException as e:
            self.spans[idx][ERROR] = type(e).__name__
            raise
        finally:
            self._open.pop()
            self.spans[idx][END] = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        work = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if work is not None:
                self.spans[idx][WORK_DONE] = work(result)
            return result

        return traced

    def adopt(self, exported: list[list]) -> None:
        """Append the spans a child process exported, its top-level spans
        under the innermost open span here."""
        base = len(self.spans)
        for name, start, end, parent, _, error, work in exported:
            self.add(name, start, end, error, work, None if parent is None else base + parent)


@contextmanager
def patched(tracer: Tracer):
    """Route every reference to a timed function held by a loaded infochain
    module through `tracer`; restore the originals on exit."""
    swaps = []
    for name, (module, attr) in TIMED.items():
        original = getattr(importlib.import_module(module), attr)
        wrapper = tracer.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "infochain" and not mod_name.startswith("infochain."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    swaps.append((mod, key, original))
    try:
        yield tracer
    finally:
        for mod, key, original in swaps:
            setattr(mod, key, original)


def layer_metrics(spans: list[list], measured: set, op_seconds: float) -> dict[str, float]:
    """Per-layer figures from a span list.

    ``<name>.ms`` is the median duration of the spans of that name in the
    `measured` operations and the set-up probes.  A layer with none of those
    reads its census spans instead, so that it still reports a measured time.
    The rest count only the spans of the `measured` operations: ``.calls`` per
    operation, ``.self_share`` as self time (duration minus direct children)
    over `op_seconds`, work counts per call, and the verifier's rejections and
    the refusals per operation.
    """
    import statistics

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = {}
    for name in (*PROCESS_SPANS, *TIMED):
        own = [s[END] - s[START] for s in spans
               if s[NAME] == name and (s[OP] in measured or s[OP] == SETUP)]
        durations = own or [s[END] - s[START] for s in spans
                            if s[NAME] == name and s[OP] == CENSUS]
        mine = [i for i, s in enumerate(spans) if s[NAME] == name and s[OP] in measured]
        out[f"{name}.ms"] = statistics.median(durations) * 1000 if durations else 0.0
        out[f"{name}.calls"] = len(mine) / len(measured)
        self_time = sum(spans[i][END] - spans[i][START] - child_time[i] for i in mine)
        out[f"{name}.self_share"] = self_time / op_seconds
    for name, (count, _) in WORK.items():
        work = [s[WORK_DONE] for s in spans
                if s[NAME] == name and s[OP] in measured and s[WORK_DONE] is not None]
        if count == "oracle.verify.rejects":
            out[count] = sum(work) / len(measured)
        else:
            out[count] = statistics.mean(work) if work else 0.0
    for count, (prefix, error) in REFUSALS.items():
        out[count] = sum(1 for s in spans if s[NAME].startswith(prefix)
                         and s[ERROR] == error and s[OP] in measured) / len(measured)
    return out


def layer_self_seconds(spans: list[list], measured: set) -> float:
    """Self time of all layer spans of the measured operations."""
    names = {*PROCESS_SPANS, *TIMED}
    return sum(spans[i][END] - spans[i][START] for i, s in enumerate(spans)
               if s[NAME] in names and s[OP] in measured and
               (s[PARENT] is None or spans[s[PARENT]][NAME] not in names))
