"""Brute-force engine: grids, level-set chains, grid equilibria, pass-through
verification, and Monte Carlo.  Expected values here were produced by running
the engine once and hand-checking the mechanics (set shapes, exclusion of
non-credible garbles, collapse of receiver-constant outcomes)."""
from __future__ import annotations

import ast
import json
import random
from bisect import bisect_left
from dataclasses import fields
from functools import cache
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infochain import (
    AgentSpec,
    BinaryOutcome,
    BinaryPrior,
    ChainError,
    HierarchySpec,
    IntervalCut,
    OutcomeGrid,
    SeedRequired,
    TableUtility,
    UniformPrior,
    blackwell_maximal,
    breakpoint_grid,
    build_grid,
    canonicalize_receiver,
    conformist_table,
    contrarian_table,
    experiment,
    experiment_of_outcome,
    hierarchy,
    ic_chain,
    identity_experiment,
    linear_utility,
    make_outcome,
    monte_carlo,
    mpc_feasible_uniform,
    no_information,
    one_extremist_table,
    solve_binary,
    solve_general_grid,
    solve_general_uniform,
    solve_spe_grid,
    solve_subgame_given_support,
    verify_simple_equilibrium,
    zero_extremist_table,
)
from infochain import oracle
from infochain.cli import ingest, main
from infochain.oracle import action_rule, outcome_value
from test_acceptance import _random_binary_game, _random_uniform_game

P = BinaryPrior(F(3, 5))
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
HUNDREDTHS = [F(k, 100) for k in range(1, 100)]


def support_set(outcomes):
    return sorted((o.q0, o.q1) for o in outcomes)


@pytest.fixture(scope="module")
def grid20():
    return build_grid(P, 20)


@pytest.fixture(scope="module")
def chain(grid20):
    """Three-sender chain: probe conformist 0.35, then an always-action-0
    extremist, then a conformist at 0.2; receiver conformist at 0.4."""
    h = hierarchy(
        [conformist_table(F(7, 20)), zero_extremist_table(), conformist_table(F(1, 5))],
        conformist_table(F(2, 5)), P,
    )
    return h, ic_chain(h, grid20)


class TestIndependence:
    """The oracle is evidence for the closed forms only while it shares none of
    their decision logic: it reads the game's definitions, never a solver."""

    SOLVER_MODULES = {"binary_solver", "general_solver", "advisor"}
    SOLVER_NAMES = {
        "split_value", "pivotal_rule", "pivotal_binary", "pivotal_general",
        "sender_classes", "receiver_class", "canonicalize_receiver",
        "reclassify_under_support", "with_general_pivots",
    }

    def test_oracle_imports_no_closed_form_logic(self):
        tree = ast.parse((ROOT / "src" / "infochain" / "oracle.py").read_text())
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules.add((node.module or "").rpartition(".")[2])
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                modules.update(alias.name.rpartition(".")[2] for alias in node.names)
        assert "HierarchySpec" in names  # the walk did see the imports
        assert not (modules | names) & self.SOLVER_MODULES
        assert not names & self.SOLVER_NAMES
        assert not [name for name in names if name.startswith("classify_")]


class TestGrid:
    def test_pair_count_small(self):
        # helper enumeration at a deliberately coarse step: 4 low x 3 high
        q0s, q1s = oracle._axes(F(3, 5), [F(k, 5) for k in range(6)])
        assert len(q0s) * len(q1s) == 12

    def test_prior_always_a_coordinate(self):
        g = build_grid(BinaryPrior(F(1, 3)), 10)
        assert F(1, 3) in g.q0s and F(1, 3) in g.q1s
        assert make_outcome(F(1, 3), F(1, 3), g.prior) in g.outcomes

    def test_degenerate_present(self, grid20):
        assert make_outcome(P.p, P.p, P) in grid20.outcomes

    @pytest.mark.parametrize("build, resolution", [
        ("grid", 0), ("grid", -3), ("means", 0), ("means", -2), ("means", 1),
    ])
    def test_resolution_below_the_floor_is_refused(self, build, resolution):
        # a lattice needs a step: k/0 divides by zero, a negative step
        # leaves the prior alone, and one mean step leaves no pair to search
        with pytest.raises(ChainError, match=f"got {resolution}$"):
            if build == "grid":
                build_grid(BinaryPrior(F(3, 5)), resolution)
            else:
                solve_general_grid(
                    hierarchy([linear_utility(1, F(-8, 25))], linear_utility(1, F(-3, 10)),
                              UNIFORM),
                    resolution,
                )

    @pytest.mark.parametrize("p", [F(1, 3), F(2, 7), F(77, 100)])
    @pytest.mark.parametrize("resolution", [10, 17, 37])
    def test_outcomes_are_the_distinct_pair_outcomes(self, p, resolution):
        prior = BinaryPrior(p)
        grid = build_grid(prior, resolution)
        q0s, q1s = oracle._axes(p, [F(k, resolution) for k in range(resolution + 1)])
        want = sorted(
            {make_outcome(a, b, prior) for a in q0s for b in q1s},
            key=lambda o: (o.q0, o.q1),
        )
        assert list(grid.outcomes) == want
        assert [grid.cell_of(o) for o in grid.outcomes] == grid.cells()

    def test_grid_holds_only_coordinates(self):
        assert [f.name for f in fields(OutcomeGrid)] == ["prior", "q0s", "q1s"]


def _gain_line_games(rng, count):
    """Unvalidated binary chains of table agents with arbitrary gain lines
    (either slope sign, the indifference belief inside (0, 1) or beyond it,
    payoff offsets), the prior and the beliefs inside (0, 1) all distinct."""
    games = []
    for _ in range(count):
        den = rng.choice([13, 20, 30, 97])
        pool = [F(k, den) for k in range(-den // 4, den + den // 4)]
        pool = [q for q in pool if q not in (0, 1)]
        rng.shuffle(pool)
        p = next(q for q in pool if 0 < q < 1)
        pool.remove(p)
        agents = []
        for _ in range(rng.randint(2, 6)):
            belief, slope = pool.pop(), rng.choice([1, -1, 2, F(-1, 3)])
            u00, u10 = F(rng.randint(-3, 3), 7), F(rng.randint(-3, 3), 5)
            # gain from action 1 at q: slope * (q - belief)
            agents.append(TableUtility(u00, u10, u00 - slope * belief,
                                       u10 + slope * (1 - belief)))
        games.append(HierarchySpec(tuple(map(AgentSpec, agents[:-1])), AgentSpec(agents[-1]),
                                   BinaryPrior(p)))
    return games


class TestBreakpointGrid:
    """`breakpoint_grid` carries the continuum's levels and equilibria; here a
    refinement with random points inside every gap between breakpoints
    stands in for the continuum."""

    def test_axes_hold_the_beliefs_and_the_extra_points(self):
        h = hierarchy(
            [conformist_table(F(7, 20)), zero_extremist_table(), contrarian_table(F(1, 5))],
            conformist_table(F(2, 3)), P,
        )
        grid = breakpoint_grid(h)
        assert grid.q0s == (0, F(1, 5), F(7, 20), F(3, 5))
        assert grid.q1s == (F(3, 5), F(2, 3), 1)
        grid = breakpoint_grid(h, F(1, 7), F(9, 10))
        assert grid.q0s == (0, F(1, 7), F(1, 5), F(7, 20), F(3, 5))
        assert grid.q1s == (F(3, 5), F(2, 3), F(9, 10), 1)

    def test_levels_and_equilibria_match_a_refinement(self):
        rng = random.Random(2024)
        for h in _gain_line_games(rng, 150):
            grid = breakpoint_grid(h)
            marks = sorted({*grid.q0s, *grid.q1s})
            extra = [lo + (hi - lo) * F(rng.randint(1, 99), 100)
                     for lo, hi in zip(marks, marks[1:]) for _ in range(2)]
            fine = breakpoint_grid(h, *extra)
            levels = dict(oracle._level_sets(h, grid, oracle._receiver_actions(h, grid), 1))
            fine_levels = dict(oracle._level_sets(h, fine, oracle._receiver_actions(h, fine), 1))
            rows = [fine.q0s.index(q) for q in grid.q0s]
            cols = [fine.q1s.index(q) for q in grid.q1s]

            def place(q):
                """q's breakpoint, or the gap it lies in"""
                i = bisect_left(marks, q)
                return (i, marks[i] == q)

            for k, mask in levels.items():
                assert mask == [[fine_levels[k][i][j] for j in cols] for i in rows]
                # each level is a union of places
                seen = {}
                for i, q0 in enumerate(fine.q0s):
                    for j, q1 in enumerate(fine.q1s):
                        key = (place(q0), place(q1))
                        assert seen.setdefault(key, fine_levels[k][i][j]) == fine_levels[k][i][j]
            assert support_set(solve_spe_grid(h, grid)) == support_set(solve_spe_grid(h, fine))
            for i, j in rng.sample(fine.cells(), 5):
                out = make_outcome(fine.q0s[i], fine.q1s[j], h.prior)
                assert verify_simple_equilibrium(h, out) == verify_simple_equilibrium(h, out, fine)


class TestLevelSets:
    def test_last_level(self, grid20, chain):
        _, ch = chain
        want = {o for o in grid20.outcomes if o.q0 <= F(1, 5) or F(2, 5) <= o.q0}
        assert set(ch.levels[3]) == want

    def test_middle_level_excludes_non_credible_garbles(self, grid20, chain):
        _, ch = chain
        want = {o for o in grid20.outcomes if o.q0 == F(1, 5) or F(2, 5) <= o.q0}
        assert set(ch.levels[2]) == want

    def test_garble_proof_strictly_smaller(self, grid20, chain):
        _, ch = chain
        want = {o for o in grid20.outcomes if F(2, 5) <= o.q0}
        assert set(ch.garble_proof) == want
        assert set(ch.garble_proof) < set(ch.levels[2])

    def test_nesting(self, chain):
        _, ch = chain
        assert set(ch.levels[2]) <= set(ch.levels[3])

    def test_equilibrium_of_this_chain(self, grid20, chain):
        h, ch = chain
        assert support_set(solve_spe_grid(h, grid20, ch)) == [(F(1, 5), F(1))]

    def test_single_intermediary_at_receiver_threshold(self, grid20):
        h = hierarchy(
            [conformist_table(F(7, 20)), conformist_table(F(2, 5))],
            conformist_table(F(2, 5)), P, strict=False,
        )
        ch = ic_chain(h, grid20)
        assert set(ch.levels[2]) == set(grid20.outcomes)
        assert set(ch.garble_proof) <= set(ch.levels[2])

    def test_cone_sweep_matches_a_brute_force_maximum(self):
        # small value ranges make ties common; a cell is kept when ``keep``
        # holds it and its entry is the largest over the floor (the silent
        # corner's entry) and the ``within`` cells of its cone
        rng = random.Random(12)
        for _ in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            table = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            within, keep = ([[rng.random() < 0.7 for _ in range(cols)] for _ in range(rows)]
                            for _ in range(2))
            for inside, kept in [(within, keep), (within, within), ([[True] * cols] * rows, keep)]:
                best = [[max([table[-1][0]] + [table[a][b] for a in range(i, rows)
                                               for b in range(j + 1) if inside[a][b]])
                         for j in range(cols)] for i in range(rows)]
                want = [[kept[i][j] and table[i][j] == best[i][j] for j in range(cols)]
                        for i in range(rows)]
                assert oracle._cone_sweep(table, inside, kept) == want, (table, inside, kept)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_proof_set_is_built_only_when_read(self, monkeypatch, grid20, n):
        # the levels need one value table and one cone sweep per seat n..2,
        # within and keeping the level before; the garble-proof set builds
        # its own, within every cell, and only when read
        senders = [conformist_table(F(k, 20)) for k in (3, 5, 7, 9)[:n]]
        h = hierarchy(senders, conformist_table(F(2, 5)), P)
        want = ic_chain(h, grid20).garble_proof.mask
        calls, sweeps = [], []

        def counting(name):
            inner = getattr(oracle, name)

            def counted(*args):
                calls.append(name)
                if name == "_cone_sweep":
                    _, within, keep = args
                    sweeps.append((within is keep, all(map(all, within))))
                return inner(*args)

            monkeypatch.setattr(oracle, name, counted)

        counting("_value_table")
        counting("_cone_sweep")
        ch = ic_chain(h, grid20)
        assert len(ch.levels) == n - 1
        assert calls == ["_value_table", "_cone_sweep"] * (n - 1)
        assert all(same for same, _ in sweeps)
        assert ch.garble_proof.mask == want
        assert calls == ["_value_table", "_cone_sweep"] * (2 * n - 2)
        assert all(every for _, every in sweeps[n - 1:])


def _tied_games(rng, resolution, count):
    """Chains on the 1/resolution lattice whose thresholds come from a pool
    of two lattice points and sometimes the prior, so seats tie with one
    another, with the receiver and with the prior; relaxed validation."""
    kinds = [conformist_table, contrarian_table, zero_extremist_table, one_extremist_table]
    lattice = [F(k, resolution) for k in range(1, resolution)]
    games = []
    while len(games) < count:
        p = rng.choice(lattice)
        pool = rng.sample(lattice, 2) + [p] * rng.randint(0, 1)
        senders = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(kinds)
            senders.append(kind(rng.choice(pool)) if kind in kinds[:2] else kind())
        receiver = rng.choice(kinds[:2])(rng.choice(pool))
        try:
            games.append(hierarchy(senders, receiver, BinaryPrior(p), strict=False))
        except ChainError:
            continue
    return games


def _levels_by_definition(h, grid):
    """Level masks and the garble-proof mask over the whole grid, from the
    definition: each seat values every cell by `outcome_value` in
    `Fraction`s, and every cell is compared with every cell (q0', q1') of
    the grid with q0 <= q0' and q1' <= q1, its contraction cone.  No integer
    table and no sweep."""
    act = action_rule(h)
    cells = [(q0, q1) for q0 in grid.q0s for q1 in grid.q1s]
    cone = {c: [d for d in cells if c[0] <= d[0] and d[1] <= c[1]] for c in cells}
    values = {k: {c: outcome_value(h.senders[k - 1].utility, make_outcome(*c, h.prior), act)
                  for c in cells}
              for k in range(2, h.n + 1)}
    level, levels = set(cells), {}
    for k in range(h.n, 1, -1):
        v = values[k]
        level = {c for c in level if all(v[d] <= v[c] for d in cone[c] if d in level)}
        levels[k] = [[(q0, q1) in level for q1 in grid.q1s] for q0 in grid.q0s]
    proof = [[all(v[d] <= v[(q0, q1)] for v in values.values() for d in cone[(q0, q1)])
              for q1 in grid.q1s] for q0 in grid.q0s]
    return levels, proof


class TestLevelSetsByDefinition:
    """`ic_chain`'s masks, built from integer tables and one cone sweep per
    seat on the grid's core, against the definition enumerated cell pair by
    cell pair in `Fraction`s."""

    # an extremist between two conformists, the first at three places, two of
    # them ties (with the third seat and with the receiver): chains whose
    # garble-proof set is smaller than level 2, which random draws rarely give
    SANDWICHES = [
        hierarchy([conformist_table(first), zero_extremist_table(), conformist_table(F(1, 5))],
                  conformist_table(F(2, 5)), P, strict=False)
        for first in (F(1, 5), F(3, 10), F(2, 5))
    ]

    @staticmethod
    def assert_definition(h, grid) -> bool:
        """Assert the chain's masks are the definition's; whether the
        garble-proof set is smaller than level 2."""
        levels, proof = _levels_by_definition(h, grid)
        chain = ic_chain(h, grid)
        assert {k: level.mask for k, level in chain.levels.items()} == levels, h
        assert chain.garble_proof.mask == proof, h
        return 2 in levels and proof != levels[2]

    @pytest.mark.parametrize("resolution", [4, 7, 10, 12])
    def test_small_lattices(self, resolution):
        rng = random.Random(resolution)
        smaller = [self.assert_definition(h, build_grid(h.prior, resolution))
                   for h in [*_tied_games(rng, resolution, 30), *self.SANDWICHES]]
        assert any(smaller)

    def test_breakpoint_grids_with_ties(self):
        rng = random.Random(28)
        smaller = [self.assert_definition(h, breakpoint_grid(h)) for h in self.SANDWICHES]
        for resolution in (5, 8, 12):
            for h in _tied_games(rng, resolution, 30):
                self.assert_definition(h, breakpoint_grid(h))
                extra = rng.sample([F(k, 2 * resolution) for k in range(1, 2 * resolution)], 2)
                self.assert_definition(h, breakpoint_grid(h, *extra))
        assert any(smaller)


class TestGridEquilibria:
    def test_all_conformists_reveal_everything(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert support_set(solve_spe_grid(h, grid20)) == [(F(0), F(1))]

    def test_front_contrarian_splits_at_best_conformist(self, grid20):
        h = hierarchy(
            [contrarian_table(F(1, 10)), conformist_table(F(1, 4)), conformist_table(F(3, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert support_set(solve_spe_grid(h, grid20)) == [(F(1, 4), F(1))]

    def test_blocked_ordering_collapses_to_no_information(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), contrarian_table(F(1, 10)), conformist_table(F(3, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert support_set(solve_spe_grid(h, grid20)) == [(P.p, P.p)]

    def test_matches_the_definition(self):
        # player 1's argmax of outcome_value over level 2 (every grid outcome
        # when she moves alone), outcomes the receiver answers with one action
        # read as silence, then the Blackwell filter; most priors here are
        # off the 1/G lattice
        rng = random.Random(29)
        kinds = [conformist_table, contrarian_table, zero_extremist_table, one_extremist_table]
        for n in [1, 2, 3, 4] * 6:
            pool = [F(k, 100) for k in range(1, 100)]
            rng.shuffle(pool)
            p = BinaryPrior(pool.pop())
            senders = []
            for _ in range(n):
                kind = rng.choice(kinds)
                senders.append(kind(pool.pop()) if kind in kinds[:2] else kind())
            h = hierarchy(senders, rng.choice(kinds[:2])(pool.pop()), p)
            grid = build_grid(p, rng.randint(10, 23))
            act = action_rule(h)
            candidates = ic_chain(h, grid).levels[2] if n > 1 else grid.outcomes
            value = {o: outcome_value(h.senders[0].utility, o, act) for o in candidates}
            best = max(value.values())
            arg = [
                no_information(p) if act(o.q0) == act(o.q1) == act(o.p) else o
                for o in candidates if value[o] == best
            ]
            assert solve_spe_grid(h, grid) == blackwell_maximal(arg), (h, grid.q0s, grid.q1s)

    def test_blackwell_filter(self):
        wide = make_outcome(F(1, 4), 1, P)
        narrow = make_outcome(F(2, 5), F(4, 5), P)
        assert blackwell_maximal([narrow, wide]) == [wide]


def pairwise_maximal(outcomes):
    """Reference: an outcome survives unless another, different outcome in
    the list contains its support interval."""
    keep = [
        o for o in outcomes
        if not any(other != o and other.q0 <= o.q0 and o.q1 <= other.q1 for other in outcomes)
    ]
    return sorted(set(keep), key=lambda o: (o.q0, o.q1))


class TestOutcomesOnlyAtTheBoundary:
    @pytest.mark.parametrize("senders", [
        [conformist_table(F(7, 20)), zero_extremist_table(), conformist_table(F(1, 5))],
        [conformist_table(F(1, 4)), contrarian_table(F(1, 10)), conformist_table(F(3, 10))],
        [contrarian_table(F(1, 10))],
    ], ids=["partial", "blocked", "alone"])
    def test_cells_until_the_result(self, monkeypatch, grid20, senders):
        # the level sets stay cell masks: ic_chain builds no outcome, and
        # solve_spe_grid builds one per outcome it returns, never mapping an
        # outcome back to its cell
        h = hierarchy(senders, conformist_table(F(2, 5)), P)
        made = []

        def counted(*args):
            made.append(args)
            return make_outcome(*args)

        def no_cell_of(grid, outcome):
            raise AssertionError("solve_spe_grid mapped an outcome back to its cell")

        monkeypatch.setattr(oracle, "make_outcome", counted)
        monkeypatch.setattr(OutcomeGrid, "cell_of", no_cell_of)
        chain = ic_chain(h, grid20)
        assert made == []
        spe = solve_spe_grid(h, grid20, chain)
        assert 1 <= len(made) <= len(spe)

    @pytest.mark.parametrize("config", ["binary_ordering.json", "binary_partial.json"])
    @pytest.mark.parametrize("resolution", [20, 100])
    def test_oracle_command_counts_the_masks(
        self, monkeypatch, capsys, tmp_path, config, resolution
    ):
        # `infochain oracle` reports level and garble-proof sizes by counting
        # masks, building outcomes only for the equilibria it prints; on a
        # binary game it works on the breakpoint grid, so a prior a third of
        # a step off the 1/resolution lattice is one of its beliefs
        doc = json.loads((CONFIGS / config).read_text())
        prior = F(doc["prior"]["p"]) + F(1, 3 * resolution)
        doc["prior"]["p"] = str(prior)
        path = tmp_path / config
        path.write_text(json.dumps(doc))
        made = []

        def counted(*args):
            made.append(args)
            return make_outcome(*args)

        monkeypatch.setattr(oracle, "make_outcome", counted)
        code = main(["oracle", "--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 1 <= len(made) <= len(out["spe"])
        monkeypatch.undo()
        h = ingest(path)
        grid = breakpoint_grid(h)
        assert "grid" not in out
        assert str(prior) in out["axes"]["q0s"] + out["axes"]["q1s"]
        assert out["axes"] == {"q0s": [str(q) for q in grid.q0s], "q1s": [str(q) for q in grid.q1s]}
        chain = ic_chain(h, grid)
        levels = sorted(chain.levels.items())
        assert out["pass_levels"] == {str(k): len(tuple(v)) for k, v in levels}
        assert out["garble_proof_size"] == len(tuple(chain.garble_proof))


def _core_stress_games(rng, resolution, count):
    """Random binary games whose receivers stress the core: extremists, who
    answer the whole grid with one action; conformists and contrarians with
    thresholds on the 1/G lattice, where the tie rule fires, off it, or
    exactly at the prior.  Built unvalidated, since `hierarchy` refuses a
    threshold at the prior; the oracle reads only the utilities."""
    kinds = [conformist_table, contrarian_table, zero_extremist_table, one_extremist_table]
    lattice = [F(k, resolution) for k in range(1, resolution)]
    games = []
    for g in range(count):
        p = rng.choice([q for q in lattice + HUNDREDTHS if F(1, 5) <= q <= F(4, 5)])
        senders = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(kinds)
            senders.append(kind(rng.choice(lattice)) if kind in kinds[:2] else kind())
        kind, where = kinds[g % 4], g // 4 % 3
        if kind in kinds[2:]:
            receiver = kind()
        else:
            receiver = kind(p if where == 0 else rng.choice(lattice if where == 1 else HUNDREDTHS))
        games.append(HierarchySpec(tuple(map(AgentSpec, senders)), AgentSpec(receiver),
                                   BinaryPrior(p)))
    return games


class TestInformativeCore:
    """The oracle works on the grid's informative core (`oracle._core`); a
    reference recursion on the whole grid must give the same answers."""

    @staticmethod
    def full_grid_reference(h, grid):
        """Level masks, garble-proof mask and SPE of the whole grid, with
        every table and cone sweep over every cell."""
        actions = oracle._receiver_actions(h, grid)
        tables = {k: oracle._value_table(h.senders[k - 1].utility, actions, grid)
                  for k in range(1, h.n + 1)}
        every = [[True] * len(grid.q1s) for _ in grid.q0s]
        member = proof = every
        masks = {}
        for k in range(h.n, 1, -1):
            member = masks[k] = oracle._cone_sweep(tables[k], member, member)
            proof = oracle._cone_sweep(tables[k], every, proof)
        lows, highs = actions
        cells = [(i, j) for i, j in grid.cells() if h.n == 1 or masks[2][i][j]]
        value = tables[1]
        best = max(value[i][j] for i, j in cells)
        silent = (len(grid.q0s) - 1, 0)
        arg = grid.outcomes_at([silent if lows[i] == highs[j] == lows[-1] else (i, j)
                                for i, j in cells if value[i][j] == best])
        return masks, proof, blackwell_maximal(arg)

    @pytest.mark.parametrize("resolution", [10, 20, 30, 37])
    def test_matches_the_full_grid_recursion(self, resolution):
        rng = random.Random(resolution)
        shapes = set()
        for h in _core_stress_games(rng, resolution, 24):
            grid = build_grid(h.prior, resolution)
            masks, proof, spe = self.full_grid_reference(h, grid)
            chain = ic_chain(h, grid)
            ni, nj = len(chain.core.q0s), len(chain.core.q1s)
            shapes.add("constant" if ni == 1 else "rows" if ni < len(grid.q0s)
                       else "columns" if nj < len(grid.q1s) else "whole")
            assert {k: level.mask for k, level in chain.levels.items()} == masks, h
            assert chain.garble_proof.mask == proof, h
            assert solve_spe_grid(h, grid, chain) == spe, h
            for i in range(len(grid.q0s)):
                for j in range(len(grid.q1s)):
                    want = masks[2][i][j] if h.n > 1 else True
                    assert oracle._passed_unchanged(h, grid, 2, (i, j)) == want, (h, i, j)
        assert {"constant", "rows", "columns"} <= shapes

    def test_tables_are_built_on_the_core_only(self, monkeypatch):
        # every value table of the levels, the garble-proof set and the
        # equilibrium has the core's shape, which is smaller than the grid
        rng = random.Random(5)
        sizes = []
        inner = oracle._value_table

        def counted(u, actions, grid):
            sizes.append((len(grid.q0s), len(grid.q1s)))
            return inner(u, actions, grid)

        smaller = 0
        for h in _core_stress_games(rng, 30, 12):
            grid = build_grid(h.prior, 30)
            core, _, _ = oracle._core(grid, oracle._receiver_actions(h, grid))
            shape = (len(core.q0s), len(core.q1s))
            smaller += shape != (len(grid.q0s), len(grid.q1s))
            monkeypatch.setattr(oracle, "_value_table", counted)
            chain = ic_chain(h, grid)
            chain.garble_proof.mask
            solve_spe_grid(h, grid, chain)
            monkeypatch.undo()
            assert sizes == [shape] * (2 * h.n - 1), h
            sizes.clear()
        assert smaller

    def test_counting_builds_no_outcome(self, monkeypatch, chain, grid20):
        # len counts the mask; the outcomes are built on first iteration
        h, _ = chain
        built = []
        inner = OutcomeGrid.outcomes_at

        def counted(grid, cells):
            built.append(len(cells))
            return inner(grid, cells)

        monkeypatch.setattr(OutcomeGrid, "outcomes_at", counted)
        ch = ic_chain(h, grid20)
        views = [*ch.levels.values(), ch.garble_proof, grid20.outcomes]
        sizes = [len(view) for view in views]
        assert built == []
        assert sizes == [len(tuple(view)) for view in views]
        assert built == sizes
        # each view builds its outcomes once
        assert [len(tuple(view)) for view in views] == sizes
        assert built == sizes


class TestIntegerTables:
    """`_value_table` holds exact ints, c * `outcome_value` for one c > 0."""

    @staticmethod
    def assert_scaled(h, grid):
        act = action_rule(h)
        actions = oracle._receiver_actions(h, grid)
        for seat in h.senders:
            table = oracle._value_table(seat.utility, actions, grid)
            assert [len(row) for row in table] == [len(grid.q1s)] * len(grid.q0s)
            assert all(type(v) is int for row in table for v in row)
            pairs = [
                (v, outcome_value(seat.utility, make_outcome(q0, q1, grid.prior), act))
                for row, q0 in zip(table, grid.q0s) for v, q1 in zip(row, grid.q1s)
            ]
            scales = {F(v) / ref for v, ref in pairs if ref}
            assert len(scales) <= 1 and all(c > 0 for c in scales), (h, grid.q0s, grid.q1s)
            assert all(v == 0 for v, ref in pairs if not ref)

    @pytest.mark.parametrize("p", [F(1, 3), F(2, 7), F(77, 100)])
    @pytest.mark.parametrize("resolution", [10, 17, 37])
    def test_seeded_chains(self, p, resolution):
        rng = random.Random(resolution * 1000 + p.denominator)
        kinds = [conformist_table, contrarian_table, zero_extremist_table, one_extremist_table]
        for n in [1, 2, 3, 4]:
            pool = [F(k, 100) for k in range(1, 100) if F(k, 100) != p]
            rng.shuffle(pool)
            senders = []
            for _ in range(n):
                kind = rng.choice(kinds)
                senders.append(kind(pool.pop()) if kind in kinds[:2] else kind())
            h = hierarchy(senders, rng.choice(kinds[:2])(pool.pop()), BinaryPrior(p))
            self.assert_scaled(h, build_grid(h.prior, resolution))

    @pytest.mark.parametrize("resolution", [10, 17, 37, 100])
    def test_uniform_stand_in_off_the_lattice(self, resolution):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(-1, F(1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        sub, _ = oracle._stand_in(h, F(1, 5), F(6, 7))
        assert sub.prior.p == F(21, 46)
        grid = build_grid(sub.prior, resolution)
        assert len(grid.q0s) + len(grid.q1s) == resolution + 3  # p is off the lattice
        self.assert_scaled(sub, grid)

    @pytest.mark.parametrize("m0, m1", [(F(1, 5), F(6, 7)), (F(3, 10), F(29, 50)),
                                        (F(1, 7), F(3, 5))])
    def test_uniform_stand_in_on_its_breakpoints(self, m0, m1):
        # the stand-in's own grid: 0, its prior, 1 and the crossings inside
        # (m0, m1), mapped into it; (3/10, 29/50) puts two crossings on the ends
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(-1, F(1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        sub, grid = oracle._stand_in(h, m0, m1)
        points = {F(0), sub.prior.p, F(1)} | {
            (a.utility.crossing - m0) / (m1 - m0) for a in (*h.senders[1:], h.receiver)
            if m0 < a.utility.crossing < m1}
        assert (*grid.q0s, *grid.q1s[1:]) == tuple(sorted(points))
        assert max(len(grid.q0s), len(grid.q1s)) <= sub.n + 3
        self.assert_scaled(sub, grid)

    def test_ties_on_lattice_points(self, grid20):
        # every threshold is a coordinate, and three seats share one
        h = hierarchy(
            [conformist_table(F(2, 5)), conformist_table(F(2, 5)), contrarian_table(F(1, 5)),
             conformist_table(F(2, 5))],
            conformist_table(F(2, 5)), P, strict=False,
        )
        self.assert_scaled(h, grid20)
        table = oracle._value_table(h.senders[0].utility, oracle._receiver_actions(h, grid20), grid20)
        assert len({v for row in table for v in row}) < len(grid20.cells()) // 2

    @pytest.mark.parametrize("last, tie", [(conformist_table(F(1, 5)), 1),
                                           (contrarian_table(F(1, 10)), 0)],
                             ids=["tie_to_one", "tie_to_zero"])
    def test_tie_rule_fires(self, grid20, last, tie):
        # the receiver is indifferent at the coordinate 3/10, where the last
        # sender's preference decides her action
        h = hierarchy([conformist_table(F(7, 20)), last], conformist_table(F(3, 10)), P)
        assert F(3, 10) in grid20.q0s
        assert h.receiver.utility.gain_of_action1(F(3, 10)) == 0
        assert action_rule(h)(F(3, 10)) == tie
        self.assert_scaled(h, grid20)


class TestActionRule:
    """The receiver's action is the sign of her gain, decided on integers, and
    the tie rule only where that gain is exactly 0."""

    W = F(3, 10) + F(1, 7 * 10**12 + 3)  # her indifference point

    @staticmethod
    def by_definition(h, q):
        g = h.receiver.utility.gain_of_action1(q)
        if g:
            return 1 if g > 0 else 0
        return 1 if h.senders[-1].utility.gain_of_action1(q) > 0 else 0

    @pytest.mark.parametrize("tie", [1, 0], ids=["tie_to_one", "tie_to_zero"])
    @pytest.mark.parametrize("receiver", ["table_up", "table_down", "linear_up", "linear_down"])
    def test_integer_sign_matches_the_gain(self, receiver, tie):
        w, eps = self.W, F(1, 10**13 + 1)
        # the last sender prefers action 1 at w exactly when tie is 1
        last = w - eps if tie else w + eps
        if receiver.startswith("table"):
            table = conformist_table if receiver == "table_up" else contrarian_table
            h = hierarchy([conformist_table(F(7, 20)), conformist_table(last)], table(w),
                          BinaryPrior(F(3, 5)))
        else:
            slope = 1 if receiver == "linear_up" else -1
            h = hierarchy([linear_utility(1, F(-7, 20)), linear_utility(1, -last)],
                          linear_utility(slope, -slope * w), UNIFORM)
        assert h.receiver.utility.gain_of_action1(w) == 0
        act = action_rule(h)
        assert act(w) == tie
        points = [w, w - eps, w + eps, w - eps / 3, w + eps / 3, F(0), F(1), F(1, 2),
                  last, F(3, 10), F(1, 10**14)]
        assert all(q.denominator > 10**12 for q in points[:5])
        assert [act(q) for q in points] == [self.by_definition(h, q) for q in points]
        assert act(w - eps) != act(w + eps)


class TestBlackwellFilter:
    def test_matches_the_pairwise_definition(self):
        rng = random.Random(20)
        lows = [F(k, 20) for k in range(13)]       # up to the prior 3/5
        highs = [F(k, 20) for k in range(12, 21)]  # from the prior up
        silent = make_outcome(P.p, P.p, P)
        for _ in range(500):
            picks = [make_outcome(rng.choice(lows), rng.choice(highs), P)
                     for _ in range(rng.randint(0, 8))]
            picks += rng.sample(picks, rng.randint(0, len(picks)))
            if rng.random() < 0.5:
                picks.append(silent)
            rng.shuffle(picks)
            assert blackwell_maximal(picks) == pairwise_maximal(picks)


UNIFORM = UniformPrior()


class TestUniformGrid:
    GAMES = {
        "three_conformists": hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        ),
        "contrarian_between": hierarchy(
            [linear_utility(1, F(-1, 5)), linear_utility(-1, F(1, 10)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        ),
        # intermediary wants to match only above 0.9; pivotal threshold 0.25
        "distant_zero_biased": hierarchy(
            [linear_utility(1, F(-1, 4)), linear_utility(1, F(-9, 10))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        ),
        # B*'s threshold 0.62 pins m0 at 0.12 (= 0.62 - 1/2 > half of 0.15)
        "anchored_low_cell": hierarchy(
            [linear_utility(1, F(-3, 20)), linear_utility(1, F(-31, 50))],
            linear_utility(1, F(-1, 4)), UNIFORM,
        ),
    }

    def test_three_conformist_interior_optimum(self):
        assert solve_general_grid(self.GAMES["three_conformists"], 100) == [(F(4, 25), F(33, 50))]

    def test_contrarian_between_conformists_blocks(self):
        assert solve_general_grid(self.GAMES["contrarian_between"], 100) == [(F(1, 2), F(1, 2))]

    def test_distant_zero_biased_conformist_blocks(self):
        assert solve_general_grid(self.GAMES["distant_zero_biased"], 100) == [(F(1, 2), F(1, 2))]

    def test_zero_biased_conformist_anchors_low_cell(self):
        assert solve_general_grid(self.GAMES["anchored_low_cell"], 100) == [(F(3, 25), F(31, 50))]

    @pytest.mark.parametrize("resolution", [50, 100, 200])
    def test_single_sender_attains_the_tie_at_the_receivers_mean(self, resolution):
        # the fifth seed-3003 acceptance draw: one sender with gain m - 13/20,
        # the receiver with gain m - 3/25, so w_r = 3/25.  This is plain
        # single-sender persuasion.  A split worth more than silence (-3/20)
        # must leave the low cell unacted, so m0 <= 3/25; at m0 = 3/25 the
        # receiver is indifferent and takes the sender's action there, 0,
        # since 3/25 < 13/20.  The pair is worth V = (1/2 - m0)(m1 - 13/20) /
        # (m1 - m0), whose m1-slope has the sign of -(m0 - 13/20) > 0, so
        # m1 = m0 + 1/2 and V = 2 (1/2 - m0)(m0 - 3/20), rising in m0 up to
        # 13/40.  So the optimum is the cut (3/25, 31/50), worth
        # 2 * 19/50 * (-3/100) = -57/2500, attained on every lattice that
        # holds 3/25, not only approached from below.  The closed form pins
        # the same cut at the receiver's indifference mean
        rng = random.Random(3003)
        h = [_random_uniform_game(rng) for _ in range(5)][4]
        assert h == hierarchy([linear_utility(1, F(-13, 20))], linear_utility(1, F(-3, 25)), UNIFORM)
        got = solve_general_grid(h, resolution)
        assert got == [(F(3, 25), F(31, 50))]
        cells = oracle._respond_to_means(h, F(3, 25), F(31, 50))
        assert [a for _, _, a in cells] == [0, 1]
        assert oracle._means_value(h.senders[0].utility, cells) == F(-57, 2500)
        assert [solve_general_uniform(h).support] == got

    def test_subgames_match_the_closed_form(self):
        # two routes to one subgame: the stand-in's brute force and
        # solve_subgame_given_support, on canonical acceptance draws at every
        # feasible 1/30 lattice pair
        rng = random.Random(3003)
        answers = []
        for _ in range(40):
            h, _ = canonicalize_receiver(_random_uniform_game(rng))
            for m0 in (F(k, 30) for k in range(16)):
                for m1 in (F(k, 30) for k in range(15, 31)):
                    if m0 == m1 or not mpc_feasible_uniform(m0, m1):
                        continue
                    cells = oracle._respond_to_means(h, m0, m1)
                    closed = solve_subgame_given_support(h, m0, m1)
                    got = None if len(cells) == 1 else (cells[0][0], cells[1][0])
                    assert got == (None if closed is None else closed.support()), (h, m0, m1)
                    answers.append(got)
        assert len(answers) > 5000
        assert {got is None for got in answers} == {True, False}
        assert any(got[0] not in (F(k, 30) for k in range(16)) for got in answers if got)

    @staticmethod
    def lattice(resolution):
        return [F(k, resolution) for k in range(resolution + 1)]

    @staticmethod
    def per_pair_search(h, means):
        """The search by its definition: every pair of the axis ``means`` with
        m0 <= 1/2 <= m1 and m1 - m0 <= 1/2 answered by its own subgame, then
        the argmax supports that lie inside no other."""
        half = F(1, 2)
        values = {}
        for m0 in means:
            for m1 in means:
                if m0 <= half <= m1 and m1 - m0 <= half:
                    cells = oracle._respond_to_means(h, m0, m1)
                    key = (half, half) if len(cells) == 1 else (cells[0][0], cells[1][0])
                    values[key] = oracle._means_value(h.senders[0].utility, cells)
        best = max(values.values())
        arg = [key for key, v in values.items() if v == best]
        return sorted(key for key in arg
                      if not any(o != key and o[0] <= key[0] and key[1] <= o[1] for o in arg))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_per_pair_search(self, data):
        # crossings in thirds and sevenths fall between lattice means, those
        # in G-ths or 2G-ths on or halfway between them; some fall outside
        # [0, 1] (extremists), and some repeat (a relaxed chain).  The lattice
        # plus up to 5 uneven means makes an axis whose reach m0 + 1/2 is not
        # a fixed number of steps
        resolution = data.draw(st.integers(10, 27), label="G")
        extra = data.draw(st.lists(st.fractions(0, 1, max_denominator=60), max_size=5),
                          label="off-lattice means")
        dens = st.sampled_from([3, 6, 7, 14, 21, resolution, 2 * resolution])

        def crossing(label):
            den = data.draw(dens, label=f"{label} denominator")
            c = F(data.draw(st.integers(-den // 3, den + den // 3), label=label), den)
            assume(c not in (0, F(1, 2), 1))
            return c

        def agent(label, slope):
            return AgentSpec(linear_utility(slope, -slope * crossing(label)))

        senders = [agent(f"sender {k}", data.draw(st.sampled_from([1, 1, -1])))
                   for k in range(data.draw(st.integers(1, 4), label="n"))]
        receiver = agent("receiver", data.draw(st.sampled_from([1, -1])))
        h = hierarchy(senders, receiver, UNIFORM, strict=False)
        means = self.lattice(resolution)
        assert solve_general_grid(h, resolution) == self.per_pair_search(h, means)
        means = sorted({*means, *extra})
        assert solve_general_grid(h, means) == self.per_pair_search(h, means)

    def test_order_type_fixes_the_answer_off_the_lattice(self):
        # the search asks one pair per order type and carries its answer to
        # the rest; here pairs with denominators 7..997, far off any lattice,
        # must get the same delivered positions and actions within each type
        rng = random.Random(2024)
        half = F(1, 2)

        def agent(slopes):
            while True:
                den = rng.randint(3, 17)
                c = F(rng.randint(-(den // 3), den + den // 3), den)
                if c not in (0, half, 1):
                    slope = rng.choice(slopes)
                    return AgentSpec(linear_utility(slope, -slope * c))

        def pair():
            # m0 < 1/2 < m1 <= m0 + 1/2
            while True:
                d0, d1 = rng.randint(7, 997), rng.randint(7, 997)
                m0 = F(rng.randrange((d0 + 1) // 2), d0)
                top = int((m0 + half) * d1)
                if top > d1 // 2:
                    return m0, F(rng.randint(d1 // 2 + 1, top), d1)

        compared = 0
        for _ in range(40):
            senders = [agent([1, 1, -1]) for _ in range(rng.randint(1, 4))]
            h = hierarchy(senders, agent([1, -1]), UNIFORM, strict=False)
            crossings = [a.utility.crossing for a in (*h.senders[1:], h.receiver)]
            marks = (*crossings, half)
            first = {}
            for _ in range(30):
                m0, m1 = pair()
                order_type = tuple((m > w) - (m < w) for m in (m0, m1) for w in marks)
                names = {m0: "m0", m1: "m1", half: "1/2"}
                for k, w in enumerate(crossings):
                    names.setdefault(w, f"crossing {k}")
                answer = [(names[m], a) for m, _, a in oracle._respond_to_means(h, m0, m1)]
                if order_type in first:
                    compared += 1
                    assert answer == first[order_type], (h, m0, m1)
                first.setdefault(order_type, answer)
        assert compared > 1000

    def test_breakpoint_means_hold_an_optimum_off_every_small_lattice(self):
        # seat 2's crossing 3/8 and the receiver's 5/8 bring 7/8 and 1/8 (the
        # shifts inside [0, 1]), player 1's crossing 7/8 brings v = 7/16 and
        # 15/16; the optimum (3/8, 7/8) ties with silence at 0 and is more
        # informative.  The 1/100 lattice misses 7/8 and finds silence only
        h = hierarchy([linear_utility(1, F(-7, 8)), linear_utility(1, F(-3, 8))],
                      linear_utility(1, F(-5, 8)), UNIFORM)
        means = oracle.breakpoint_means(h)
        points = [F(0), F(1, 8), F(3, 8), F(7, 16), F(1, 2), F(5, 8), F(7, 8), F(15, 16), F(1)]
        assert list(means[::2]) == points
        assert list(means[1::2]) == [(a + b) / 2 for a, b in zip(points, points[1:])]
        assert solve_general_grid(h, means) == self.per_pair_search(h, means) == [(F(3, 8), F(7, 8))]
        assert solve_general_grid(h, 100) == [(F(1, 2), F(1, 2))]

    @pytest.mark.parametrize("name", GAMES)
    def test_fixed_games_match_the_per_pair_search_at_200(self, name):
        h = self.GAMES[name]
        assert solve_general_grid(h, 200) == self.per_pair_search(h, self.lattice(200))

    @pytest.mark.parametrize("resolution", [20, 37, 200, None])
    @pytest.mark.parametrize("name", GAMES)
    def test_each_order_type_is_asked_once(self, monkeypatch, name, resolution):
        # the subgame is asked exactly once per order type of a feasible pair
        # of the axis; on the breakpoint means (None) those are every order
        # type of a feasible pair in [0, 1], here sampled at 1/120
        h = self.GAMES[name]
        half = F(1, 2)
        marks = (*(a.utility.crossing for a in (*h.senders[1:], h.receiver)), half)

        def order_type(m0, m1):
            return tuple((m > w) - (m < w) for m in (m0, m1) for w in marks)

        asked, respond = [], oracle._respond_to_means

        def spy(h, m0, m1):
            asked.append(order_type(m0, m1))
            return respond(h, m0, m1)

        def every(means):
            return {order_type(m0, m1) for m0 in means for m1 in means
                    if m0 <= half <= m1 and m1 - m0 <= half}

        monkeypatch.setattr(oracle, "_respond_to_means", spy)
        means = oracle.breakpoint_means(h) if resolution is None else self.lattice(resolution)
        solve_general_grid(h, resolution or means)
        assert sorted(asked) == sorted(every(means))
        if resolution is None:
            assert every(self.lattice(120)) <= set(asked)

    @pytest.mark.parametrize("resolution, low", [(12, F(1, 6)), (40, F(1, 10))])
    def test_value_ties_across_whole_blocks(self, resolution, low):
        # player 1 shares the contrarian receiver's crossing 3/5, and the
        # seat between them, who prefers action 0 on all of [0, 1], delivers
        # that crossing as the high mean: every such split is worth 1/10, as
        # silence is, whatever m0.  At G=40, 3/5 is a lattice mean, and the
        # cut (1/10, 3/5) splits there too: the receiver, indifferent at 3/5,
        # takes the last sender's action 0, so it is the widest split
        h = hierarchy([linear_utility(-1, F(3, 5)), linear_utility(1, F(-7, 6))],
                      linear_utility(-1, F(3, 5)), UNIFORM, strict=False)
        got = solve_general_grid(h, resolution)
        assert got == self.per_pair_search(h, self.lattice(resolution))
        assert got == [(low, F(3, 5))]

    @pytest.mark.parametrize("resolution", [50, 51])
    def test_crossings_with_huge_denominators(self, resolution):
        # crossings a hair beside the 1/50 lattice means
        tiny = F(1, 10**13 + 7)
        h = hierarchy(
            [linear_utility(1, F(-8, 25) - tiny), linear_utility(1, F(-1, 5) + 3 * tiny),
             linear_utility(-1, F(29, 50) + tiny)],
            linear_utility(1, F(-3, 10) - 2 * tiny), UNIFORM,
        )
        assert all(a.utility.crossing.denominator > 10**12 for a in (*h.senders, h.receiver))
        assert solve_general_grid(h, resolution) == self.per_pair_search(
            h, self.lattice(resolution))

    def test_off_breakpoint_answer_is_refused(self, monkeypatch):
        # every delivered mean must be m0, m1 or a crossing; an answer off
        # them would not carry over to the other pairs of its order type
        h = hierarchy([linear_utility(1, F(-1, 5)), linear_utility(1, F(-2, 5))],
                      linear_utility(1, F(-3, 10)), UNIFORM)
        monkeypatch.setattr(oracle, "_respond_to_means", lambda h, m0, m1: [
            (m0 + F(1, 997), F(1, 2), 1), (m1, F(1, 2), 1),
        ])
        with pytest.raises(ChainError, match="not among"):
            solve_general_grid(h, 20)

    def test_stand_in_with_two_equilibria_is_refused(self, monkeypatch):
        # a subgame answer must be one outcome, not a choice between several
        h = hierarchy([linear_utility(1, F(-1, 5)), linear_utility(1, F(-2, 5))],
                      linear_utility(1, F(-3, 10)), UNIFORM)
        monkeypatch.setattr(oracle, "solve_spe_grid", lambda sub, grid: [
            make_outcome(0, 1, sub.prior), make_outcome(0, 1, sub.prior),
        ])
        with pytest.raises(ChainError, match="2 equilibria"):
            oracle._respond_to_means(h, F(1, 5), F(7, 10))


class TestVerifySimple:
    def test_full_information_all_conformists(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert verify_simple_equilibrium(h, make_outcome(0, 1, P), grid20)

    def test_partial_split_holds(self, grid20):
        h = hierarchy(
            [contrarian_table(F(1, 10)), conformist_table(F(1, 4)), conformist_table(F(3, 10))],
            conformist_table(F(2, 5)), P,
        )
        assert verify_simple_equilibrium(h, make_outcome(F(1, 4), 1, P), grid20)

    def test_blocker_tolerates_the_partial_split(self, grid20):
        # middle contrarian passes {0.25, 1} (all alternatives the last
        # conformist would accept are worse for him) ...
        h = hierarchy(
            [conformist_table(F(3, 10)), contrarian_table(F(1, 10)), conformist_table(F(1, 4))],
            conformist_table(F(2, 5)), P,
        )
        assert verify_simple_equilibrium(h, make_outcome(F(1, 4), 1, P), grid20)

    def test_injected_full_information_fails(self, grid20):
        # ... but would profitably coarsen injected full revelation
        h = hierarchy(
            [conformist_table(F(3, 10)), contrarian_table(F(1, 10)), conformist_table(F(1, 4))],
            conformist_table(F(2, 5)), P,
        )
        assert not verify_simple_equilibrium(h, make_outcome(0, 1, P), grid20)

    def test_off_grid_outcome_rejected(self, grid20):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        off = make_outcome(F(1, 7), 1, P)
        assert grid20.cell_of(off) is None
        assert not verify_simple_equilibrium(h, off, grid20)
        assert verify_simple_equilibrium(h, off, build_grid(P, 35))

    def test_outcome_over_another_prior_rejected(self, grid20, chain):
        h, _ = chain
        other = make_outcome(F(1, 4), 1, BinaryPrior(F(1, 2)))
        assert grid20.cell_of(other) is None
        assert not verify_simple_equilibrium(h, other, grid20)

    def test_silence_passes(self, grid20, chain):
        h, _ = chain
        silent = make_outcome(P.p, P.p, P)
        assert grid20.cell_of(silent) == (len(grid20.q0s) - 1, 0)
        assert verify_simple_equilibrium(h, silent, grid20)

    def test_verdicts_match_a_naive_best_response_scan(self, chain):
        # every grid outcome of small chains, against the definition: seat k
        # keeps c unless some contraction of c pays it strictly more once the
        # later seats best-respond (ties resolved optimistically).  The
        # module's chain comes first: its level 2 is wider than its
        # garble-proof set, which random draws rarely produce.
        def naive(h, grid, c):
            act = action_rule(h)
            outs = grid.outcomes

            def cone(o):
                return [d for d in outs if d.q0 >= o.q0 and d.q1 <= o.q1]

            @cache
            def value(k, o):
                return outcome_value(h.senders[k - 1].utility, o, act)

            @cache
            def reach(k, o):
                """What seats k..n may deliver from o, every tie kept."""
                if k > h.n:
                    return frozenset([o])
                pool = {x for d in cone(o) for x in reach(k + 1, d)}
                best = max(value(k, x) for x in pool)
                return frozenset(x for x in pool if value(k, x) == best)

            return all(
                value(k, c) >= max(value(k, x) for d in cone(c) for x in reach(k + 1, d))
                for k in range(2, h.n + 1)
            )

        rng = random.Random(4)
        kinds = [conformist_table, contrarian_table, zero_extremist_table, one_extremist_table]
        games = [(chain[0], 10)]
        for _ in range(24):
            pool = [F(k, 100) for k in range(1, 100)]
            rng.shuffle(pool)
            p = BinaryPrior(pool.pop())
            senders = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(kinds)
                senders.append(kind(pool.pop()) if kind in kinds[:2] else kind())
            receiver = rng.choice(kinds[:2])(pool.pop())
            games.append((hierarchy(senders, receiver, p), rng.randint(10, 12)))
        verdicts = set()
        for h, resolution in games:
            grid = build_grid(h.prior, resolution)
            for c in grid.outcomes:
                verdict = verify_simple_equilibrium(h, c, grid)
                assert verdict == naive(h, grid, c), (h, c)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_cone_verdicts_match_the_full_level_mask(self):
        # the verifier runs the recursion on the cell's contraction cone; on
        # every cell of each grid, silent ones included, its verdict is the
        # full grid's level-2 mask, and a lone sender passes everything
        rng = random.Random(2030)
        verdicts, lone = set(), 0
        for _ in range(40):
            h = _random_binary_game(rng)
            lone += h.n == 1
            for resolution in (20, 30):
                grid = build_grid(h.prior, resolution)
                levels = ic_chain(h, grid).levels
                for i in range(len(grid.q0s)):
                    for j in range(len(grid.q1s)):
                        want = levels[2].mask[i][j] if h.n > 1 else True
                        assert oracle._passed_unchanged(h, grid, 2, (i, j)) == want, (h, i, j)
                        verdicts.add(want)
        assert lone and verdicts == {True, False}

    def test_weights_must_match_the_support(self):
        # the closed-form outcome of the shipped config passes; the same
        # support with hand-set weights is no outcome player 1 can realize
        h = ingest(CONFIGS / "binary_partial.json")
        assert verify_simple_equilibrium(h, make_outcome(F(1, 4), 1, F(3, 5)))
        forged = BinaryOutcome(F(1, 4), F(1), F(3, 5), F(1, 2), F(1, 2))
        assert not verify_simple_equilibrium(h, forged)

    def test_weights_no_experiment_has_are_refused(self):
        # the second seed-1001 acceptance game; full information with weights
        # (1/2, 1/2) would need pi(high | state 1) = 50/39
        p = F(39, 100)
        h = hierarchy(
            [zero_extremist_table(), zero_extremist_table(), conformist_table(F(13, 20))],
            contrarian_table(F(7, 10)), BinaryPrior(p),
        )
        forged = BinaryOutcome(F(0), F(1), p, F(1, 2), F(1, 2))
        assert verify_simple_equilibrium(h, forged, build_grid(BinaryPrior(p), 20)) is False

    def test_uniform_equilibrium_passes(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert verify_simple_equilibrium(h, (F(4, 25), F(33, 50)), 100)

    def test_uniform_verdicts_match_the_lattice_reference(self):
        # the uniform verifier scans the stand-in on its breakpoint grid; the
        # reference scans it on the 1/100 lattice with its prior, as the
        # verifier once did.  Pairs: the closed-form support of the
        # acceptance draws and its two 1/200 widenings, and every feasible
        # 1/20 lattice pair of the first draws
        def lattice_verdict(h, m0, m1):
            if not (mpc_feasible_uniform(m0, m1) and m0 < F(1, 2) < m1):
                return False
            sub, _ = oracle._stand_in(h, m0, m1)
            grid = build_grid(sub.prior, 100)
            return oracle._passed_unchanged(sub, grid, 1, (0, len(grid.q1s) - 1))

        rng = random.Random(3003)
        lattice = [(F(a, 20), F(b, 20)) for a in range(10) for b in range(11, 21) if b - a <= 10]
        verdicts = []
        for draw in range(40):
            h = _random_uniform_game(rng)
            pairs = lattice if draw < 10 else []
            support = solve_general_uniform(h).support
            if len(support) == 2:
                m0, m1 = support
                pairs = [*pairs, (m0, m1), (m0 - F(1, 200), m1), (m0, m1 + F(1, 200))]
            for m0, m1 in pairs:
                if 0 <= m0 and m1 <= 1:
                    verdict = verify_simple_equilibrium(h, (m0, m1))
                    assert verdict == lattice_verdict(h, m0, m1), (h, m0, m1)
                    verdicts.append(verdict)
        assert len(verdicts) > 500 and set(verdicts) == {True, False}

    def test_uniform_injected_wide_pair_fails(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert not verify_simple_equilibrium(h, (F(1, 10), F(9, 10)), 100)

    def test_uniform_degenerate_supports(self):
        # no experiment induces a lone mean other than 1/2; a pair with a
        # mean at 1/2 puts all its weight there, which is silence
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        assert not verify_simple_equilibrium(h, (F(3, 10),))
        assert verify_simple_equilibrium(h, (F(1, 2), F(3, 4)))
        assert verify_simple_equilibrium(h, (F(1, 4), F(1, 2)))
        assert verify_simple_equilibrium(h, (F(1, 2),))


class TestMonteCarlo:
    def test_seed_mandatory(self):
        h = hierarchy([conformist_table(F(1, 4))], conformist_table(F(2, 5)), P)
        with pytest.raises(SeedRequired):
            monte_carlo(h, [identity_experiment()], 100)

    def test_malformed_profiles_are_refused(self):
        binary = hierarchy([conformist_table(F(1, 4))], conformist_table(F(2, 5)), P)
        uniform = hierarchy([linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5))],
                            linear_utility(1, F(-3, 10)), UNIFORM)
        with pytest.raises(ChainError, match="one experiment per sender"):
            monte_carlo(binary, [identity_experiment(), identity_experiment()], 100, seed=1)
        with pytest.raises(ChainError, match="IntervalCut"):
            monte_carlo(uniform, [identity_experiment(), identity_experiment()], 100, seed=1)
        with pytest.raises(ChainError, match="2x2 Experiment"):
            monte_carlo(uniform, [IntervalCut(F(8, 25)), IntervalCut(F(1, 2))], 100, seed=1)

    def test_no_information_baseline(self):
        h = hierarchy(
            [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
            conformist_table(F(2, 5)), P,
        )
        babble = experiment([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        rep = monte_carlo(h, [babble, identity_experiment(), identity_experiment()],
                          10**5, seed=11)
        mean, se = rep.row("receiver")
        ru = h.receiver.utility
        target = float(P.p * ru.u11 + (1 - P.p) * ru.u01)
        assert abs(mean - target) <= 3 * se

    def test_bit_exact_determinism(self):
        h = hierarchy([conformist_table(F(1, 4))], conformist_table(F(2, 5)), P)
        runs = [
            monte_carlo(h, [identity_experiment()], 10**4, seed=3)
            for _ in range(2)
        ]
        assert runs[0].means == runs[1].means
        assert runs[0].stderrs == runs[1].stderrs

    def test_uniform_chain_with_cut(self):
        h = hierarchy(
            [linear_utility(1, F(-8, 25)), linear_utility(1, F(-1, 5)), linear_utility(1, F(-29, 50))],
            linear_utility(1, F(-3, 10)), UNIFORM,
        )
        rep = monte_carlo(
            h,
            [IntervalCut(F(8, 25)), identity_experiment(), identity_experiment()],
            10**5, seed=5,
        )
        # receiver sees means 0.16 / 0.66, acts on the high cell only:
        # expected premium = P(high) * (E[w | high] - 0.3) = 0.68 * 0.36
        mean, se = rep.row("receiver")
        assert abs(mean - 0.68 * 0.36) <= 3 * se

    @pytest.mark.parametrize("sent", [0, 1])
    @pytest.mark.parametrize("binary", [True, False])
    def test_a_signal_never_sent_leaves_the_silence_value(self, binary, sent):
        # the middle seat maps everything to one signal, so the other final
        # signal is never sent and the receiver acts as she would on the prior
        constant = experiment([[1 - sent, sent], [1 - sent, sent]])
        if binary:
            h = hierarchy(
                [conformist_table(F(1, 4)), conformist_table(F(3, 10)), conformist_table(F(7, 10))],
                conformist_table(F(2, 5)), P,
            )
            first = identity_experiment()
            p = P.p
            value = lambda u, a: (1 - p) * (u.u01 if a else u.u00) + p * (u.u11 if a else u.u10)  # noqa: E731
        else:
            h = hierarchy(
                [linear_utility(1, F(-8, 25)), linear_utility(-1, F(1, 5)), linear_utility(1, F(-29, 50))],
                linear_utility(1, F(-3, 10)), UNIFORM,
            )
            first = IntervalCut(F(8, 25))
            value = lambda u, a: a * (u.alpha / 2 + u.beta)  # noqa: E731
        gain = value(h.receiver.utility, 1) - value(h.receiver.utility, 0)
        assert gain != 0
        silent_action = 1 if gain > 0 else 0
        rep = monte_carlo(h, [first, constant, identity_experiment()], 10**5, seed=17)
        for agent, mean, se in zip((*h.senders, h.receiver), rep.means, rep.stderrs):
            assert se > 0
            assert abs(mean - float(value(agent.utility, silent_action))) <= 3 * se

    # (means, stderrs) of each shipped config's equilibrium profile at 5 000
    # trials, seed 2024, as recorded before the two game families shared one
    # Monte Carlo path: any change to the draw order or the float arithmetic
    # shows here
    PINNED = {
        "binary_ordering": (
            (0.1006, 0.039939999999999996, 0.0006000000000000021, -0.19939999999999997),
            (0.006927158515944398, 0.0006927158515944399, 0.006927158515944399, 0.006927158515944398),
        ),
        "binary_partial": (
            (0.12258, 0.096, 0.04956, -0.043320000000000004),
            (0.004366124291435787, 0.006973272209304684, 0.006451192514331857, 0.005530460443628876),
        ),
        "uniform_interior": (
            (0.23118704599083972, 0.3131470459908397, 0.05360704599083974, 0.24484704599083976),
            (0.003190742763104636, 0.0037845688759144645, 0.002342083361261243, 0.0032839871125405445),
        ),
        "uniform_silent": (
            (0.29991335591844415, -0.3999133559184442, -0.08008664408155582, 0.19991335591844414),
            (0.004071533174297214, 0.004071533174297215, 0.004071533174297214, 0.004071533174297214),
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_equilibrium_profile_is_pinned_bit_for_bit(self, name):
        h = ingest(CONFIGS / f"{name}.json")
        if h.is_binary:
            first = experiment_of_outcome(solve_binary(h).outcome)
        else:
            report = solve_general_uniform(h)
            first = IntervalCut(report.cut if report.cut is not None else F(0))
        rep = monte_carlo(h, [first] + [identity_experiment(2)] * (h.n - 1), 5000, seed=2024)
        assert (rep.means, rep.stderrs) == self.PINNED[name]

    @pytest.mark.parametrize("name", ["binary_partial", "uniform_interior"])
    def test_labels_match_the_solver_report(self, name):
        h = ingest(CONFIGS / f"{name}.json")
        if h.is_binary:
            report = solve_binary(h)
            first = experiment_of_outcome(report.outcome)
        else:
            report = solve_general_uniform(h)
            first = IntervalCut(report.cut)
        rep = monte_carlo(h, [first] + [identity_experiment()] * (h.n - 1), 100, seed=1)
        assert rep.labels == report.labels
        assert rep.labels[-1] == h.receiver.label
