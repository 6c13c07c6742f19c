"""Strategy-level differential for the warm incremental path.

``tests/test_oracle_session.py`` checks one :class:`OracleSession`
against the cold solver.  This module checks the layer above it: the
:class:`IncrementalStrategy` the oracle and the repair loop actually
drive.  For every corpus program, every focus pair x interferer, and
every anomaly mode (EC/CC/RR/SC), with one strategy instance kept warm
across the level sweeps:

- the strategy's verdict must equal the cold ``solve_query`` verdict,
  and EC witnesses must be exact;
- every outcome (witness, ``solved`` flag) must equal an in-process
  :class:`OracleSession` shadow replay fed the same query sequence, so
  the strategy adds nothing to (and drops nothing from) the session
  code the session differential validates semantically;
- a second strategy instance answering each triple's whole level sweep
  through one :meth:`IncrementalStrategy.run_levels` call must reach
  the same verdicts.
"""

import pytest

from repro.analysis import CC, EC, RR, SC, OracleSession, summarize_program
from repro.analysis.pipeline import IncrementalStrategy, QueryPlanner, solve_query
from repro.corpus import ALL_BENCHMARKS

ALL_LEVELS = (EC, CC, RR, SC)


class TestDifferential:
    """Strategy outcomes against the cold solver and an in-process
    shadow pool, corpus-wide, all levels."""

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
    def test_all_pairs_all_modes(self, bench):
        summaries = summarize_program(bench.program())
        planner = QueryPlanner()
        strategy = IncrementalStrategy()
        sweeper = IncrementalStrategy()
        shadow_pool = OracleSession()
        cold_memo = {}
        # Triple -> (spec, levels it was planned at), in first-seen order,
        # for the run_levels sweep.
        sweeps = {}
        checked = 0

        def cold_verdict(spec, level):
            key = (spec.cache_key, level.name)
            if key not in cold_memo:
                cold_memo[key] = solve_query(
                    spec.c1, spec.c2, spec.summary_b, level, True
                )
            return cold_memo[key]

        try:
            for level in ALL_LEVELS:
                specs = planner.plan(summaries, level, True).queries()
                outcomes = strategy.run(specs, level, True)
                assert len(outcomes) == len(specs)
                for spec, outcome in zip(specs, outcomes):
                    cold = cold_verdict(spec, level)
                    checked += 1
                    where = (
                        bench.name, level.name, spec.a_name,
                        spec.c1.label, spec.c2.label, spec.summary_b.name,
                    )
                    # Hard gate: verdicts agree on every pair x mode.
                    assert (cold.witness is None) == (
                        outcome.witness is None
                    ), where
                    if level is EC and outcome.witness is not None:
                        # A session's first EC solve is virgin and
                        # bit-identical to cold; EC re-queries reuse the
                        # remembered model, whose witness is that one.
                        assert outcome.witness == cold.witness, where
                    shadow = shadow_pool.solve(
                        spec.c1,
                        spec.c2,
                        spec.summary_b,
                        level,
                        True,
                        key=spec.cache_key[:3] + (True,),
                    )
                    assert shadow.witness == outcome.witness, where
                    assert shadow.solved == outcome.solved, where
                    sweeps.setdefault(spec.cache_key[:3], (spec, []))[1].append(
                        level
                    )

            triples = list(sweeps.values())
            swept = sweeper.run_levels(
                [spec for spec, _ in triples],
                [levels for _, levels in triples],
                True,
            )
            assert len(swept) == len(triples)
            for (spec, levels), outs in zip(triples, swept):
                assert len(outs) == len(levels)
                for level, outcome in zip(levels, outs):
                    cold = cold_verdict(spec, level)
                    assert (cold.witness is None) == (
                        outcome.witness is None
                    ), (bench.name, level.name, spec.a_name, "run_levels")
        finally:
            strategy.close()
            sweeper.close()
            shadow_pool.close()
        assert checked > 0
