"""Analysis pipeline tests: planner topology, memo cache semantics, and
strategy equivalence against the serial seed oracle."""

import pytest

from repro.analysis import (
    AnomalyOracle,
    CC,
    EC,
    QueryCache,
    QueryPlanner,
    RR,
    SC,
    summarize_program,
)
from repro.analysis.pipeline import (
    IncrementalStrategy,
    SerialStrategy,
    fingerprint_command,
    fingerprint_summary,
    resolve_strategy,
    solve_query,
)
from repro.corpus import BY_NAME
from repro.lang import parse_program

#: The pipeline strategies; each must reproduce the serial seed oracle.
PIPELINE_STRATEGIES = ("cached", "incremental")


def canonical(pairs):
    """Full structural identity of an AccessPair list."""
    return [
        (
            p.txn,
            p.c1,
            p.c2,
            tuple(sorted(p.fields1)),
            tuple(sorted(p.fields2)),
            p.interferers,
            p.patterns,
        )
        for p in pairs
    ]


class TestPlanner:
    def test_one_query_per_pair_and_interferer(self, courseware):
        summaries = summarize_program(courseware)
        plan = QueryPlanner().plan(summaries, EC, True)
        n_txns = len(summaries)
        expected_pairs = sum(
            len(s.ordered_pairs()) for s in summaries.values()
        )
        assert len(plan.batches) == expected_pairs
        assert len(plan.queries()) == expected_pairs * n_txns

    def test_generations_are_topological(self, courseware):
        summaries = summarize_program(courseware)
        plan = QueryPlanner().plan(summaries, EC, True)
        generations = plan.generations()
        # Queries have no dependencies; merges depend only on queries.
        assert len(generations) == 2
        assert all(n.kind == "query" for n in generations[0])
        assert all(n.kind == "merge" for n in generations[1])
        assert len(generations[1]) == len(plan.batches)

    def test_cache_keys_ignore_transaction_names(self):
        src = """
        schema T {{ key id; field v; }}
        txn {name}(k) {{
          x := select v from T where id = k;
          update T set v = x.v + 1 where id = k;
        }}
        """
        s1 = summarize_program(parse_program(src.format(name="incr")))
        s2 = summarize_program(parse_program(src.format(name="bump")))
        assert fingerprint_summary(s1["incr"]) == fingerprint_summary(s2["bump"])

    def test_fingerprints_see_structural_change(self):
        base = """
        schema T { key id; field v; field w; }
        txn t(k) { update T set v = 1 where id = k; }
        """
        changed = base.replace("set v = 1", "set w = 1")
        c1 = summarize_program(parse_program(base))["t"].commands[0]
        c2 = summarize_program(parse_program(changed))["t"].commands[0]
        assert fingerprint_command(c1) != fingerprint_command(c2)


class TestQueryCache:
    def test_identical_requery_hits(self, courseware):
        cache = QueryCache()
        oracle = AnomalyOracle(EC, strategy="cached", cache=cache)
        first = oracle.analyze(courseware)
        second = oracle.analyze(courseware)
        assert first.cache_hits == 0
        assert second.cache_misses == 0
        assert second.cache_hits == first.cache_misses
        assert canonical(first.pairs) == canonical(second.pairs)

    def test_touched_transactions_miss_untouched_hit(self):
        """A merge-style rewrite of one transaction must invalidate only
        the queries that mention it."""
        base = """
        schema A { key id; field x; field y; }
        txn writer(k) {
          update A set x = 1 where id = k;
          update A set y = 2 where id = k;
        }
        txn reader(k) {
          p := select x from A where id = k;
          q := select y from A where id = k;
          return p.x + q.y;
        }
        """
        # The merged variant of `writer` (one combined update): its
        # summaries fingerprint differently, reader's stay identical.
        merged = """
        schema A { key id; field x; field y; }
        txn writer(k) {
          update A set x = 1, y = 2 where id = k;
        }
        txn reader(k) {
          p := select x from A where id = k;
          q := select y from A where id = k;
          return p.x + q.y;
        }
        """
        cache = QueryCache()
        oracle = AnomalyOracle(EC, strategy="cached", cache=cache)
        oracle.analyze(parse_program(base))
        report = oracle.analyze(parse_program(merged))
        # reader-vs-reader queries are untouched by the rewrite and hit;
        # anything involving the rewritten writer misses.
        assert report.cache_hits > 0
        assert report.cache_misses > 0
        summaries = summarize_program(parse_program(merged))
        reader_pairs = len(summaries["reader"].ordered_pairs())
        assert report.cache_hits == reader_pairs  # (reader, c1, c2) vs reader

    def test_explicit_invalidation(self, courseware):
        cache = QueryCache()
        oracle = AnomalyOracle(EC, strategy="cached", cache=cache)
        oracle.analyze(courseware)
        assert len(cache) > 0
        dropped = cache.invalidate(txns={"regSt"})
        assert dropped > 0
        report = oracle.analyze(courseware)
        assert report.cache_misses == dropped

    def test_invalidate_by_table(self, courseware):
        cache = QueryCache()
        AnomalyOracle(EC, strategy="cached", cache=cache).analyze(courseware)
        populated = len(cache)
        assert populated > 0
        # Every courseware query touches STUDENT, EMAIL, or COURSE.
        dropped = cache.invalidate(tables={"STUDENT", "EMAIL", "COURSE"})
        assert dropped == populated
        assert len(cache) == 0
        assert cache.invalidate(tables={"STUDENT"}) == 0  # already empty

    def test_ec_unsat_reused_at_stronger_levels(self):
        src = """
        schema T { key id; field v; }
        txn r1(k) { x := select v from T where id = k; return x.v; }
        txn r2(k) {
          x := select v from T where id = k;
          y := select v from T where id = k;
          return x.v + y.v;
        }
        """
        program = parse_program(src)
        cache = QueryCache()
        ec = AnomalyOracle(EC, strategy="cached", cache=cache).analyze(program)
        assert ec.pairs == []  # read-only program: every query is UNSAT
        rr = AnomalyOracle(RR, strategy="cached", cache=cache).analyze(program)
        assert rr.cache_misses == 0
        assert rr.pairs == []


class TestStrategyEquivalence:
    @pytest.mark.parametrize("level", [EC, CC, RR])
    def test_cached_matches_serial(self, courseware, level):
        serial = AnomalyOracle(level).analyze(courseware)
        cached = AnomalyOracle(level, strategy="cached").analyze(courseware)
        assert canonical(serial.pairs) == canonical(cached.pairs)
        assert serial.pairs_checked == cached.pairs_checked

    def test_prefilter_knob_is_result_neutral(self, courseware):
        with_screen = AnomalyOracle(
            EC, use_prefilter=True, strategy="cached"
        ).analyze(courseware)
        without = AnomalyOracle(
            EC, use_prefilter=False, strategy="cached"
        ).analyze(courseware)
        assert canonical(with_screen.pairs) == canonical(without.pairs)

    def test_report_carries_execution_metadata(self, courseware):
        report = AnomalyOracle(EC, strategy="cached").analyze(courseware)
        assert report.strategy == "cached"
        assert report.cache_misses > 0
        assert report.solver_stats.get("propagations", 0) > 0
        assert report.queries_per_second >= 0


class TestStrategyResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_strategy("cached"), SerialStrategy)
        assert isinstance(resolve_strategy("incremental"), IncrementalStrategy)

    def test_instance_passthrough(self):
        runner = SerialStrategy()
        assert resolve_strategy(runner) is runner

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_strategy("warp-speed")

    @pytest.mark.parametrize("name", ["auto", "parallel", "parallel-incremental"])
    def test_removed_names_rejected(self, name):
        with pytest.raises(ValueError):
            resolve_strategy(name)


class TestRepairEngineIntegration:
    def test_repair_reuses_cache_across_reanalyses(self, courseware):
        from repro.repair.engine import RepairEngine

        cache = QueryCache()
        serial = RepairEngine().repair(courseware)
        cached = RepairEngine(strategy="cached", cache=cache).repair(courseware)
        assert canonical(serial.initial_pairs) == canonical(cached.initial_pairs)
        assert canonical(serial.residual_pairs) == canonical(
            cached.residual_pairs
        )
        assert [o.action for o in serial.outcomes] == [
            o.action for o in cached.outcomes
        ]
        assert cache.hits > 0  # the fixpoint re-analyses hit the memo


class TestReportEquivalence:
    @pytest.mark.parametrize("name", ["Courseware", "SmallBank", "TPC-C"])
    def test_identical_pairs_vs_serial(self, name):
        program = BY_NAME[name].program()
        serial = AnomalyOracle(EC).analyze(program)
        for strategy in PIPELINE_STRATEGIES:
            oracle = AnomalyOracle(EC, strategy=strategy)
            try:
                report = oracle.analyze(program)
            finally:
                oracle.close()
            assert canonical(serial.pairs) == canonical(report.pairs)
            assert serial.pairs_checked == report.pairs_checked
            assert report.strategy == strategy

    def test_analyze_many_matches_per_program_analyze(self, courseware):
        """Regression: batched specs from several plans carry colliding
        plan-local indexes; results must land on the right specs."""
        from repro.repair.engine import repair

        repaired = repair(courseware).repaired_program
        for strategy in PIPELINE_STRATEGIES:
            oracle = AnomalyOracle(EC, strategy=strategy)
            try:
                batched = oracle.analyze_many([courseware, repaired])
            finally:
                oracle.close()
            for program, report in zip([courseware, repaired], batched):
                solo = AnomalyOracle(EC).analyze(program)
                assert canonical(solo.pairs) == canonical(report.pairs)

    def test_serial_oracle_analyze_many(self, courseware):
        oracle = AnomalyOracle(EC)
        reports = oracle.analyze_many([courseware, courseware])
        solo = oracle.analyze(courseware)
        for report in reports:
            assert canonical(report.pairs) == canonical(solo.pairs)


class TestIncrementalSweeps:
    def test_sessions_never_rebuilt_cold_twice(self, courseware):
        """Level sweeps on one strategy instance reuse each triple's
        warm session instead of re-creating it."""
        strategy = IncrementalStrategy()
        summaries = summarize_program(courseware)
        planner = QueryPlanner()
        total_specs = 0
        try:
            for level in (EC, CC, RR, SC):
                specs = planner.plan(summaries, level, True).queries()
                total_specs += len(specs)
                strategy.run(specs, level, True)
            counters = strategy.pool.counters()
        finally:
            strategy.close()
        triples = {
            spec.cache_key[:3]
            for spec in planner.plan(summaries, EC, True).queries()
        }
        # One session per distinct triple, ever -- the later level
        # sweeps only reuse; every spec still got answered.
        assert counters["created"] == len(triples)
        assert counters["reused"] == total_specs - len(triples)
        assert counters["queries"] == total_specs

    def test_run_levels_sweep_matches_cold_verdicts(self, courseware):
        summaries = summarize_program(courseware)
        specs = QueryPlanner().plan(summaries, EC, True).queries()
        sweep = [(EC, CC, RR) for _ in specs]
        strategy = IncrementalStrategy()
        try:
            swept = strategy.run_levels(specs, sweep, True)
        finally:
            strategy.close()
        assert len(swept) == len(specs)
        for spec, outs in zip(specs, swept):
            assert len(outs) == 3
            for level, outcome in zip((EC, CC, RR), outs):
                cold = solve_query(
                    spec.c1, spec.c2, spec.summary_b, level, True
                )
                assert (cold.witness is None) == (outcome.witness is None)
                if level is EC and outcome.witness is not None:
                    # The first EC solve of a virgin session matches the
                    # cold solver bit for bit.
                    assert outcome.witness == cold.witness


class TestBeamFanOut:
    def test_beam_search_identical_across_strategies(self, courseware):
        from repro.repair.engine import repair

        def signature(report):
            return (
                [step.kind for step in report.plan],
                canonical(report.initial_pairs),
                canonical(report.residual_pairs),
                [o.action for o in report.outcomes],
            )

        serial = repair(courseware, search="beam", width=3)
        for strategy in PIPELINE_STRATEGIES:
            batched = repair(
                courseware, strategy=strategy, search="beam", width=3
            )
            assert signature(serial) == signature(batched), strategy

    def test_evaluate_many_matches_evaluate(self, courseware):
        from repro.repair.engine import repair
        from repro.repair.plan import PlanContext
        from repro.repair.search import CostModel

        repaired = repair(courseware).repaired_program
        model = CostModel()
        oracle = AnomalyOracle(EC, strategy="incremental")
        try:
            items = [
                (courseware, PlanContext()),
                (repaired, PlanContext()),
            ]
            batched = model.evaluate_many(items, oracle)
            for (program, ctx), (cost, pairs) in zip(items, batched):
                solo_cost, solo_pairs = model.evaluate(program, ctx, oracle)
                assert solo_cost == cost
                assert canonical(solo_pairs) == canonical(pairs)
        finally:
            oracle.close()
