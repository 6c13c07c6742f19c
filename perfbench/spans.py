"""Span harness for the traced benchmark run.

The harness wraps functions and methods of the ``repro`` modules from
outside: nothing under ``src/`` knows it is being traced.  Each wrapped
call records a span ``[name, start, end, parent, request id]`` in a
per-thread list kept in memory; :meth:`Tracer.dump` writes them out when
the run ends.  A span's *self time* is its duration minus the time its
child spans cover, so summing self times by name splits a request's wall
time by layer without double counting.

Module functions are wrapped in every ``repro`` module that imported
them by name (``repro.live.validate.is_serializable`` as well as
``repro.semantics.history.is_serializable``), and methods are wrapped on
the class that defines them.  Generator functions get one span per
resumption, so lazily consumed candidates are timed where they are
produced.
"""

from __future__ import annotations

import functools
import glob
import gzip
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

TABLE1 = "table1-corpus"
SERVICE = "service-mixed"
LIVE = "live-protect"
ANALYSIS = frozenset({TABLE1, SERVICE})


# -- counters --------------------------------------------------------------
# A hook is (before, after): ``before(args)`` captures state on entry,
# ``after(args, result, state, counts)`` adds to the tracer's counters.
# Hooks run only on the outermost call of their span name per thread.


def _count_lookup(args, result, state, counts):
    counts["pipeline.lookups"] += 1
    counts["pipeline.hits"] += bool(result[0])


def _session_before(args):
    return args[0].created


def _count_session(args, result, state, counts):
    created = args[0].created > state
    counts["oracle.sessions_created"] += created
    counts["oracle.sessions_reused"] += not created


def _pair_before(args):
    return args[0].queries, args[0].model_hits


def _count_pair(args, result, state, counts):
    counts["encoding.queries"] += args[0].queries - state[0]
    counts["encoding.model_hits"] += args[0].model_hits - state[1]


def _solver_before(args):
    stats = args[0]._stats
    return stats["conflicts"], stats["propagations"]


def _count_solve(args, result, state, counts):
    stats = args[0]._stats
    counts["solver.solves"] += 1
    counts["solver.conflicts"] += stats["conflicts"] - state[0]
    counts["solver.propagations"] += stats["propagations"] - state[1]


def _count_search(args, result, state, counts):
    counts["plan.steps"] += len(result.plan)


def _count_one(key):
    def after(args, result, state, counts):
        counts[key] += 1
    return after


@dataclass(frozen=True)
class SpanSpec:
    """One span name, the callables it wraps, and the workloads on which
    the self-test requires it to fire."""

    name: str
    targets: Tuple[str, ...]
    workloads: FrozenSet[str]
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    record: bool = True  # False: count only, no span
    keys: Tuple[str, ...] = ()  # counters that show a count-only spec fired


SPANS: Tuple[SpanSpec, ...] = (
    SpanSpec("lang.parse", ("repro.lang.parser:parse_program",),
             frozenset({SERVICE})),
    SpanSpec("analysis.accesses.summarize",
             ("repro.analysis.accesses:summarize_transaction",), ANALYSIS),
    SpanSpec("analysis.pipeline.plan",
             ("repro.analysis.pipeline:QueryPlanner.plan",), ANALYSIS),
    SpanSpec("analysis.pipeline.lookup",
             ("repro.analysis.pipeline:QueryCache.lookup",), ANALYSIS,
             after=_count_lookup, record=False, keys=("pipeline.lookups",)),
    SpanSpec("analysis.oracle.solve",
             ("repro.analysis.oracle:OracleSession.solve",
              "repro.analysis.oracle:OracleSession.solve_batch"), ANALYSIS),
    SpanSpec("analysis.oracle.session",
             ("repro.analysis.oracle:OracleSession.session",), ANALYSIS,
             before=_session_before, after=_count_session, record=False,
             keys=("oracle.sessions_created", "oracle.sessions_reused")),
    SpanSpec("analysis.encoding.warm",
             ("repro.analysis.encoding:PairSession.query",
              "repro.analysis.encoding:PairSession.query_batch"), ANALYSIS,
             before=_pair_before, after=_count_pair),
    SpanSpec("analysis.encoding.axioms",
             ("repro.analysis.encoding:PairEncoder.assert_axioms",
              "repro.analysis.encoding:PairSession._axiom_groups"), ANALYSIS),
    SpanSpec("analysis.encoding.model_screen",
             ("repro.analysis.encoding:PairSession._reusable_model",),
             ANALYSIS),
    SpanSpec("smt.formula.encode",
             ("repro.smt.formula:FormulaBuilder.add",
              "repro.smt.formula:FormulaBuilder.assert_implication",
              "repro.smt.formula:FormulaBuilder.assert_implication_lits"),
             ANALYSIS),
    SpanSpec("smt.solver.solve", ("repro.smt.solver:Solver.solve",),
             ANALYSIS, before=_solver_before, after=_count_solve),
    SpanSpec("repair.search.propose",
             ("repro.repair.search:propose_candidates",), ANALYSIS),
    SpanSpec("repair.search.search",
             ("repro.repair.search:GreedySearch.search",), ANALYSIS,
             after=_count_search),
    SpanSpec("repair.plan.apply",
             tuple(f"repro.repair.plan:{cls}.apply" for cls in (
                 "SplitStep", "MergeStep", "RedirectStep", "LoggerStep",
                 "IntroSchemaStep", "IntroFieldStep", "PostprocessStep")),
             ANALYSIS),
    SpanSpec("live.compile", ("repro.live.compile:compile_plan",),
             frozenset({LIVE})),
    SpanSpec("live.intercept",
             ("repro.live.intercept:LiveInterceptor.execute",),
             frozenset({LIVE})),
    SpanSpec("semantics.schedule",
             ("repro.semantics.scheduler:run_interleaved",
              "repro.semantics.scheduler:run_serial"), frozenset({LIVE})),
    SpanSpec("semantics.exec", ("repro.semantics.interp:execute_command",),
             frozenset({LIVE})),
    SpanSpec("semantics.history_check",
             ("repro.semantics.history:is_serializable",),
             frozenset({LIVE}), after=_count_one("semantics.histories")),
    SpanSpec("store.simulate", ("repro.store.runner:simulate",),
             frozenset({LIVE}), after=_count_one("store.simulations")),
)

#: The span every request runs under; its duration is the request's wall
#: time as the tracer saw it.
REQUEST = "request"


@dataclass
class _ThreadState:
    spans: List[list] = field(default_factory=list)
    stack: List[int] = field(default_factory=list)
    depth: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    rid: Optional[str] = None


class Tracer:
    """Records spans and counters for the wrapped callables."""

    def __init__(self):
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._threads: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget every span and counter (a forked child starts afresh;
        the wrappers stay installed)."""
        self.counts.clear()
        self._threads = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def _push(self, state: _ThreadState, name: str) -> int:
        spans = state.spans
        index = len(spans)
        parent = state.stack[-1] if state.stack else -1
        spans.append([name, time.perf_counter(), 0.0, parent, state.rid])
        state.stack.append(index)
        state.depth[name] += 1
        return index

    def _pop(self, state: _ThreadState, name: str, index: int) -> None:
        state.spans[index][2] = time.perf_counter()
        state.stack.pop()
        state.depth[name] -= 1

    def request(self, rid: str) -> "_RequestSpan":
        """Context manager: a root span for one request; spans recorded
        on this thread inside it carry ``rid``."""
        return _RequestSpan(self, rid)

    # -- installation ------------------------------------------------------

    def install(self, specs: Sequence[SpanSpec] = SPANS) -> None:
        """Wrap every target of ``specs``; a target that no longer exists
        is noted in :attr:`missing` rather than failing the run."""
        _import_all_repro()
        for spec in specs:
            for target in spec.targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                self._wrap(spec, owner, attr, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, spec: SpanSpec, owner, attr: str, original) -> None:
        raw = original.__func__ if isinstance(original, staticmethod) else original
        wrapper = self._make_wrapper(spec, raw)
        if isinstance(original, staticmethod):
            wrapper = staticmethod(wrapper)
        self._patch(owner, attr, original, wrapper)
        if inspect.isclass(owner):
            return
        # Rebind the name in every module that imported it by name.
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, key, value, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _make_wrapper(self, spec: SpanSpec, fn):
        name, before, after, record = spec.name, spec.before, spec.after, spec.record
        counts = self.counts
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                state = tracer._state()
                while True:
                    index = tracer._push(state, name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._pop(state, name, index)
                    counts[name + ".items"] += 1
                    yield item
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            outer = state.depth[name] == 0
            token = before(args) if (before is not None and outer) else None
            if record:
                index = tracer._push(state, name)
            else:
                state.depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if record:
                    tracer._pop(state, name, index)
                else:
                    state.depth[name] -= 1
            if after is not None and outer:
                after(args, result, token, counts)
            return result
        return wrapper

    # -- results -----------------------------------------------------------

    def spans(self) -> List[list]:
        """Every span recorded so far, each ``[name, start, end, parent,
        rid, self]``; ``parent`` indexes the same thread's list and is
        rewritten to a global index here."""
        out: List[list] = []
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            base = len(out)
            spans = [list(s) for s in state.spans]
            cover = [0.0] * len(spans)
            for s in spans:
                if s[3] >= 0 and s[2]:
                    cover[s[3]] += s[2] - s[1]
            for i, s in enumerate(spans):
                s.append((s[2] - s[1]) - cover[i] if s[2] else 0.0)
                if s[3] >= 0:
                    s[3] += base
                out.append(s)
        return out

    def dump(self, path: str, spans: Optional[List[list]] = None) -> None:
        """Write spans as gzip'd JSON lines."""
        spans = self.spans() if spans is None else spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for s in spans:
                fh.write(json.dumps(s, separators=(",", ":")))
                fh.write("\n")

    def dump_dir(self, span_dir: str) -> None:
        """Write this process's spans, counters and missing targets into
        ``span_dir`` (see :func:`load_dir`)."""
        pid = os.getpid()
        self.dump(os.path.join(span_dir, f"spans-{pid}.jsonl.gz"))
        with open(os.path.join(span_dir, f"counts-{pid}.json"), "w") as fh:
            json.dump({"counts": self.counts, "missing": self.missing}, fh)


def load_dir(span_dir: str) -> Tuple[List[list], Dict[str, float], List[str]]:
    """Merge what :meth:`Tracer.dump_dir` wrote from several processes:
    (spans, counters, missing targets)."""
    spans: List[list] = []
    counts: Dict[str, float] = defaultdict(float)
    missing: set = set()
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.jsonl.gz"))):
        base = len(spans)
        with gzip.open(path, "rt") as fh:
            for line in fh:
                s = json.loads(line)
                if s[3] >= 0:
                    s[3] += base
                spans.append(s)
    for path in glob.glob(os.path.join(span_dir, "counts-*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        for key, value in doc["counts"].items():
            counts[key] += value
        missing.update(doc["missing"])
    return spans, counts, sorted(missing)


class _RequestSpan:
    def __init__(self, tracer: Tracer, rid: str):
        self.tracer, self.rid = tracer, rid

    def __enter__(self):
        state = self.tracer._state()
        self._saved = state.rid
        state.rid = self.rid
        self._index = self.tracer._push(state, REQUEST)
        self._state = state
        return self

    def __exit__(self, *exc):
        self.tracer._pop(self._state, REQUEST, self._index)
        self._state.rid = self._saved
        return False


def _import_all_repro() -> None:
    """Import every module a span target may have been imported into, so
    the by-name rebinding sees them all."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        if attr not in vars(owner):
            raise AttributeError(f"{target}: not defined on the class")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


# -- per-layer metrics -----------------------------------------------------


def self_time_by_name(spans: List[list]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s[0]] += s[5]
    return totals


def request_overruns(spans: List[list], slack: float = 1e-6) -> List[str]:
    """Requests whose spans' self times sum past the request's wall time
    (impossible when every span nests properly)."""
    walls: Dict[str, float] = {}
    sums: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s[4] is None:
            continue
        if s[0] == REQUEST:
            walls[s[4]] = s[2] - s[1]
        sums[s[4]] += s[5]
    return [
        f"request {rid}: self times {sums[rid]:.6f}s > wall {wall:.6f}s"
        for rid, wall in walls.items()
        if sums[rid] > wall + slack
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[list], counts: Dict[str, float],
                  requests: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, each normalised per request: ``name ->
    (value, unit)``."""
    selfs = self_time_by_name(spans)
    n = max(requests, 1)
    c = counts

    def per_req(key: str) -> Tuple[float, str]:
        return selfs.get(key, 0.0) / n, "s/req"

    def count(key: str) -> Tuple[float, str]:
        return c.get(key, 0.0) / n, "1/req"

    return {
        "lang.parse_s": per_req("lang.parse"),
        "analysis.accesses.summarize_s": per_req("analysis.accesses.summarize"),
        "analysis.pipeline.plan_s": per_req("analysis.pipeline.plan"),
        "analysis.pipeline.queries": count("pipeline.lookups"),
        "analysis.pipeline.cache_hit_rate": (
            _ratio(c.get("pipeline.hits", 0), c.get("pipeline.lookups", 0)), "ratio"),
        "analysis.oracle.solve_s": per_req("analysis.oracle.solve"),
        "analysis.oracle.sessions_created": count("oracle.sessions_created"),
        "analysis.oracle.session_reuse_rate": (
            _ratio(c.get("oracle.sessions_reused", 0),
                   c.get("oracle.sessions_reused", 0) + c.get("oracle.sessions_created", 0)),
            "ratio"),
        "analysis.encoding.warm_s": per_req("analysis.encoding.warm"),
        "analysis.encoding.axioms_s": per_req("analysis.encoding.axioms"),
        "analysis.encoding.model_screen_s": per_req("analysis.encoding.model_screen"),
        "analysis.encoding.model_reuse_rate": (
            _ratio(c.get("encoding.model_hits", 0), c.get("encoding.queries", 0)), "ratio"),
        "smt.formula.encode_s": per_req("smt.formula.encode"),
        "smt.solver.solve_s": per_req("smt.solver.solve"),
        "smt.solver.solves": count("solver.solves"),
        "smt.solver.conflicts": count("solver.conflicts"),
        "smt.solver.propagations": count("solver.propagations"),
        "repair.search.propose_s": per_req("repair.search.propose"),
        "repair.search.candidates": count("repair.search.propose.items"),
        "repair.search.accept_rate": (
            _ratio(c.get("plan.steps", 0), c.get("repair.search.propose.items", 0)), "ratio"),
        "repair.search.self_s": per_req("repair.search.search"),
        "repair.plan.apply_s": per_req("repair.plan.apply"),
        "repair.plan.steps": count("plan.steps"),
        "live.compile_s": per_req("live.compile"),
        "live.intercept_s": per_req("live.intercept"),
        "semantics.schedule_s": per_req("semantics.schedule"),
        "semantics.exec_s": per_req("semantics.exec"),
        "semantics.history_check_s": per_req("semantics.history_check"),
        "semantics.histories": count("semantics.histories"),
        "store.simulate_s": per_req("store.simulate"),
        "store.simulations": count("store.simulations"),
    }


def check(workload: str, spans: List[list], counts: Dict[str, float],
          missing: List[str]) -> List[str]:
    """Self-test findings for one traced run: unresolved targets, spans
    declared for ``workload`` that never fired, and requests whose self
    times overrun their wall time."""
    problems = [f"target not found: {t}" for t in missing]
    names = {s[0] for s in spans}
    for spec in SPANS:
        if workload not in spec.workloads:
            continue
        if spec.record:
            ok = spec.name in names
        else:
            ok = any(counts.get(k) for k in spec.keys)
        if not ok:
            problems.append(f"span {spec.name} never fired on {workload}")
    problems.extend(request_overruns(spans))
    return problems

