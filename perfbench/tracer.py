"""Span tracer that instruments srsub from outside the package.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that records a span: name, start, end, parent span and the
problem being solved.  Spans live in flat arrays in memory and are written
out once, when the run ends.  Nothing under ``src/`` is edited; `uninstall`
puts every original function back.  The wrappers' own cost, including the
input hashing behind the neighbour-repeat count, lands in the caller's span.
"""

from __future__ import annotations

import functools
import hashlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name).  A span name's layer is the text before its
# first dot.  Where a function is imported into its caller's namespace the
# wrapper goes on the caller's module, because that is the name it resolves.
TRACE_POINTS = (
    ("bench", "run_problem", "bench.run_problem"),
    ("bench", "sample_problem", "bench.sample"),
    ("bench", "chain_stats", "bench.chain_verify"),
    ("bench", "recovery", "bench.recovery_check"),
    ("bench", "jaccard", "bench.recovery_check"),
    ("bench", "search", "beamsearch.search"),
    ("bench", "solve_pipeline", "regress.solve_pipeline"),
    ("bench", "equivalent", "symbolic.equivalent"),
    ("beamsearch", "score_candidate", "beamsearch.score_candidate"),
    ("beamsearch", "apply_substitution", "substitution.apply"),
    ("beamsearch", "near_constant", "substitution.near_constant"),
    ("beamsearch", "degenerate_column", "substitution.degenerate_column"),
    ("beamsearch", "codec", "depmeasure.codec"),
    ("beamsearch", "kmac", "depmeasure.kmac"),
    ("beamsearch", "volume_score", "depmeasure.volume"),
    ("beamsearch", "chatterjee_xi", "depmeasure.xi"),
    ("beamsearch", "compute_ranks", "depmeasure.ranks"),
    ("substitution", "compose", "dag.compose"),
    ("substitution", "evaluate", "dag.evaluate"),
    ("substitution", "input_candidate_dags", "substitution.enum"),
    ("substitution", "outinput_candidate_dags", "substitution.enum"),
    ("depmeasure", "nearest_neighbors", "depmeasure.nn"),
    ("depmeasure", "compute_ranks", "depmeasure.ranks"),
    ("regress", "fit", "regress.fit"),
    ("regress", "evaluate", "regress.evaluate"),
    ("regress", "minimize", "regress.refine"),
    ("regress", "reconstruct", "beamsearch.reconstruct"),
    ("regress", "_skeletons", "regress.skeleton_enum"),
)

SCORE_SPANS = ("depmeasure.codec", "depmeasure.kmac", "depmeasure.volume", "depmeasure.xi")
CHECK_SPANS = ("substitution.near_constant", "substitution.degenerate_column")
REJECT_REASONS = ("too_few_rows", "near_constant", "degenerate_column", "degenerate_y")


class Tracer:
    """Records spans and per-name totals for the wrapped functions.

    Single-threaded: the traced run solves its problems in this process.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.problems: list[str] = []
        self._problem_index: dict[str, int] = {}
        self.problem = self._intern_problem("")  # spans outside any problem
        # one entry per span, in start order
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_problem = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._open: list[int] = []  # open spans per name
        self.calls: list[int] = []
        self.total_s: list[float] = []  # outermost spans only, so recursion is not double counted
        self.self_s: list[float] = []
        self.counters: dict[str, int] = {}
        self._reject_reason: str | None = None
        self._nn_seen: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return self._name_index[name]

    def _intern_problem(self, pid: str) -> int:
        if pid not in self._problem_index:
            self._problem_index[pid] = len(self.problems)
            self.problems.append(pid)
        return self._problem_index[pid]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _call(self, idx: int, fn, args, kwargs, before, after):
        if before is not None:
            before(args, kwargs)
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = len(self.span_start)
        frame = [sid, 0.0]  # span id, seconds in child spans
        stack.append(frame)
        self._open[idx] += 1
        self.span_name.append(idx)
        self.span_parent.append(parent)
        self.span_problem.append(self.problem)
        self.span_end.append(0.0)
        result = None
        exc = None
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            exc = e
            raise
        finally:
            end = time.perf_counter()
            self.span_end[sid] = end
            stack.pop()
            dur = end - start
            self._open[idx] -= 1
            self.calls[idx] += 1
            self.self_s[idx] += dur - frame[1]
            if self._open[idx] == 0:
                self.total_s[idx] += dur
            if stack:
                stack[-1][1] += dur
            if after is not None:
                after(result, exc)
        return result

    # -- instrumentation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every trace point; the srsub modules must be importable."""
        import importlib

        from srsub.errors import DegenerateY, TooFewRows

        def reject_when(reason: str, hit):
            """Record why the enclosing candidate is rejected, if it is."""
            def after(result, exc):
                if self._reject_reason is None and hit(result, exc):
                    self._reject_reason = reason
            return after

        def candidate_before(args, kwargs):
            self._reject_reason = None

        def candidate_after(result, exc):
            if exc is not None:
                return
            self.count("beamsearch.candidates")
            if result is None:
                self.count(f"beamsearch.reject.{self._reject_reason or 'unexplained'}")
            else:
                self.count("beamsearch.accepted")

        def problem_before(args, kwargs):
            problem = args[0] if args else kwargs["p"]
            self.problem = self._intern_problem(problem.id)

        def search_before(args, kwargs):
            self._nn_seen = set()

        def nn_before(args, kwargs):
            X = np.ascontiguousarray(args[0] if args else kwargs["X"])
            key = (X.shape, X.dtype.str, hashlib.blake2b(X.view(np.uint8)).digest())
            if key in self._nn_seen:
                self.count("depmeasure.nn_repeat")
            else:
                self._nn_seen.add(key)

        degenerate_y = reject_when("degenerate_y", lambda r, e: isinstance(e, DegenerateY))
        hooks = {
            "bench.run_problem": (problem_before, None),
            "beamsearch.search": (search_before, None),
            "beamsearch.score_candidate": (candidate_before, candidate_after),
            "substitution.apply": (
                None, reject_when("too_few_rows", lambda r, e: isinstance(e, TooFewRows))),
            "substitution.near_constant": (None, reject_when("near_constant", lambda r, e: bool(r))),
            "substitution.degenerate_column": (
                None, reject_when("degenerate_column", lambda r, e: bool(r))),
            "depmeasure.nn": (nn_before, None),
            **{name: (None, degenerate_y) for name in SCORE_SPANS},
        }
        for mod_name, attr, span in TRACE_POINTS:
            module = importlib.import_module(f"srsub.{mod_name}")
            original = getattr(module, attr)
            before, after = hooks.get(span, (None, None))
            setattr(module, attr, self._wrap(self._intern(span), original, before, after))
            self._patched.append((module, attr, original))

    def _wrap(self, idx: int, fn, before, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(idx, fn, args, kwargs, before, after)
        return wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def seconds(self, *names: str) -> float:
        """Inclusive time of the named spans."""
        return sum(self.total_s[self._name_index[n]] for n in names if n in self._name_index)

    def n_calls(self, *names: str) -> int:
        return sum(self.calls[self._name_index[n]] for n in names if n in self._name_index)

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)

    def layer_self_s(self, layer: str) -> float:
        """Time in the layer's spans minus the time of their child spans."""
        return sum(t for name, t in zip(self.names, self.self_s) if name.split(".", 1)[0] == layer)

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def write(self, path: Path) -> None:
        """Write every span as parallel arrays in one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            problems=np.array(self.problems),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            problem=np.frombuffer(self.span_problem, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
