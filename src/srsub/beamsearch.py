"""Iterative dimension reduction organized as a beam search.

Levels hold transformed regression problems; edges are candidate
substitutions.  Children are scored with a functional dependence measure,
each level keeps the highest-scoring beam-size children, and the result is
the path from the root to the best-scoring problem seen anywhere in the
tree (the root itself included, so "no reduction" is a possible answer).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterator, Optional

from .dag import DagBuilder, ExprDag, compose, solve_for
from .depmeasure import RankVectors, chatterjee_xi, codec, compute_ranks, kmac, volume_score
from .errors import DegenerateY, TooFewRows
from .exprtext import to_text
from .grammar import GrammarBudget
from .substitution import (
    CANDIDATE_CAP,
    Dataset,
    InputSub,
    Substitution,
    aifeynman_candidates,
    apply_substitution,
    column_maps,
    degenerate_column,
    gen_input_candidates,
    gen_outinput_candidates,
    near_constant,
)

MIN_ROOT_ROWS = 30


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int = 1
    measure: str = "codec"
    budget: GrammarBudget = field(default_factory=GrammarBudget)
    sub_types: frozenset = frozenset({"input", "outinput"})
    grammar: str = "dag"  # "dag" or "aifeynman"

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.measure not in ("xi", "codec", "kmac", "volume"):
            raise ValueError(f"unknown measure {self.measure!r}")
        unknown = set(self.sub_types) - {"input", "outinput"}
        if unknown:
            raise ValueError(f"unknown substitution types: {sorted(unknown)}")
        if not self.sub_types:
            raise ValueError("sub_types must name at least one substitution type")
        if self.grammar not in ("dag", "aifeynman"):
            raise ValueError(f"unknown grammar {self.grammar!r}")
        if self.grammar == "aifeynman" and "input" not in self.sub_types:
            raise ValueError("the aifeynman grammar has input substitutions only")


@dataclass
class SearchNode:
    dataset: Dataset
    score: float
    parent: Optional["SearchNode"] = None
    edge: Optional[Substitution] = None
    depth: int = 0
    seq: int = 0  # discovery order, used for deterministic tie-breaking

    @property
    def n_vars(self) -> int:
        return self.dataset.d

    @cached_property
    def constant_output(self) -> bool:
        """`near_constant` of the node's output, asked once and reused by
        every child that shares that output."""
        return near_constant(self.dataset.y)

    @cached_property
    def ranks(self) -> RankVectors:
        """The ranks of the node's output, computed once per output array:
        a node that shares its parent's output reads its parent's ranks."""
        if self.parent is not None and self.dataset.y is self.parent.dataset.y:
            return self.parent.ranks
        return compute_ranks(self.dataset.y)

    def path(self) -> list["SearchNode"]:
        """The nodes from the search root to this node."""
        return (self.parent.path() if self.parent is not None else []) + [self]


@dataclass
class SearchResult:
    best_path: list[SearchNode]
    all_levels: list[list[SearchNode]]

    @property
    def best(self) -> SearchNode:
        return self.best_path[-1]

    @property
    def root(self) -> SearchNode:
        return self.best_path[0]


def _score_dataset(ds: Dataset, measure: str, memo: dict | None = None,
                   ranks: RankVectors | None = None) -> float:
    if measure == "volume":
        return volume_score(ds.X, ds.y, memo)
    # the univariate rank coefficient applies to one-column problems; its
    # multivariate generalization covers the rest
    if measure == "xi" and ds.d == 1:
        return chatterjee_xi(ds.X[:, 0], ds.y)
    if measure == "kmac":
        return kmac(ds.X, ds.y, memo)
    return codec(ds.X, ds.y, ranks=ranks, memo=memo)


def score_candidate(parent: SearchNode, sub: Substitution, measure: str,
                    memo: dict | None = None) -> tuple[Dataset, float] | None:
    """Apply a substitution and score the transformed problem: the child
    dataset and its dependence score.

    Returns None when the candidate is rejected: too many rows dropped, a
    near-constant output, a resolution-collapsed input column, or a
    degenerate rank denominator.

    `memo` is the dict the measure keeps its neighbor maps or volume scores
    in, keyed by the standardized point set up to column sign; the measure
    reads and fills it itself.  One dict serves a whole search: children of
    any parent or level that see the same points (x1-x2 and x2-x1, or an
    out-input child whose columns are an earlier child's) share one neighbor
    map or one volume score.
    """
    try:
        ds = apply_substitution(parent.dataset, sub)
    except TooFewRows:
        return None
    # output untouched and no rows dropped: the child shares the parent's
    # y, and with it the parent's ranks and constancy verdict.  A shared
    # verdict is asked again only when it rejects, so that every rejection
    # comes from a `near_constant` call, which is where perfbench's tracer
    # reads its reason
    same_y = ds.y is parent.dataset.y
    if (not same_y or parent.constant_output) and near_constant(ds.y):
        return None
    if isinstance(sub, InputSub) and degenerate_column(ds.X[:, 0]):
        return None
    try:
        score = _score_dataset(ds, measure, memo, parent.ranks if same_y else None)
    except DegenerateY:
        return None
    return ds, score


@cache
def _candidates(d: int, cfg: BeamConfig) -> tuple[Substitution, ...]:
    """The candidates a d-column parent is searched with, in discovery
    order and at most CANDIDATE_CAP of them; built once per process."""
    if cfg.grammar == "aifeynman":
        subs = aifeynman_candidates(d)
    else:
        subs = itertools.chain(
            gen_input_candidates(d, cfg.budget) if "input" in cfg.sub_types else (),
            gen_outinput_candidates(d, cfg.budget) if "outinput" in cfg.sub_types else ())
    return tuple(itertools.islice(subs, CANDIDATE_CAP))


def _children(beam: list[SearchNode], cfg: BeamConfig, depth: int,
              seq: Iterator[int], memo: dict) -> Iterator[SearchNode]:
    """The accepted children of the beam's nodes in discovery order, at most
    CANDIDATE_CAP candidates per parent."""
    for parent in beam:
        if parent.dataset.d <= 1:
            continue
        for sub in _candidates(parent.dataset.d, cfg):
            scored = score_candidate(parent, sub, cfg.measure, memo)
            if scored is not None:
                ds, score = scored
                yield SearchNode(dataset=ds, score=score, parent=parent,
                                 edge=sub, depth=depth, seq=next(seq))


def search(root_ds: Dataset, cfg: BeamConfig) -> SearchResult:
    """Run the beam search; deterministic for identical inputs.

    Each level keeps the `beam_size` best children by (-score, n_vars,
    seq), and while a level is scored no more than `beam_size` + 1 of its
    children are held.  One memo of neighbor maps and volume scores lives
    for the whole search (see `score_candidate`).
    """
    if root_ds.n < MIN_ROOT_ROWS:
        raise ValueError(f"need at least {MIN_ROOT_ROWS} rows, got {root_ds.n}")
    memo: dict = {}
    root = SearchNode(dataset=root_ds, score=float("-inf"))
    try:
        root.score = _score_dataset(root_ds, cfg.measure, memo, root.ranks)
    except DegenerateY:
        pass

    levels: list[list[SearchNode]] = []
    beam = [root]
    seq = itertools.count(1)
    for depth in range(1, max(root_ds.d - 1, 0) + 1):
        beam = heapq.nsmallest(cfg.beam_size, _children(beam, cfg, depth, seq, memo),
                               key=lambda node: (-node.score, node.n_vars, node.seq))
        if not beam:
            break
        levels.append(beam)

    # the first node with the highest score, root first, then level by level
    best = max(itertools.chain([root], *levels), key=lambda node: node.score)
    return SearchResult(best_path=best.path(), all_levels=levels)


def trace_records(result: SearchResult) -> list[dict]:
    """Line-oriented trace of the surviving nodes, root included."""
    records = [
        {
            "depth": 0,
            "substitution": None,
            "score": result.root.score,
            "n_vars": result.root.n_vars,
            "rows_dropped": 0.0,
        }
    ]
    for level in result.all_levels:
        for node in level:
            records.append(
                {
                    "depth": node.depth,
                    "substitution": substitution_text(node.edge),
                    "score": node.score,
                    "n_vars": node.n_vars,
                    "rows_dropped": 1 - node.dataset.n / node.parent.dataset.n,
                }
            )
    return records


def substitution_text(sub: Substitution | None) -> str | None:
    if sub is None:
        return None
    if isinstance(sub, InputSub):
        cols = ",".join(str(i + 1) for i in sub.I)
        return f"input g({cols}) = {to_text(sub.g)}"
    names = {i: f"x{c + 1}" for i, c in enumerate(sub.I)}
    names[len(sub.I)] = "y"
    cols = ",".join(str(i + 1) for i in sub.I)
    return f"outinput h({cols};y) = {to_text(sub.h, var_names=names)}"


def reconstruct(node: SearchNode, solution: ExprDag) -> ExprDag:
    """Translate a solution of a search node's problem back into the
    coordinates of the search root and solve for the root's output.

    `solution` is an expression over the node's columns; `column_maps`
    composes what they mean, relative to the root, along `node.path()`.
    Raises NotSolvable when the output cannot be isolated.
    """
    if solution.arity > node.dataset.d:
        raise ValueError("solution uses more columns than the dataset has")
    path = node.path()
    d0 = path[0].dataset.d
    columns, output = column_maps(d0, [n.edge for n in path[1:]])
    rhs = compose(solution, columns, d0 + 1)
    solved = solve_for(output, rhs, target=d0)
    used = solved.var_indices()
    if used and max(used) >= d0:
        raise ValueError("reconstruction left the original output symbol unresolved")
    b = DagBuilder()  # drop the output slot from the declared arity
    return b.extract(b.copy_from(solved), d0)
