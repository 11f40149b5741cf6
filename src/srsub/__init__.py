"""srsub: dimension reduction for symbolic regression.

Searches over small expression-DAG substitutions, scores transformed
regression problems with rank-based functional dependence measures, and
reconstructs full symbolic solutions from solved reduced problems.
"""

from .beamsearch import BeamConfig, SearchNode, SearchResult, reconstruct, score_candidate, search
from .bench import (
    NoiseLevel,
    Problem,
    Report,
    add_noise,
    jaccard,
    load_corpus,
    recovery,
    reduction_rate,
    run_benchmark,
    sample_problem,
)
from .dag import ExprDag, compose, evaluate, solve_for, variable
from .depmeasure import (
    RankVectors,
    chatterjee_xi,
    codec,
    compute_ranks,
    kmac,
    volume_score,
)
from .errors import (
    DegenerateY,
    ExternalFailure,
    Inconclusive,
    NotSolvable,
    SrsubError,
    TooFewRows,
    Unsampleable,
    UnsupportedExpression,
    Unverifiable,
)
from .exprtext import parse, to_text
from .grammar import GrammarBudget, enumerate_dags
from .regress import (
    RegressorSpec,
    SolveResult,
    fit_dagsearch,
    fit_external,
    fit_poly,
    nrmse,
    solve_pipeline,
)
from .simplify import complexity, simplify, subexpressions
from .substitution import (
    Dataset,
    InputSub,
    OutInputSub,
    gen_input_candidates,
    gen_outinput_candidates,
    verify_input_sub,
    verify_outinput_sub,
)
from .symbolic import depends_on, equivalent

__version__ = "0.1.0"

__all__ = [
    "BeamConfig",
    "Dataset",
    "DegenerateY",
    "ExprDag",
    "ExternalFailure",
    "GrammarBudget",
    "Inconclusive",
    "InputSub",
    "NoiseLevel",
    "NotSolvable",
    "OutInputSub",
    "Problem",
    "RankVectors",
    "RegressorSpec",
    "Report",
    "SearchNode",
    "SearchResult",
    "SolveResult",
    "SrsubError",
    "TooFewRows",
    "Unsampleable",
    "UnsupportedExpression",
    "Unverifiable",
    "add_noise",
    "chatterjee_xi",
    "codec",
    "complexity",
    "compose",
    "compute_ranks",
    "depends_on",
    "enumerate_dags",
    "equivalent",
    "evaluate",
    "fit_dagsearch",
    "fit_external",
    "fit_poly",
    "gen_input_candidates",
    "gen_outinput_candidates",
    "jaccard",
    "kmac",
    "load_corpus",
    "nrmse",
    "parse",
    "recovery",
    "reconstruct",
    "reduction_rate",
    "run_benchmark",
    "sample_problem",
    "score_candidate",
    "search",
    "simplify",
    "solve_for",
    "solve_pipeline",
    "subexpressions",
    "to_text",
    "variable",
    "verify_input_sub",
    "verify_outinput_sub",
    "volume_score",
]
