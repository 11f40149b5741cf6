"""Workload definitions and the set-up every run of a workload pays.

A workload's batch is one closed `srsub.run_benchmark` call over a fixed
problem list, with the per-problem seeds that call derives from its seed.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

N_SAMPLES = 1000
HOLDOUT_FRACTION = 0.2
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str
    problem_ids: tuple[str, ...]
    measure: str
    gamma: float
    regressor: str
    fit_models: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reduce-feynman",
            corpus="feynman-desk",
            problem_ids=("fey-05", "fey-06", "fey-08", "fey-10", "fey-09", "fey-11"),
            measure="codec",
            gamma=0.0,
            regressor="poly",
            fit_models=False,
        ),
        Workload(
            name="reduce-noisy-volume",
            corpus="eponymous-desk",
            problem_ids=("epo-gravity", "epo-debroglie", "epo-kepler", "epo-beer", "epo-hooke",
                         "epo-snell", "epo-einstein"),
            measure="volume",
            gamma=0.1,
            regressor="poly",
            fit_models=False,
        ),
        Workload(
            name="solve-dagsearch",
            corpus="eponymous-desk",
            problem_ids=("epo-gravity", "epo-debroglie"),
            measure="codec",
            gamma=0.0,
            regressor="dagsearch",
            fit_models=True,
        ),
    )
}


class Batch:
    """The srsub objects one workload's `run_benchmark` call takes."""

    def __init__(self, workload: Workload) -> None:
        import srsub

        by_id = {p.id: p for p in srsub.load_corpus(workload.corpus)}
        missing = [pid for pid in workload.problem_ids if pid not in by_id]
        if missing:
            raise ValueError(f"{workload.corpus} has no problems {missing}")
        self.workload = workload
        self.problems = [by_id[pid] for pid in workload.problem_ids]
        self.cfg = srsub.BeamConfig(measure=workload.measure)
        self.spec = srsub.RegressorSpec(kind=workload.regressor)
        self.noise = srsub.NoiseLevel(workload.gamma)

    def run(self, seed: int, workers: int):
        import srsub

        return srsub.run_benchmark(
            self.problems, self.cfg, self.spec, self.noise, seed,
            n_samples=N_SAMPLES, holdout_fraction=HOLDOUT_FRACTION,
            fit_models=self.workload.fit_models, workers=workers,
        )

    def fill_caches(self) -> None:
        """Fill every process-level enumeration cache the batch reads.

        Search reads the candidate dags of input substitutions over 2 and 3
        columns and of out-input substitutions over 1 and 2 inputs, as far as
        the widest problem allows; the dagsearch regressor reads one skeleton
        list per arity it fits, which is every arity up to the widest problem.
        Filling them here keeps that cost in set-up, and forked workers
        inherit the filled caches.
        """
        from srsub import regress, substitution
        from srsub.grammar import GrammarBudget

        d_max = max(p.d for p in self.problems)
        budget = self.cfg.budget
        sizes = (1, 2) if budget.max_intermediary_nodes >= 1 else (1,)
        for size in sizes:
            if size + 1 <= d_max:
                substitution.input_candidate_dags(size + 1, budget)
            if size < d_max:
                substitution.outinput_candidate_dags(size, budget)
        if self.workload.fit_models and self.spec.kind == "dagsearch":
            # the budget `regress.fit` builds for dagsearch
            skeleton_budget = GrammarBudget(
                max_intermediary_nodes=self.spec.max_intermediary_nodes, allow_constants=True
            )
            for arity in range(1, d_max + 1):
                regress._skeletons(arity, skeleton_budget, self.spec.max_skeletons)


def timed_setup(workload: Workload) -> tuple[Batch, float]:
    """Import srsub, build the batch and fill its caches; (batch, seconds).

    Call it first thing in a fresh process, before anything imports numpy,
    so the seconds include every import srsub pays for.
    """
    t0 = time.perf_counter()
    import srsub  # noqa: F401

    batch = Batch(workload)
    batch.fill_caches()
    return batch, time.perf_counter() - t0
