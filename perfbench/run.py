"""srsub benchmark: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reduce-feynman --seed 1 --seconds 14 --trace 0

With ``--trace 0`` the run times its own set-up, runs the workload's batch
on two workers at seeds derived from ``--seed`` until ``--seconds`` have
passed, samples set-up in two more fresh processes, and reports the
end-to-end metrics.  With ``--trace 1`` it runs the first of those batches
once on two workers and once on one worker untraced, then once on one worker
with every layer wrapped in spans, and reports the per-layer metrics.  Either
way the last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.
Every report is checked row by row and digested; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import N_SAMPLES, WORKERS, WORKLOADS, Batch, timed_setup

BENCH_DIR = Path(__file__).resolve().parent

OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
MAX_BATCHES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def source_root() -> Path:
    """The checkout's ``src`` directory; the benchmark builds nothing else."""
    src = Path.cwd() / "src"
    if not (src / "srsub" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'srsub'} not found; run from the root of an srsub checkout")
    return src


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "srsub").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def batch_seed(seed: int, k: int) -> int:
    """Seed of the run's k-th batch.  Batches of one run see different
    samples, so a run's median spans several inputs; no two runs share one."""
    return seed * MAX_BATCHES + k


def sample_setup(workload_name: str, src: Path, count: int) -> list[float]:
    """Set-up seconds of `count` fresh processes started together.

    They run side by side, one per core, as the batch's workers do; that
    keeps the time the extra samples cost to about one set-up.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(src)]
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) for _ in range(count)]
    out = []
    try:
        for proc in procs:
            stdout, _ = proc.communicate(timeout=150)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
            out.append(float(stdout.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return out


# -- output checks ---------------------------------------------------------------


def report_digest(report) -> str:
    """SHA-256 of the report content; wall times are left out."""
    rows = [{k: v for k, v in r.items() if k != "wall_time"} for r in report.rows]
    aggregates = {k: v for k, v in report.aggregates.items() if k != "wall_time"}
    blob = json.dumps({"rows": rows, "aggregates": aggregates, "traces": report.traces},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def row_errors(row: dict, fit_models: bool) -> list[str]:
    """Why one report row is not a correct result; empty when it is."""
    if row.get("status") != "ok":
        return [f"{row.get('id')}: status {row.get('status')} {row.get('error', '')}"]
    errors = []
    d = row["d"]
    kept = d * (1.0 - row["reduction_rate"])  # variables left by the best verified node
    if not (math.isclose(kept, round(kept), abs_tol=1e-9) and 1 <= round(kept) <= d):
        errors.append(f"{row['id']}: reduction_rate {row['reduction_rate']} impossible for d={d}")
    if not isinstance(row["best_path_valid"], bool):
        errors.append(f"{row['id']}: best_path_valid is not a bool")
    if fit_models:
        for arm in ("base", "beam"):
            if not isinstance(row[f"{arm}_recovered"], bool):
                errors.append(f"{row['id']}: {arm}_recovered is not a bool")
            nrmse = row[f"{arm}_nrmse"]
            if not (math.isfinite(nrmse) and nrmse >= 0):
                errors.append(f"{row['id']}: {arm}_nrmse {nrmse} is not a finite error")
    return errors


class DigestStore:
    """Report digests per source tree, workload and batch seed, across runs.

    Every batch at one seed on one source tree must produce the same report,
    whatever the worker count and whether tracing is on.
    """

    def __init__(self, path: Path, src_digest: str, workload: str) -> None:
        self.path = path
        self.prefix = f"{src_digest}/{workload}/"

    def check(self, digests: dict[int, str]) -> list[str]:
        """Record one digest per batch seed; errors where an earlier run disagrees."""
        try:
            known = json.loads(self.path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            known = {}
        errors = []
        for seed, digest in digests.items():
            previous = known.setdefault(f"{self.prefix}{seed}", digest)
            if previous != digest:
                errors.append(f"batch seed {seed}: report digest {digest[:12]} differs"
                              f" from an earlier run's {previous[:12]}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(self.path)
        return errors


def check_reports(reports: list[tuple[int, object]], fit_models: bool,
                  store: DigestStore) -> tuple[int, int, list[str]]:
    """Check (batch seed, report) pairs: (rows attempted, rows failed,
    errors that make the run incorrect)."""
    attempted = failed = 0
    errors: list[str] = []
    digests: dict[int, str] = {}
    for seed, report in reports:
        for row in report.rows:
            attempted += 1
            bad = row_errors(row, fit_models)
            if bad:
                failed += 1
                errors.extend(bad)
        digest = report_digest(report)
        if digests.setdefault(seed, digest) != digest:
            errors.append(f"batch seed {seed}: two reports of one run differ")
    errors.extend(store.check(digests))
    return attempted, failed, errors


def environment(args: argparse.Namespace, src_digest: str) -> dict:
    import multiprocessing

    import numpy
    import scipy
    import sympy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "n_samples": N_SAMPLES,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "source_digest": src_digest,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def ok_per_second(report, wall: float) -> float:
    return sum(r["status"] == "ok" for r in report.rows) / wall


def quality(report) -> dict[str, float]:
    agg = report.aggregates
    n = agg["n_problems"]
    return {
        "bench.reduction_rate": agg.get("reduction_rate", 0.0),
        "bench.best_path_valid_frac": agg.get("best_path_valid", 0.0),
        "bench.base_recovered_frac": agg.get("base_recovered", 0.0),
        "bench.beam_recovered_frac": agg.get("beam_recovered", 0.0),
        "bench.failed_frac": (n - agg["n_ok"]) / n,
    }


# -- the two kinds of run ----------------------------------------------------------


def timed_run(args: argparse.Namespace, src: Path, store: DigestStore) -> tuple[dict, dict]:
    batch, own_setup = timed_setup(WORKLOADS[args.workload])
    reports, walls = [], []
    start = time.perf_counter()
    while len(reports) < MAX_BATCHES:
        seed = batch_seed(args.seed, len(reports))
        t0 = time.perf_counter()
        report = batch.run(seed, WORKERS)
        walls.append(time.perf_counter() - t0)
        reports.append((seed, report))
        if time.perf_counter() - start >= args.seconds:
            break
    rss = peak_rss_mb()
    setups = [own_setup] + sample_setup(args.workload, src, SETUP_SAMPLES - 1)

    attempted, failed, errors = check_reports(reports, batch.workload.fit_models, store)
    metrics = {
        "setup_s": statistics.median(setups),
        "problems_per_s": statistics.median(ok_per_second(r, w) for (_, r), w in zip(reports, walls)),
        "peak_rss_mb": rss,
    }
    info = {
        "batches": len(reports),
        "batch_wall_s": walls,
        "setup_samples_s": setups,
        "batch_seeds": [seed for seed, _ in reports],
        "digests": [report_digest(r) for _, r in reports],
        "quality": quality(reports[0][1]),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, info


def traced_run(args: argparse.Namespace, store: DigestStore) -> tuple[dict, dict]:
    import srsub  # noqa: F401
    from tracer import CHECK_SPANS, REJECT_REASONS, SCORE_SPANS, Tracer

    setup = Tracer()
    setup.install()
    batch = Batch(WORKLOADS[args.workload])
    batch.fill_caches()
    setup.uninstall()

    seed = batch_seed(args.seed, 0)
    t0 = time.perf_counter()
    two = batch.run(seed, WORKERS)
    wall_two = time.perf_counter() - t0
    t0 = time.perf_counter()
    one = batch.run(seed, 1)
    wall_one = time.perf_counter() - t0

    run = Tracer()
    run.install()
    try:
        t0 = time.perf_counter()
        traced = batch.run(seed, 1)
        wall_traced = time.perf_counter() - t0
    finally:
        run.uninstall()
    run.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    attempted, failed, errors = check_reports(
        [(seed, two), (seed, one), (seed, traced)], batch.workload.fit_models, store)
    candidates = run.counter("beamsearch.candidates")
    accepted = run.counter("beamsearch.accepted")
    rejects = {r: run.counter(f"beamsearch.reject.{r}") for r in REJECT_REASONS}
    unexplained = run.counter("beamsearch.reject.unexplained")
    if candidates != accepted + sum(rejects.values()) or unexplained:
        errors.append(f"candidates {candidates} != accepted {accepted} + rejects {rejects}"
                      f" ({unexplained} rejections without a reason)")
    if run.n_calls("substitution.apply") != candidates:
        errors.append(f"{run.n_calls('substitution.apply')} applies for {candidates} candidates")

    nn_calls = run.n_calls("depmeasure.nn")
    pps_one = ok_per_second(one, wall_one)
    pps_traced = ok_per_second(traced, wall_traced)
    metrics: dict[str, tuple[float, str]] = {
        "bench.sample_s": (run.seconds("bench.sample"), "s"),
        "bench.chain_verify_s": (run.seconds("bench.chain_verify"), "s"),
        "bench.recovery_check_s": (run.seconds("bench.recovery_check"), "s"),
        "bench.worker_busy_frac": (sum(r["wall_time"] for r in two.rows) / (WORKERS * wall_two), "ratio"),
        "beamsearch.search_s": (run.seconds("beamsearch.search"), "s"),
        "beamsearch.candidates": (candidates, "count"),
        "beamsearch.accepted_frac": (accepted / candidates if candidates else 0.0, "ratio"),
        **{f"beamsearch.reject.{r}": (n, "count") for r, n in rejects.items()},
        "beamsearch.reconstruct_s": (run.seconds("beamsearch.reconstruct"), "s"),
        "substitution.apply_calls": (run.n_calls("substitution.apply"), "count"),
        "substitution.apply_s": (run.seconds("substitution.apply"), "s"),
        "dag.compose_s": (run.seconds("dag.compose"), "s"),
        "substitution.checks_s": (run.seconds(*CHECK_SPANS), "s"),
        "substitution.enum_cold_s": (setup.seconds("substitution.enum"), "s"),
        "depmeasure.score_s": (run.seconds(*SCORE_SPANS), "s"),
        "depmeasure.nn_calls": (nn_calls, "count"),
        "depmeasure.nn_s": (run.seconds("depmeasure.nn"), "s"),
        "depmeasure.ranks_s": (run.seconds("depmeasure.ranks"), "s"),
        "depmeasure.nn_repeat_frac": (
            run.counter("depmeasure.nn_repeat") / nn_calls if nn_calls else 0.0, "ratio"),
        "depmeasure.volume_s": (run.seconds("depmeasure.volume"), "s"),
        "regress.solve_pipeline_s": (run.seconds("regress.solve_pipeline"), "s"),
        "regress.fit_calls": (run.n_calls("regress.fit"), "count"),
        "regress.fit_s": (run.seconds("regress.fit"), "s"),
        "regress.evaluate_calls": (run.n_calls("regress.evaluate"), "count"),
        "regress.evaluate_s": (run.seconds("regress.evaluate"), "s"),
        "regress.refine_s": (run.seconds("regress.refine"), "s"),
        "regress.skeleton_enum_cold_s": (setup.seconds("regress.skeleton_enum"), "s"),
        "symbolic.equivalent_s": (run.seconds("symbolic.equivalent"), "s"),
        **{f"{layer}.self_s": (run.layer_self_s(layer), "s")
           for layer in ("bench", "beamsearch", "substitution", "dag", "depmeasure",
                         "regress", "symbolic")},
        **{k: (v, "ratio") for k, v in quality(traced).items()},
        "trace.problems_per_s_untraced": (pps_one, "1/s"),
        "trace.problems_per_s_traced": (pps_traced, "1/s"),
        "trace.overhead_problems_per_s": (pps_one - pps_traced, "1/s"),
        "trace.spans": (run.n_spans, "count"),
    }
    info = {
        "batch_wall_s": {"workers2": wall_two, "workers1": wall_one, "traced": wall_traced},
        "batch_seed": seed,
        "digests": [report_digest(r) for r in (two, one, traced)],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = source_root()
    sys.path.insert(0, str(src))
    src_digest = source_digest(src)
    store = DigestStore(OUT_DIR / "digests.json", src_digest, args.workload)

    if args.trace:
        metrics, info = traced_run(args, store)
    else:
        metrics, info = timed_run(args, src, store)
    env = environment(args, src_digest)
    correct = not info["errors"]
    result = {
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "info": info, **result}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=repr))
    for err in info["errors"][:20]:
        print(f"# error: {err}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# info " + json.dumps({k: v for k, v in info.items() if k != "errors"}, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
