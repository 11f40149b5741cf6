"""Command-line front end.

Subcommands: reduce (write reduced datasets plus trace), solve (end-to-end
expression search), bench (corpus benchmark), verify (check a substitution
against a known formula), sample (draw data from a formula).  Every command
is deterministic under --seed; stdout is machine-parsable (one JSON record
per line).  Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .beamsearch import BeamConfig, search, substitution_text, trace_records
from .bench import (
    NoiseLevel,
    Problem,
    add_noise,
    load_corpus,
    run_benchmark,
    sample_problem,
)
from .errors import SrsubError
from .exprtext import parse, to_text
from .grammar import GrammarBudget
from .regress import RegressorSpec, holdout_mask, solve_pipeline, write_csv
from .simplify import complexity
from .substitution import Dataset, InputSub, OutInputSub, verify_substitution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _add_search(p: argparse.ArgumentParser) -> None:
    """The flags of reduce, solve and bench: seed, noise and the search."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure", choices=["xi", "codec", "kmac", "volume"], default="codec")
    p.add_argument("--beam-size", type=int, default=1)
    p.add_argument("--sub-types", choices=["input", "outinput", "both"], default="both")
    p.add_argument("--max-intermediary", type=int, default=1)
    p.add_argument("--grammar", choices=["dag", "aifeynman"], default="dag")
    p.add_argument("--noise", type=float, default=0.0)


def _add_fit(p: argparse.ArgumentParser) -> None:
    """The flags of solve and bench: the regressor and its test rows."""
    p.add_argument("--regressor", default="poly",
                   help="poly | dagsearch | external:<command with {csv}>")
    p.add_argument("--holdout", type=float, default=0.2)


def _beam_config(args: argparse.Namespace) -> BeamConfig:
    sub_types = {"input", "outinput"} if args.sub_types == "both" else {args.sub_types}
    return BeamConfig(
        beam_size=args.beam_size,
        measure=args.measure,
        budget=GrammarBudget(max_intermediary_nodes=args.max_intermediary),
        sub_types=frozenset(sub_types),
        grammar=args.grammar,
    )


class _UsageError(Exception):
    pass


def _regressor_spec(args: argparse.Namespace) -> RegressorSpec:
    text = args.regressor
    if text.startswith("external:"):
        return RegressorSpec(kind="external", command=text[len("external:"):])
    if text == "poly":
        return RegressorSpec(kind="poly")
    if text == "dagsearch":
        return RegressorSpec(kind="dagsearch")
    raise _UsageError(f"unknown regressor {text!r}")


def _read_csv(path: str) -> Dataset:
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
    except OSError as exc:
        raise _DataError(f"cannot read {path}: {exc}")
    d = len(header) - 1
    if d < 1 or header[-1] != "y" or header[:-1] != [f"x{i + 1}" for i in range(d)]:
        raise _DataError(f"{path}: header must be x1,...,xd,y")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise _DataError(f"{path}: {exc}")
    if data.shape[1] != d + 1:
        raise _DataError(f"{path}: inconsistent column count")
    return Dataset.from_arrays(data[:, :d], data[:, -1])


class _DataError(Exception):
    pass


def _emit(record: dict) -> None:
    print(json.dumps(record, default=float))


def cmd_reduce(args: argparse.Namespace) -> int:
    ds = _read_csv(args.csv)
    cfg = _beam_config(args)
    if args.noise > 0:
        ds = Dataset.from_arrays(ds.X, add_noise(ds.y, args.noise, args.seed))
    result = search(ds, cfg)
    out = Path(args.out or "reduce_out")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.jsonl", "w") as fh:
        for rec in trace_records(result):
            fh.write(json.dumps(rec) + "\n")
    for i, node in enumerate(result.best_path):
        nds = node.dataset
        write_csv(out / f"node_{i}.csv", nds.X, nds.y)
        names = {nds.d_original: "y"}
        with open(out / f"node_{i}.maps.txt", "w") as fh:
            for j, vm in enumerate(nds.var_map):
                fh.write(f"x{j + 1} = {to_text(vm)}\n")
            fh.write(f"y_new = {to_text(nds.y_map, var_names=names)}\n")
            if node.edge is not None:
                fh.write(f"edge: {substitution_text(node.edge)}\n")
    _emit({
        "command": "reduce",
        "nodes": len(result.best_path),
        "final_vars": result.best.n_vars,
        "best_score": result.best.score.value,
        "out": str(out),
    })
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    ds = _read_csv(args.csv)
    cfg = _beam_config(args)
    spec = _regressor_spec(args)
    if args.noise > 0:
        ds = Dataset.from_arrays(ds.X, add_noise(ds.y, args.noise, args.seed))
    mask = holdout_mask(ds.n, args.holdout, args.seed)
    result = search(ds.restrict_rows(~mask), cfg)
    sol = solve_pipeline(result, spec, ds.restrict_rows(mask))
    _emit({
        "command": "solve",
        "expression": to_text(sol.expr),
        "nrmse_test": sol.nrmse_test,
        "complexity": sol.complexity,
        "depth": sol.source_node_depth,
    })
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    problems = load_corpus(args.corpus)
    cfg = _beam_config(args)
    spec = _regressor_spec(args)
    report = run_benchmark(
        problems, cfg, spec, NoiseLevel(args.noise), seed=args.seed,
        n_samples=args.n, holdout_fraction=args.holdout,
        fit_models=not args.rates_only, workers=max(1, args.threads),
    )
    out = Path(args.out or "report.csv")
    report.to_csv(out)
    with open(out.with_suffix(".trace.jsonl"), "w") as fh:
        for rec in report.traces:
            fh.write(json.dumps(rec) + "\n")
    if args.plot_data:
        _emit({
            "noise_level": args.noise,
            "mean_reduction_rate": report.aggregates.get("reduction_rate"),
            "measure": args.measure,
        })
    _emit({"command": "bench", "out": str(out), **report.aggregates})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    formula = parse(args.formula)
    indices = tuple(int(t) - 1 for t in args.indices.split(","))
    if any(i < 0 for i in indices):
        raise _DataError("indices are 1-based")
    if args.type == "input":
        g = parse(args.sub, arity=len(indices))
        sub = InputSub(g=g, I=indices)
    else:
        h = parse(args.sub, arity=len(indices) + 1,
                  var_names={"y": len(indices)})
        sub = OutInputSub(h=h, I=indices)
    valid = verify_substitution(formula, sub)
    _emit({"command": "verify", "valid": bool(valid)})
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    f = parse(args.formula)
    d = max(f.arity, 1)
    problem = Problem(id="cli", d=d, f_true=f if f.arity == d else parse(args.formula, arity=d))
    ds = sample_problem(problem, args.n, args.seed)
    y = add_noise(ds.y, args.noise, args.seed + 1)
    out = args.out or "sample.csv"
    write_csv(out, ds.X, y)
    _emit({"command": "sample", "rows": ds.n, "out": out})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srsub",
        description="Dimension reduction for symbolic regression via substitution search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="search substitutions and write reduced datasets")
    p.add_argument("csv")
    _add_search(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("solve", help="reduce, fit a regressor, reconstruct an expression")
    p.add_argument("csv")
    _add_search(p)
    _add_fit(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bench", help="run the benchmark harness over a corpus")
    p.add_argument("corpus", help="path or bundled name (feynman-desk, eponymous-desk)")
    _add_search(p)
    _add_fit(p)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None)
    p.add_argument("--n", type=int, default=1000, help="sample size per problem")
    p.add_argument("--rates-only", action="store_true",
                   help="skip regressor fits; report reduction rates only")
    p.add_argument("--plot-data", action="store_true",
                   help="emit (noise_level, mean_reduction_rate, measure) for plotting")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="verify a substitution against a known formula")
    p.add_argument("formula")
    p.add_argument("--sub", required=True, help="candidate expression; use y for the output")
    p.add_argument("--indices", required=True, help="1-based column indices, e.g. 1,2")
    p.add_argument("--type", choices=["input", "outinput"], default="input")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sample", help="sample observations from a formula")
    p.add_argument("formula")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_DataError, SrsubError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
