"""Command-line entry point: gen, solve, peel, threshold, certify, experiment, plot.

Exit codes: 0 success, 1 domain error (reported as one line on stderr),
2 usage error.  `certify` exits 0 only when the certificate verifies.
Every subcommand prints its resolved configuration to stderr before
executing.
"""

from __future__ import annotations

import argparse
import json
import sys

from xorsatlab import __version__
from xorsatlab.errors import XorsatLabError
from xorsatlab.experiments import _KINDS, ExperimentConfig, run_experiment
from xorsatlab.formulas import threshold_report
from xorsatlab.gf2 import BitMatrix, solve
from xorsatlab.instances import (
    _MODELS,
    MODEL_CONSTRAINED,
    MODEL_UNCONSTRAINED,
    Instance,
    gen_constrained,
    gen_unconstrained,
)
from xorsatlab.peel import extend_solution, two_core
from xorsatlab.rng import Seed
from xorsatlab.svg import plot_hk, plot_sweep


def _echo_config(args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    print(f"config: {json.dumps(resolved, sort_keys=True, default=str)}", file=sys.stderr)


def _load_instance(path: str) -> Instance:
    if path.endswith(".bin"):
        with open(path, "rb") as fh:
            return Instance.from_bytes(fh.read())
    with open(path) as fh:
        return Instance.loads(fh.read())


def _save_instance(inst: Instance, path: str | None) -> None:
    if path is None:
        print(inst.dumps())
    elif path.endswith(".bin"):
        with open(path, "wb") as fh:
            fh.write(inst.to_bytes())
    else:
        with open(path, "w") as fh:
            fh.write(inst.dumps())


def _cmd_gen(args) -> int:
    m = round(args.c * args.n) if args.m is None else args.m  # argparse takes exactly one of --m and --c
    gen = gen_constrained if args.model == MODEL_CONSTRAINED else gen_unconstrained  # argparse restricts --model
    inst = gen(args.k, m, args.n, Seed(args.seed, args.stream))
    _save_instance(inst, args.out)
    return 0


def _cmd_solve(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    res = solve(BitMatrix.from_sparse_rows(inst.n, inst.index), inst.bits)
    out = {
        "consistent": res.consistent,
        "rank": res.rank,
        "solution_count_log2": res.solution_count_log2,
    }
    if args.solution and res.one_solution is not None:
        out["one_solution"] = res.one_solution.tolist()
        if (inst.lhs(res.one_solution) != inst.bits).any():
            raise XorsatLabError("internal check failed: solution does not satisfy the system")
    print(json.dumps(out))
    return 0


def _cmd_peel(args) -> int:
    inst = _load_instance(getattr(args, "in"))
    core, trace = two_core(inst)
    out = {"core_vars": core.n, "core_eqs": core.m, "ratio": core.m / core.n if core.n else None}
    if args.solve:
        res = solve(BitMatrix.from_sparse_rows(core.n, core.index), core.bits)
        out["consistent"] = res.consistent
        if res.consistent:
            extend_solution(res.one_solution, trace, inst)  # checks every equation of `inst`
            out["solution_checked"] = True
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace.dumps(inst))
    print(json.dumps(out))
    return 0


def _cmd_threshold(args) -> int:
    print(json.dumps(threshold_report(args.k, args.c)))
    return 0


def _cmd_certify(args) -> int:
    from xorsatlab.certify import certify_claim

    cert = certify_claim(args.claim, args.k, args.target, args.c_range and tuple(args.c_range))
    line = {
        "claim": cert.claim_id,
        "k": cert.k,
        "verified": cert.verified,
        "cells": len(cert.cells),
        "global_bound": cert.global_bound,
    }
    print(json.dumps(line))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(cert.dumps())
    return 0 if cert.verified else 1


def _cmd_experiment(args) -> int:
    payload = {}
    if args.config:
        with open(args.config) as fh:
            payload = json.load(fh)
    if isinstance(payload, dict):  # the config reader refuses anything else
        # explicit flags override file values; each flag's dest is its config field
        given = {name: v for name in ExperimentConfig.__dataclass_fields__ if (v := getattr(args, name)) is not None}
        payload = {"master_seed": 0, **payload, **given}
    aggregates, _, summary = run_experiment(ExperimentConfig.from_json_dict(payload))
    print(json.dumps({"aggregates": aggregates, "csv_sha256": summary["csv_sha256"]}))
    return 0


def _cmd_plot_sweep(args) -> int:
    plot_sweep(args.csv, args.out, x=args.x, y=args.y, series=args.series)
    print(json.dumps({"svg": args.out}))
    return 0


def _cmd_plot_hk(args) -> int:
    plot_hk(args.out, k=args.k, c_values=args.c_list)
    print(json.dumps({"svg": args.out}))
    return 0


def _csv_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorsatlab",
        description="Random k-XORSAT lab: samplers, GF(2) solving, 2-core peeling, "
        "threshold formulas, interval certificates, Monte Carlo campaigns.",
    )
    parser.add_argument("--version", action="version", version=f"xorsatlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a random instance and write it (JSON or .bin)")
    p.add_argument("--model", default=MODEL_UNCONSTRAINED, choices=_MODELS)
    p.add_argument("--k", type=int, required=True, help="variables per equation")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--m", type=int, help="number of equations")
    size.add_argument("--c", type=float, help="density m/n, so m = round(c * n)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--stream", type=int, default=0, help="sub-stream index")
    p.add_argument("--out", help="output path; .bin selects the binary format; default stdout JSON")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="GF(2)-solve an instance file")
    p.add_argument("--in", required=True, help="instance path (JSON or .bin)")
    p.add_argument("--solution", action="store_true", help="include one solution (verified) in the output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("peel", help="peel an instance to its 2-core")
    p.add_argument("--in", required=True, help="instance path (JSON or .bin)")
    p.add_argument("--solve", action="store_true", help="solve the core and lift the solution back")
    p.add_argument("--trace-out", help="write the peel trace as JSON")
    p.set_defaults(func=_cmd_peel)

    p = sub.add_parser("threshold", help="print threshold constants (lambda, gamma, c_hat, c_star, core sizes)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, default=1.0, help="density m/n (default 1.0)")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("certify", help="interval-arithmetic negativity certificates; exit 0 iff verified")
    p.add_argument("--claim", required=True, choices=["amed", "k3grid", "alarge", "monotone"])
    p.add_argument("--k", type=int, help="k for the amed claim (default 4)")
    p.add_argument("--target", type=float, help="override the negativity target (amed, k3grid)")
    p.add_argument("--c-range", type=float, nargs=2, metavar=("LO", "HI"), help="k3grid density range")
    p.add_argument("--out", help="write the certificate JSON here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("experiment", help="run a Monte Carlo campaign (CSV + JSON summary)")
    p.add_argument("--config", help="JSON config path; explicit flags override file values")
    p.add_argument("--kind", choices=list(_KINDS))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, dest="master_seed", metavar="SEED", help="master seed")
    p.add_argument("--model", choices=_MODELS)
    p.add_argument("--c-grid", type=_csv_floats, dest="c_grid", help="comma-separated densities")
    p.add_argument("--m-list", type=_csv_ints, dest="m_list", help="comma-separated equation counts")
    p.add_argument("--w-list", type=_csv_ints, dest="w_list", help="comma-separated window widths")
    p.add_argument("--workers", type=int, help="worker processes (default 1)")
    p.add_argument("--out", help="CSV output path (summary goes to <out>.summary.json)")
    p.set_defaults(func=_cmd_experiment)

    charts = sub.add_parser("plot", help="render an SVG chart").add_subparsers(dest="chart", required=True)
    p = charts.add_parser("sweep", help="mean of one campaign CSV column against another, one line per series")
    p.add_argument("--csv", required=True, help="input campaign CSV")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--x", default="c", help="x column (default c)")
    p.add_argument("--y", default="sat", help="y column (default sat)")
    p.add_argument("--series", default="n", help="series column (default n)")
    p.set_defaults(func=_cmd_plot_sweep)

    p = charts.add_parser("hk", help="the rate function H_k against alpha, one line per density")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c-list", type=_csv_floats, dest="c_list", required=True, help="comma-separated densities")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot_hk)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (XorsatLabError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an instance file can declare an n far beyond what its data needs
        print(f"error: instance too large for memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
