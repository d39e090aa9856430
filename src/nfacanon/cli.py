"""Command-line interface.

Subcommands: ``generate``, ``canonize``, ``sweep``, ``summarize``.
Exit codes: 0 success, 2 bad input (a parse error, an invalid option value
or a file that cannot be read or written), 3 timeout, 4 registry contract
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bench, io
from .engine import PIPELINES, CanonConfig
from .generator import GenParams, generate, instance_meta
from .registry import RegistryContractError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TIMEOUT = 3
EXIT_CONTRACT = 4


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (io.ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except RegistryContractError as e:
        print(f"error: registry contract violation: {e}", file=sys.stderr)
        return EXIT_CONTRACT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nfacanon")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a modular random NFA")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--density", type=_positive_float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("canonize", help="canonize an NFA file")
    p.add_argument("input", help="NFA file path ('-' for stdin)")
    p.add_argument(
        "--pipeline",
        choices=PIPELINES,
        default="sc",
    )
    p.add_argument("--timeout-ms", type=_positive_float, default=None)
    p.add_argument("--threshold-init", type=_positive_int, default=5000)
    p.add_argument("--complete", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--emit-dfa", metavar="PATH", help="write the canonical DFA here")
    p.set_defaults(func=_cmd_canonize)

    p = sub.add_parser("sweep", help="run a benchmark sweep over generated NFAs")
    p.add_argument(
        "--n-values",
        type=_n_values,
        default="20:300:10",
        help="'start:stop:step' or comma list",
    )
    p.add_argument("--seeds-per-n", type=_positive_int, default=10)
    p.add_argument("--density", type=_positive_float, default=2.0)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument(
        "--pipelines",
        type=_pipelines,
        default=",".join(PIPELINES),
        help="comma-separated pipeline names",
    )
    p.add_argument("--timeout-ms", type=_positive_float, default=None)
    p.add_argument("--threshold-init", type=_positive_int, default=5000)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("summarize", help="summarize a sweep CSV")
    p.add_argument("csv", help="CSV produced by 'sweep'")
    p.add_argument("--json", metavar="PATH", help="also write the summary as JSON")
    p.set_defaults(func=_cmd_summarize)

    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and greater than 0: {value}")
    return value


def _n_values(spec: str) -> list[int]:
    if ":" not in spec:
        values = [_positive_int(x) for x in spec.split(",") if x]
    else:
        fields = [int(x) for x in spec.split(":")]
        if len(fields) > 3:
            raise argparse.ArgumentTypeError(f"a range has at most three fields: {spec}")
        start, stop, step = (fields + [1])[:3]
        if start < 1 or step < 1:
            raise argparse.ArgumentTypeError(f"start and step must be at least 1: {spec}")
        values = list(range(start, stop + 1, step))
    if not values:
        raise argparse.ArgumentTypeError(f"names no value of n: {spec}")
    if len(set(values)) < len(values):
        # each would canonize the same instances and write their rows again
        raise argparse.ArgumentTypeError(f"names a value of n twice: {spec}")
    return values


def _pipelines(spec: str) -> list[str]:
    names = [p.strip() for p in spec.split(",") if p.strip()]
    if not names or any(p not in PIPELINES for p in names):
        raise argparse.ArgumentTypeError(f"choose from {','.join(PIPELINES)}: {spec}")
    if len(set(names)) < len(names):
        # each would write its own rows, which summarize pools
        raise argparse.ArgumentTypeError(f"names a pipeline twice: {spec}")
    return names


def _cmd_generate(args) -> int:
    params = GenParams(n=args.n, density=args.density, seed=args.seed)
    text = io.serialize_nfa(generate(params), instance_meta(params))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _cmd_canonize(args) -> int:
    nfa, meta = io.parse_nfa(_read_input(args.input))
    config = CanonConfig(
        pipeline=args.pipeline,
        threshold_init=args.threshold_init,
        complete_output=args.complete,
        timeout_ms=args.timeout_ms,
    )
    instance_id = meta.get("instance", args.input)
    row, dfa = bench.run_once(nfa, instance_id, config)
    print(json.dumps(row.to_json_dict()))
    if row.timed_out:
        return EXIT_TIMEOUT
    if args.emit_dfa and dfa is not None:
        with open(args.emit_dfa, "w") as f:
            f.write(io.serialize_dfa(dfa, {"pipeline": args.pipeline}))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    bench.run_sweep(
        n_values=args.n_values,
        seeds_per_n=args.seeds_per_n,
        density=args.density,
        pipelines=args.pipelines,
        timeout_ms=args.timeout_ms,
        out_csv=args.out,
        base_seed=args.base_seed,
        threshold_init=args.threshold_init,
    )
    print(f"wrote {args.out} and {bench.cactus_path(args.out)}")
    return EXIT_OK


def _cmd_summarize(args) -> int:
    rows = bench.read_csv(args.csv)
    if not rows:
        print("warning: empty CSV, empty summary", file=sys.stderr)
    summary = bench.summarize(rows)
    print(bench.format_summary(summary))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
