"""Command-line surface: generate, find, bench, audit, oracle.

Exit codes are a stable contract: 0 success/PASS, 1 internal error,
2 validation or parameter failure, 3 budget/resource refusal.  All output
files are deterministic for a given seed; wall-clock times appear only in
console summaries and in the benchmark CSV's runtime_ms column.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache, partial
from statistics import median

from . import algebra, engine, geometry
from .errors import BudgetError, ParameterError, ValidationError, require_budget
from .hypergraph import DEFAULT_BUDGET, GroundSet, validate_lambda

POINT_COLOURINGS = ("circumradius", "volume", "similarity")
INTEGER_COLOURINGS = ("sidon", "poly")
ALGORITHMS = ("greedy", "sample-delete", "exact")
BENCH_CSV_HEADER = "N,k,h,lambda,colouring,algorithm,trial,seed,rainbow_size,runtime_ms"


def _dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(out: str, payload: dict) -> None:
    _write(out + ".manifest.json", _dump_json(payload))


def _read_file(path: str, parse):
    """``parse`` of the JSON in ``path``; a bad or malformed body is a ParameterError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ParameterError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def _load_instance(path: str):
    def parse(obj):
        kind = obj.get("type")
        if kind == "points":
            return geometry.points_from_obj(obj)
        if kind == "integers":
            return algebra.integers_from_obj(obj)
        raise ParameterError(f"unknown instance type {kind!r}")

    return _read_file(path, parse)


def _load_poly(path: str | None) -> algebra.SymPoly:
    if path is None:
        raise ParameterError("the poly colouring needs --poly <file>")
    return _read_file(path, algebra.sympoly_from_obj)


def _setup_colouring(instance, name: str, poly_path: str | None, budget: int):
    """The named colouring of ``instance`` and each vertex's label, as the instance file writes it."""
    if name in POINT_COLOURINGS:
        if not isinstance(instance, geometry.PointInstance):
            raise ParameterError(f"colouring {name} needs a points instance")
        factory = {
            "circumradius": geometry.circumradius_colouring,
            "volume": geometry.volume_colouring,
            "similarity": geometry.similarity_colouring,
        }[name]
        return factory(instance, budget=budget), geometry.points_to_obj(instance)["coords"]

    if not isinstance(instance, algebra.IntegerInstance):
        raise ParameterError(f"the {name} colouring needs an integers instance")
    if name == "sidon":
        return algebra.sidon_colouring(instance), algebra.integers_to_obj(instance)["values"]
    prepared = algebra.poly_prepare(_load_poly(poly_path), instance.values)
    if not prepared.kept:
        raise ValidationError("no usable values left after polynomial preparation")
    return algebra.poly_colouring(prepared), [str(v) for v in prepared.kept]


def _cmd_generate(args) -> int:
    if args.kind == "points":
        inst = geometry.generate_general_position(
            args.n, args.d, args.seed, coord_bound=args.coord_bound
        )
        obj = geometry.points_to_obj(inst)
        params = {"n": args.n, "d": args.d, "seed": args.seed,
                  "coord_bound": args.coord_bound}
    elif args.kind == "integers-range":
        inst = algebra.IntegerInstance(values=tuple(range(1, args.n + 1)))
        obj = algebra.integers_to_obj(inst)
        params = {"n": args.n}
    else:
        import random

        if args.n < 1:
            raise ParameterError("need at least one value")
        max_value = args.max_value if args.max_value is not None else 100 * args.n
        if max_value < args.n:
            raise ParameterError(f"--max-value {max_value} cannot fit {args.n} distinct values")
        rng = random.Random(args.seed)
        values = tuple(sorted(rng.sample(range(1, max_value + 1), args.n)))
        inst = algebra.IntegerInstance(values=values)
        obj = algebra.integers_to_obj(inst)
        params = {"n": args.n, "max_value": max_value, "seed": args.seed}
    _write(args.out, _dump_json(obj))
    _write_manifest(args.out, {"command": "generate", "kind": args.kind,
                               "params": params, "out": args.out})
    print(f"wrote {args.out} ({args.kind}, n={args.n})")
    return 0


def _result_obj(result: engine.RainbowResult, labels: list) -> dict:
    return {
        "subset": [labels[v] for v in result.subset],
        "size": result.size,
        "algorithm": result.algorithm,
        "seed": result.seed,
        "verified": result.verified,
        "stats": result.stats,
    }


def _result_csv(result: engine.RainbowResult, labels: list) -> str:
    flat = []
    for v in result.subset:
        label = labels[v]
        flat.append("(" + " ".join(f"{n}/{d}" for n, d in label) + ")"
                    if isinstance(label, list) else label)
    rows = ["size,algorithm,seed,verified,subset"]
    seed = "" if result.seed is None else result.seed
    rows.append(f"{result.size},{result.algorithm},{seed},{result.verified},"
                f"\"{' '.join(flat)}\"")
    return "\n".join(rows) + "\n"


def _cmd_find(args) -> int:
    algorithm = args.algorithm.replace("-", "_")
    if args.p is not None and algorithm != "sample_delete":
        raise ParameterError(f"--p is sample-delete's keep-probability; "
                             f"{args.algorithm} reads none")
    if args.limit is not None and algorithm != "exact":
        raise ParameterError(f"--limit caps the exact oracle; {args.algorithm} reads none")
    instance = _load_instance(args.instance)
    colouring, labels = _setup_colouring(instance, args.colouring, args.poly, args.budget)
    if algorithm == "exact" and args.limit is not None:
        require_budget(len(labels), args.limit, "search",
                       f"the exact oracle for k={colouring.spec.k}", "vertices")
    result = engine.run_algorithm(colouring, GroundSet(len(labels)), algorithm, args.seed,
                                  p=args.p, budget=args.budget)
    text = (_result_csv(result, labels) if args.format == "csv"
            else _dump_json(_result_obj(result, labels)))
    if args.out:
        _write(args.out, text)
        _write_manifest(args.out, {
            "command": "find", "instance": args.instance, "colouring": args.colouring,
            "poly": args.poly, "algorithm": algorithm, "seed": args.seed, "p": args.p,
            "limit": args.limit, "budget": args.budget, "format": args.format, "out": args.out,
        })
    else:
        sys.stdout.write(text)
    print(
        f"rainbow size={result.size} algorithm={result.algorithm} "
        f"seed={result.seed} verified={result.verified} "
        f"runtime_ms={result.runtime_ms:.1f}",
        file=sys.stderr,
    )
    return 0 if result.verified else 1


def _cmd_audit(args) -> int:
    instance = _load_instance(args.instance)
    colouring, labels = _setup_colouring(instance, args.colouring, args.poly, args.budget)
    ok, report = validate_lambda(colouring, GroundSet(len(labels)), budget=args.budget)
    obj = {
        "colouring": colouring.label,
        "declared_max_petals": colouring.spec.max_petals,
        "petals": report.petals,
        "core": [labels[v] for v in report.core],
        "colour": report.colour.decode("ascii", errors="backslashreplace"),
        "witnesses": [[labels[v] for v in e] for e in report.witness_edges],
        "pass": ok,
    }
    if args.out:
        _write(args.out, _dump_json(obj))
    print(f"colouring={obj['colouring']} declared_max_petals={obj['declared_max_petals']} "
          f"petals={report.petals}")
    print(f"core={obj['core']} colour={obj['colour']}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def _bench_instance(name: str, n: int, args, instance_seed: int):
    if name in POINT_COLOURINGS:
        inst = geometry.generate_general_position(n, args.d, instance_seed)
        return _setup_colouring(inst, name, None, args.budget)
    inst = algebra.IntegerInstance(values=tuple(range(1, n + 1)))
    return _setup_colouring(inst, name, args.poly, args.budget)


def _cmd_bench(args) -> int:
    try:
        grid = sorted({int(part) for part in args.grid.split(",") if part})
    except ValueError as exc:  # int() names the entry it could not read
        raise ParameterError(f"--grid takes integers: {exc}") from None
    if len(grid) < 4:
        raise ParameterError(f"need at least 4 grid points for the exponent fit, got {len(grid)}")
    if grid[0] < 1:
        raise ParameterError(f"--grid sizes must be at least 1, got {grid[0]}")
    algorithms = [a.replace("-", "_") for a in args.algorithms.split(",") if a]
    if not algorithms:
        raise ParameterError(f"--algorithms {args.algorithms!r} names no algorithm")
    for a in algorithms:
        if a.replace("_", "-") not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {a!r}")
    if args.trials < 3:
        raise ParameterError("need at least 3 trials per grid point for the fit")

    rows = [BENCH_CSV_HEADER]
    # per algorithm, each N (the ground size after any preparation) to its trials' sizes
    sizes: dict[str, dict[int, list[int]]] = {algorithm: {} for algorithm in algorithms}
    for index, n in enumerate(grid):
        colouring, labels = _bench_instance(args.colouring, n, args,
                                            engine.derive_seed(args.seed, 1_000_000 + index))
        ground, spec = GroundSet(len(labels)), colouring.spec
        for algorithm in algorithms:
            result = None
            for trial in range(args.trials):
                seed = engine.derive_seed(args.seed, trial)
                if result is None or result.seed is not None:  # a seedless answer never varies
                    result = engine.run_algorithm(colouring, ground, algorithm, seed,
                                                  budget=args.budget)
                rows.append(f"{ground.n},{spec.k},{spec.h},{spec.max_petals},{colouring.label},"
                            f"{algorithm},{trial},{seed},{result.size},{result.runtime_ms:.3f}")
                print(f"N={ground.n} algorithm={algorithm} trial={trial} "
                      f"size={result.size} runtime_ms={result.runtime_ms:.1f}", file=sys.stderr)
                sizes[algorithm].setdefault(ground.n, []).append(result.size)

    _write(args.out, "\n".join(rows) + "\n")
    predicted = (spec.k - spec.h) / (2 * spec.k - 1)  # the grid is never empty

    fits = {}
    medians = {}
    passed = True
    for algorithm, by_n in sizes.items():
        med = medians[algorithm] = {str(n): median(by_n[n]) for n in sorted(by_n)}
        try:
            fit = engine.estimate_exponent(by_n)
        except ParameterError as exc:  # say, an algorithm whose answers at one N are all empty
            fits[algorithm], passed = None, False
            print(f"algorithm={algorithm} no fit: {exc}")
            continue
        fits[algorithm] = {"slope": fit.slope, "stderr": fit.stderr, "intercept": fit.intercept}
        print(f"algorithm={algorithm} slope={fit.slope:.4f} predicted={predicted:.4f}")
        slope_ok = args.slope_min <= fit.slope <= args.slope_max
        floor_ok = all(med[str(n)] >= args.median_coeff * n ** predicted for n in by_n)
        passed = passed and slope_ok and floor_ok

    report = {
        "colouring": args.colouring,
        "algorithms": algorithms,
        "grid": grid,
        "trials": args.trials,
        "master_seed": args.seed,
        "predicted_slope": predicted,
        "fits": fits,
        "medians": medians,
        "thresholds": {"slope_min": args.slope_min, "slope_max": args.slope_max,
                       "median_coeff": args.median_coeff},
        "pass": passed,
    }
    report_path = args.report or (args.out + ".report.json")
    _write(report_path, _dump_json(report))
    print("PASS" if passed else "FAIL")
    return 0 if passed else 2


def build_parser() -> argparse.ArgumentParser:
    def count(text: str) -> int:
        # a negative budget or limit is a bad parameter (exit 2), not a refusal (exit 3)
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
        return value

    def finite(text: str) -> float:
        # the report would hold NaN or Infinity, which JSON has no word for
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        return value

    # no parser expands an abbreviation: else --p would pass as --poly, and
    # bench's --algorithm as --algorithms
    parser = argparse.ArgumentParser(
        prog="rainbowsets",
        description="Find large rainbow subsets of edge-coloured complete hypergraphs.",
        allow_abbrev=False,
    )
    add_parser = partial(parser.add_subparsers(dest="command", required=True).add_parser,
                         allow_abbrev=False)

    gen = add_parser("generate", help="write an instance file plus its manifest")
    gen.add_argument("kind", choices=("points", "integers-range", "integers-random"))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, default=2, help="dimension for points")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--coord-bound", type=int, default=None)
    gen.add_argument("--max-value", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    def add_common(p, finds: bool):
        p.add_argument("--instance", required=True)
        p.add_argument("--colouring", required=True,
                       choices=POINT_COLOURINGS + INTEGER_COLOURINGS)
        p.add_argument("--poly", default=None, help="sympoly JSON for the poly colouring")
        p.add_argument("--budget", type=count, default=DEFAULT_BUDGET)
        p.add_argument("--out", default=None)
        if finds:
            p.add_argument("--limit", type=count, default=None,
                           help="optional vertex cap for the exact oracle")
            p.add_argument("--format", choices=("json", "csv"), default="json")

    find = add_parser("find", help="extract a verified rainbow subset")
    add_common(find, finds=True)
    find.add_argument("--algorithm", choices=ALGORITHMS, default="greedy")
    find.add_argument("--seed", type=int, default=0)
    find.add_argument("--p", type=float, default=None, help="sample-delete's keep-probability")
    find.set_defaults(func=_cmd_find)

    oracle = add_parser("oracle", help="find with the exact branch-and-bound oracle")
    add_common(oracle, finds=True)
    oracle.set_defaults(func=_cmd_find, algorithm="exact", seed=None, p=None)

    audit = add_parser("audit", help="report the worst monochromatic sunflower")
    add_common(audit, finds=False)
    audit.set_defaults(func=_cmd_audit)

    bench = add_parser("bench", help="seeded trials over a grid of ground sizes")
    bench.add_argument("--colouring", required=True,
                       choices=POINT_COLOURINGS + INTEGER_COLOURINGS)
    bench.add_argument("--poly", default=None)
    bench.add_argument("--grid", required=True, help="comma-separated ground sizes")
    bench.add_argument("--algorithms", default="greedy", help="comma-separated algorithms")
    bench.add_argument("--trials", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--d", type=int, default=2)
    bench.add_argument("--budget", type=count, default=DEFAULT_BUDGET)
    bench.add_argument("--out", required=True, help="CSV path; report lands beside it")
    bench.add_argument("--report", default=None)
    bench.add_argument("--slope-min", type=finite, default=0.28)
    bench.add_argument("--slope-max", type=finite, default=0.40)
    bench.add_argument("--median-coeff", type=finite, default=0.8)
    bench.set_defaults(func=_cmd_bench)

    return parser


_parser = cache(build_parser)  # built once per process; parsing leaves it unchanged


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - contract maps unknowns to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
