"""Command-line surface: gen, gb, bench, microbench, verify.

Exit codes: 0 success, 2 input/parse errors, 3 cap or guard errors,
4 internal property violations.  All configuration is by long-form flags;
no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import (
    BenchReport,
    PipelineConfig,
    make_instance,
    microbench,
    run_pipeline,
    verify_instance,
)
from .errors import (
    DivisionError,
    FpgbError,
    LaneOverflowError,
    MissingKeyError,
    NonterminationError,
    PolyParseError,
    PreconditionError,
    ProbabilisticFailureError,
    PropertyViolationError,
    SizeCapError,
    UncoverableTargetError,
)
from .systems import format_system, parse_system

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_PROPERTY = 4


def _add_config_flags(sp, numeric: bool = True):
    if numeric:
        sp.add_argument("--numeric", choices=["psge", "wiedemann"], default="psge")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--max-steps", type=int, default=10_000)


def _add_family_flags(sp, required: bool):
    sp.add_argument("--family", choices=["cyclic", "katsura", "random"], required=required)
    sp.add_argument("--n", type=int, help="family size parameter")
    sp.add_argument("--m", type=int, help="polynomial count (random family)")
    sp.add_argument("--density", type=float, default=0.5, help="term density (random family)")
    sp.add_argument("--p", type=int, help="field characteristic")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fpgb", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark system file")
    _add_family_flags(g, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output path (default stdout)")
    g.set_defaults(input=None)  # gen always builds from a family

    b = sub.add_parser("gb", help="compute a reduced Groebner basis")
    b.add_argument("--input", help="system file path")
    _add_family_flags(b, required=False)
    _add_config_flags(b)
    b.add_argument("--basis-out", help="write the basis text here")
    b.add_argument("--report", help="write the run report here (flat form alongside)")

    be = sub.add_parser("bench", help="run the benchmark protocol on an instance")
    be.add_argument("--input", help="system file path")
    _add_family_flags(be, required=False)
    _add_config_flags(be)
    be.add_argument("--basis-out")
    be.add_argument("--report", help="report path; <path>.flat gets the key=value form")

    mb = sub.add_parser("microbench", help="time one isolated kernel")
    mb.add_argument(
        "--kind", choices=["dict_build", "row_assemble", "mod_fma", "numeric", "kernel"], required=True
    )
    mb.add_argument("--size", type=int, required=True)
    mb.add_argument("--duplicate-rate", type=float, default=0.5)
    mb.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("verify", help="run the invariant suites on an instance")
    v.add_argument("--input", help="system file path")
    _add_family_flags(v, required=False)
    # verify's own kernel checks solve every batch, so F4 runs psge there
    _add_config_flags(v, numeric=False)
    return ap


def _config_from_args(args) -> PipelineConfig:
    """The config from the flags the command has; the others keep their defaults."""
    names = [f.name for f in fields(PipelineConfig) if hasattr(args, f.name)]
    return PipelineConfig(**{name: getattr(args, name) for name in names})


def _load_instance(args):
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            ring, polys = parse_system(fh.read())
        desc = {
            "family": "file",
            "path": args.input,
            "p": ring.modulus.p,
            "order": ring.order,
            "seed": args.seed,
        }
        return ring, polys, desc
    if not args.family:
        raise PolyParseError("either --input or --family is required")
    params = {"p": args.p, "n": args.n, "seed": args.seed}
    if args.family == "random":
        params["m"] = args.m
        params["density"] = args.density
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise PolyParseError(f"missing flags for family {args.family}: {missing}")
    return make_instance(args.family, **params)


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report(report: BenchReport, path: str | None):
    if path:
        _emit(report.to_text(), path)
        _emit(report.to_flat_text(), path + ".flat")
    else:
        sys.stdout.write(report.to_text())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: a usage error exits 2, --help 0
        return exc.code
    try:
        if args.command == "gen":
            ring, polys, _ = _load_instance(args)
            _emit(format_system(ring, polys), args.out)
            return EXIT_OK

        if args.command in ("gb", "bench"):
            config = _config_from_args(args)
            ring, polys, desc = _load_instance(args)
            report, basis_text, _ = run_pipeline(ring, polys, config, desc)
            if args.command == "gb":
                _emit(basis_text, args.basis_out)
                if args.report:
                    _write_report(report, args.report)
            else:
                if args.basis_out:
                    _emit(basis_text, args.basis_out)
                _write_report(report, args.report)
            return EXIT_OK

        if args.command == "microbench":
            metrics = microbench(args.kind, args.size, args.duplicate_rate, args.seed)
            for k, v in metrics.items():
                sys.stdout.write(f"{k}={v}\n")
            return EXIT_OK

        if args.command == "verify":
            config = _config_from_args(args)
            ring, polys, desc = _load_instance(args)
            checks = verify_instance(ring, polys, config)
            failed = 0
            for name, ok, detail in checks:
                status = "PASS" if ok else "FAIL"
                suffix = f"  ({detail})" if detail and not ok else ""
                sys.stdout.write(f"{status} {name}{suffix}\n")
                failed += 0 if ok else 1
            if failed:
                sys.stdout.write(f"{failed} invariant check(s) FAILED\n")
                return EXIT_PROPERTY
            sys.stdout.write(f"all {len(checks)} invariant checks passed\n")
            return EXIT_OK
    except (PolyParseError, PreconditionError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (
        NonterminationError, SizeCapError, ProbabilisticFailureError, LaneOverflowError
    ) as exc:
        sys.stderr.write(f"guard: {exc}\n")
        return EXIT_GUARD
    except (
        PropertyViolationError, MissingKeyError, DivisionError, UncoverableTargetError
    ) as exc:
        sys.stderr.write(f"internal property violation: {exc}\n")
        return EXIT_PROPERTY
    except FpgbError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_PARSE
    except MemoryError as exc:
        sys.stderr.write(f"guard: out of memory: {exc!r}\n")
        return EXIT_GUARD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
