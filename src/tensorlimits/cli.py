"""Command line front end.

Subcommands: rootsys, measure, decompose, density, converge.  Weights are
comma-separated fundamental-weight coordinates; a tensor factor is written
as `coords:tau`, e.g. `1,0:1` or `2,1:1/2`.  Measures use the one variance
scale of measures.sigma_squared, and decompose uses Racah's formula.
measure, decompose and converge read their spec by one intake (_spec_and_n);
converge's --config file fills in for the flags not given.  Exit
codes: 0 success, 2 bad configuration, including a --cache-dir or --output
path that cannot be written (the diagnostic names the offending field), 3
computation cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from fractions import Fraction

import numpy as np

from .convergence import check_simple, convergence_report, report_to_csv, report_to_json, tv_grid
from .densities import density_box, make_density_model, normalization_quadrature
from .errors import (
    DegenerateSpec,
    GridCapExceeded,
    InadmissibleN,
    NotDominant,
    RankTooLarge,
    TableCapExceeded,
    TensorLimitsError,
    UnsupportedType,
    WeylCapExceeded,
)
from .measures import (
    TensorSpec,
    _csv_blocks,
    _decomposition_of,
    _measure_csv_blocks,
    admissible_N,
    eta_extended_measure,
    eta_measure,
    factor_counts,
    measure_to_json,
    sigma_squared,
    xi_measure,
)
from .repchar import (
    cache_key,
    check_decomposition,
    load_decomposition,
    load_multiplicity_map,
    racah_decompose,
    save_multiplicity_map,
    tensor_power_table,
)
from .rootsys import (
    CartanType,
    build_root_system,
    rootsys_to_json,
    weyl_group_order,
)

FORMATS = ("json", "csv")
# the key of a config file that fills in for each tensor option not given on the command line
CONFIG_KEYS = {"--type": "cartan_type", "--factor": "factors", "--N": "N_list", "--format": "format", "--cache-dir": "cache_dir"}


def _positive_int(text: str) -> int:
    """argparse type for counts: a positive integer, or a usage error naming the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


class BadField(Exception):
    """Configuration problem tied to one named field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


@contextmanager
def _field_errors(field: str, *errors):
    """Turn an error of one of the kinds errors inside the block into a BadField naming field."""
    try:
        yield
    except errors as exc:
        raise BadField(field, str(exc))


def _int_list(value) -> tuple:
    """A JSON list of integers as a tuple; TypeError for anything else (a string, 4.9, true)."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(value)


def _parse_type(text: str) -> CartanType:
    with _field_errors("--type", UnsupportedType, ValueError):
        return CartanType.parse(text)


def _parse_factor(text: str):
    head, sep, tail = text.partition(":")
    if not sep:
        raise BadField("--factor", f"{text!r} is missing ':tau' (expected coords:tau)")
    try:
        coords = tuple(int(x) for x in head.split(","))
        tau = Fraction(tail)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadField("--factor", f"cannot parse {text!r}: {exc}")
    return coords, tau


def _parse_n_list(text: str):
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise BadField("--N", f"cannot parse {text!r}: {exc}")
    if any(n < 1 for n in values):
        raise BadField("--N", "tensor powers must be positive")
    return values


def _read_config(path: str) -> dict:
    """A JSON config file's values by the flag each fills in for, as that flag's parser gives them:
    the type as text, the factors as (coords, tau) pairs, N as a tuple, the format ("csv" when
    absent) and the cache directory (None when absent).  Every value is checked, also one that a
    flag will override; BadField names the key of a bad value, or --config for a file that is not
    a JSON object.  Other keys are ignored."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BadField("--config", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise BadField("--config", f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise BadField("--config", f"{path} must hold a JSON object, got {type(doc).__name__}")
    for key in ("cartan_type", "factors", "N_list"):
        if key not in doc:
            raise BadField(key, "missing from config file")
    if doc.get("sigma_convention", "consistent") != "consistent":
        raise BadField("sigma_convention", "the only variance scale is 'consistent'")
    if not isinstance(doc["factors"], list) or not doc["factors"]:
        raise BadField("factors", f"must be a nonempty list, got {doc['factors']!r}")
    factors = []
    for item in doc["factors"]:
        try:
            factors.append((_int_list(item["weight"]), Fraction(str(item["tau"]))))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise BadField("factors", f"bad entry {item!r}: {exc}")
    try:
        n_list = _int_list(doc["N_list"])
    except TypeError as exc:
        raise BadField("N_list", str(exc))
    if not n_list or any(n < 1 for n in n_list):
        raise BadField("N_list", "need a nonempty list of positive integers")
    fmt, cache_dir = doc.get("format", "csv"), doc.get("cache_dir")
    if fmt not in FORMATS:
        raise BadField("format", f"must be one of {FORMATS}")
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise BadField("cache_dir", f"must be a path string, got {cache_dir!r}")
    return {"--type": str(doc["cartan_type"]), "--factor": factors, "--N": n_list, "--format": fmt, "--cache-dir": cache_dir}


@contextmanager
def _filled_from_config(args):
    """Give each tensor option not on the command line its value from the --config file, if one is
    given, and report a BadField raised in the block for an option so filled under its config key."""
    filled = {}
    if args.config:
        for flag, value in _read_config(args.config).items():
            dest = flag[2:].replace("-", "_")  # argparse's dest for the flag
            if not getattr(args, dest):  # an empty flag counts as not given
                setattr(args, dest, value)
                filled[flag] = CONFIG_KEYS[flag]
    try:
        yield
    except BadField as exc:
        raise BadField(filled.get(exc.field, exc.field), exc.message) from None


def _build_spec(type_str: str, factors) -> TensorSpec:
    with _field_errors("--type", UnsupportedType):
        rs = build_root_system(_parse_type(type_str))
    with _field_errors("--factor", NotDominant, ValueError):
        return TensorSpec(rs, tuple(factors))


def _spec_and_n(args) -> tuple[TensorSpec, tuple]:
    """The spec of --type and --factor and the tensor powers of --N, each admissible; BadField
    naming the flag that is missing or bad."""
    for flag, value in (("--type", args.type), ("--factor", args.factor), ("--N", args.N)):
        if not value:
            raise BadField(flag, "required")
    spec = _build_spec(args.type, args.factor)
    for n in args.N:
        if not admissible_N(spec, n):
            raise BadField("--N", f"N = {n} makes some tau*N non-integral")
    return spec, args.N


def _cache_dir(given: str | None) -> str | None:
    """given (--cache-dir, or a config file's cache_dir), else $LTL_CACHE_DIR; an empty value counts as unset."""
    return given or os.environ.get("LTL_CACHE_DIR") or None


def _load_cached(spec: TensorSpec, n: int, path: str, whole: bool):
    """The cached entry for N at path, with whole its map, else its decomposition alone, or None if it is
    missing, unreadable or not V_N's.  Each read checks what it reads (load_decomposition the
    decomposition section, load_multiplicity_map the whole file and the table against its
    decomposition), and the decomposition is then checked against the spec (check_decomposition; of
    another type, racah_decompose refuses a loaded map)."""
    try:
        factors = factor_counts(spec, n)
        if not whole:
            return load_decomposition(path, spec.rs, factors)
        m = load_multiplicity_map(path)
        check_decomposition(spec.rs, racah_decompose(spec.rs, m), m.total_dim, factors)
        return m
    except (OSError, ValueError, TensorLimitsError):
        return None


def _power_table(spec: TensorSpec, n_values, cache_dir: str | None, whole: bool = False) -> dict:
    """For each N, V_N's map, or a cache hit's decomposition alone unless whole; the cache is read if
    set and its misses are overwritten."""
    if cache_dir is None:
        return tensor_power_table(spec.rs, spec.factors, n_values)
    with _field_errors("--cache-dir", OSError):
        os.makedirs(cache_dir, exist_ok=True)
    paths = {n: os.path.join(cache_dir, f"ltl_{cache_key(spec.rs.cartan_type, spec.factors, n)}.bin") for n in n_values}
    table = {}
    for n, path in paths.items():
        entry = _load_cached(spec, n, path, whole)
        if entry is not None:
            table[n] = entry
    missing = [n for n in n_values if n not in table]
    if missing:
        fresh = tensor_power_table(spec.rs, spec.factors, missing)
        for n in missing:
            table[n] = fresh[n]
            with _field_errors("--cache-dir", OSError):
                save_multiplicity_map(fresh[n], paths[n])
    return table


def _emit(text, args) -> None:
    """Write text, one str or an iterable of str blocks, to --output or stdout, a block at a time."""
    blocks = [text] if isinstance(text, str) else text
    if getattr(args, "output", None):
        with _field_errors("--output", OSError), open(args.output, "w") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_rootsys(args) -> int:
    t = _parse_type(args.type)
    rs = build_root_system(t)
    doc = rootsys_to_json(rs)
    doc["weyl_order"] = weyl_group_order(t)
    _emit(_json_dumps(doc), args)
    return 0


def cmd_measure(args) -> int:
    spec, n_values = _spec_and_n(args)
    if len(n_values) != 1:
        raise BadField("--N", "measure takes exactly one tensor power")
    with _field_errors("--factor", DegenerateSpec):  # sigma^2 = 0: no scale for the measures
        sigma_squared(spec)
    (n,) = n_values
    table = _power_table(spec, [n], _cache_dir(args.cache_dir), whole=args.kind == "xi")
    builder = {"xi": xi_measure, "eta": eta_measure, "eta_extended": eta_extended_measure}[args.kind]
    measure = builder(spec, n, multiplicities=table[n])
    if args.format == "json":
        doc = measure_to_json(measure)
        doc["kind"] = args.kind
        doc["spec"] = spec.describe()
        _emit(_json_dumps(doc), args)
    else:
        _emit(_measure_csv_blocks(measure), args)
    return 0


def cmd_decompose(args) -> int:
    spec, n_values = _spec_and_n(args)
    if len(n_values) != 1:
        raise BadField("--N", "decompose takes exactly one tensor power")
    (n,) = n_values
    result, dim = _decomposition_of(spec, n, _power_table(spec, [n], _cache_dir(args.cache_dir))[n])
    if args.format == "json":
        doc = {
            "spec": spec.describe(),
            "N": n,
            "method": "racah",
            "components": [{"weight": w, "multiplicity": str(c)} for w, c in zip(result.rows.tolist(), result.counts)],
            "total_dim": str(dim),
        }
        _emit(_json_dumps(doc), args)
    else:
        header = ",".join(f"weight_{i+1}" for i in range(spec.rs.rank)) + ",multiplicity"
        _emit(_csv_blocks(header, result.rows, (",%d\n" % c for c in result.counts)), args)
    return 0


def _plot_files(model, base: str) -> None:
    rs = model.rs
    rank = rs.rank
    if rank > 2:
        raise BadField("--plot", "plotting supports rank <= 2 only")
    lo, hi = density_box(model, 6.0)
    if rank == 1:
        xs = np.linspace(lo[0], hi[0], 401)
        vals = model.values([xs])
        dat = "\n".join(f"{x:.12g} {v:.12g}" for x, v in zip(xs, vals)) + "\n"
        script = (
            f'set title "{rs.cartan_type} {model.kind} limit density"\n'
            'set xlabel "x"\nset ylabel "density"\n'
            f'plot "{base}.dat" using 1:2 with lines notitle\n'
        )
    else:
        axes = [np.linspace(a, b, 101) for a, b in zip(lo, hi)]
        vals = model.values(np.ix_(*axes))
        rows = []
        for x, row in zip(axes[0], vals):
            for y, v in zip(axes[1], row):
                rows.append(f"{x:.12g} {y:.12g} {v:.12g}")
            rows.append("")
        dat = "\n".join(rows) + "\n"
        script = (
            f'set title "{rs.cartan_type} {model.kind} limit density"\n'
            "set pm3d map\nset size ratio -1\n"
            f'splot "{base}.dat" using 1:2:3 notitle\n'
        )
    with _field_errors("--output", OSError):
        with open(base + ".dat", "w") as fh:
            fh.write(dat)
        with open(base + ".gp", "w") as fh:
            fh.write(script)


def cmd_density(args) -> int:
    t = _parse_type(args.type)
    rs = build_root_system(t)
    try:
        model = make_density_model(rs, args.kind)
    except UnsupportedType as exc:
        raise BadField("--kind", str(exc))
    doc = {
        "cartan_type": str(rs.cartan_type),
        "kind": args.kind,
        "rank": rs.rank,
        "norm_const": model.norm_const,
    }
    if args.check_normalization:
        try:
            doc["quadrature_mass"] = normalization_quadrature(model, args.resolution)
        except GridCapExceeded as exc:  # name the flag that sized the grid
            raise GridCapExceeded(f"--resolution: {exc}") from None
    if args.plot:
        base = args.output or f"density_{rs.cartan_type}_{args.kind}"
        _plot_files(model, base)
        doc["plot_files"] = [base + ".dat", base + ".gp"]
        sys.stdout.write(_json_dumps(doc))
    else:
        _emit(_json_dumps(doc), args)
    return 0


def cmd_converge(args) -> int:
    # a bad value the config file gave, the cache directory's too, is named by its key
    with _filled_from_config(args):
        spec, n_values = _spec_and_n(args)
        with _field_errors("--type", UnsupportedType):
            check_simple(spec.rs)
        with _field_errors("--factor", DegenerateSpec):  # sigma^2 = 0: no scale for the limits
            sigma_squared(spec)
        tv_grid(spec.rs.rank)  # RankTooLarge above rank 3, before any table work
        table = _power_table(spec, sorted(set(n_values)), _cache_dir(args.cache_dir))
    report = convergence_report(spec, n_values, table=table)
    if args.format == "json":
        _emit(_json_dumps(report_to_json(report)), args)
    else:
        _emit(report_to_csv(report), args)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ltl argument parser, built once per process and shared by every main call."""
    parser = argparse.ArgumentParser(
        prog="ltl", description="Exact tensor-power weight measures and their limits."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_root = sub.add_parser("rootsys", help="root system data")
    p_root.add_argument("action", choices=["info"])
    p_root.add_argument("--type", required=True, help="Cartan type, e.g. A2, B3, G2")
    p_root.add_argument("--output")
    p_root.set_defaults(handler=cmd_rootsys)

    # the tensor options of measure, decompose and converge; the parsers of --factor and --N raise
    # BadField, which argparse lets through (it catches only ValueError, TypeError and
    # ArgumentTypeError), so a bad value exits 2 naming its flag as every other bad field does
    tensor = argparse.ArgumentParser(add_help=False)
    tensor.add_argument("--type", help="Cartan type, e.g. A2, B3, G2")
    tensor.add_argument("--factor", action="append", type=_parse_factor, metavar="COORDS:TAU")
    tensor.add_argument("--N", type=_parse_n_list, help="tensor power; for converge a comma-separated list, e.g. 4,16,64")
    tensor.add_argument("--format", choices=FORMATS, help="default csv")
    tensor.add_argument("--cache-dir")
    tensor.add_argument("--output")

    p_meas = sub.add_parser("measure", parents=[tensor], help="exact weight measures of a tensor power")
    p_meas.add_argument("kind", choices=["xi", "eta", "eta_extended"])
    p_meas.set_defaults(handler=cmd_measure)

    p_dec = sub.add_parser("decompose", parents=[tensor], help="irreducible components of a tensor power")
    p_dec.set_defaults(handler=cmd_decompose)

    p_den = sub.add_parser("density", help="closed-form limit densities")
    p_den.add_argument("kind", choices=["xi", "eta", "eta_extended", "gue"])
    p_den.add_argument("--type", required=True)
    p_den.add_argument("--check-normalization", action="store_true")
    p_den.add_argument("--resolution", type=_positive_int)
    p_den.add_argument("--plot", action="store_true")
    p_den.add_argument("--output")
    p_den.set_defaults(handler=cmd_density)

    p_con = sub.add_parser("converge", parents=[tensor], help="convergence report across tensor powers")
    p_con.add_argument("--config", help="JSON experiment config; each flag overrides its key")
    p_con.set_defaults(handler=cmd_converge)

    return parser


def _joined_factors(argv: list) -> list:
    """argv with each `--factor VALUE` whose value starts with '-' and a digit joined as
    `--factor=VALUE`: argparse takes such a value for an option (it is no number), so `--factor
    -1,0:1` would stop at a usage error instead of reaching the check that names the weight."""
    out = []
    for arg in argv:
        if out and out[-1] == "--factor" and arg[1:2].isdigit() and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts pass 4,300 digits; 3.10.0-3.10.6 lack the limit
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(_joined_factors(sys.argv[1:] if argv is None else list(argv)))
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BadField as exc:
        print(f"error: {exc.field}: {exc.message}", file=sys.stderr)
        return 2
    except (InadmissibleN, NotDominant, DegenerateSpec, UnsupportedType) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WeylCapExceeded, RankTooLarge, GridCapExceeded, TableCapExceeded) as exc:
        print(f"error: computation cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
