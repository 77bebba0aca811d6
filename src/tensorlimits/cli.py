"""Command line front end.

Subcommands: rootsys, measure, decompose, density, converge.  Weights are
comma-separated fundamental-weight coordinates; a tensor factor is written
as `coords:tau`, e.g. `1,0:1` or `2,1:1/2`.  Measures use the one variance
scale of measures.sigma_squared, and decompose uses Racah's formula.  Exit
codes: 0 success, 2 bad configuration, including a --cache-dir or --output
path that cannot be written (the diagnostic names the offending field), 3
computation cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import prod

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
    admissible_N,
    eta_extended_measure,
    eta_measure,
    factor_counts,
    measure_to_csv,
    measure_to_json,
    xi_measure,
)
from .repchar import (
    load_multiplicity_map,
    racah_decompose,
    save_multiplicity_map,
    tensor_power_table,
    weyl_dim,
)
from .rootsys import (
    CartanType,
    build_root_system,
    casimir_eigenvalue,
    rootsys_to_json,
    scaled_norm,
    weyl_group_order,
)

FORMATS = ("json", "csv")


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
def _os_errors(field: str):
    """Turn a file-system error inside the block into a BadField naming field."""
    try:
        yield
    except OSError as exc:
        raise BadField(field, str(exc))


@contextmanager
def _grid_flag(flag: str):
    """Name the flag that sized the density grid in a GridCapExceeded raised inside the block."""
    try:
        yield
    except GridCapExceeded as exc:
        raise GridCapExceeded(f"{flag}: {exc}") from None


def _int_list(value) -> tuple:
    """A JSON list of integers as a tuple; TypeError for anything else (a string, 4.9, true)."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(value)


@dataclass
class ExperimentConfig:
    cartan_type: str
    factors: tuple
    N_list: tuple
    format: str = "csv"
    cache_dir: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
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
        if not isinstance(doc["factors"], list):
            raise BadField("factors", f"must be a list, got {doc['factors']!r}")
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
        cache_dir = doc.get("cache_dir")
        if cache_dir is not None and not isinstance(cache_dir, str):
            raise BadField("cache_dir", f"must be a path string, got {cache_dir!r}")
        cfg = cls(
            cartan_type=str(doc["cartan_type"]),
            factors=tuple(factors),
            N_list=n_list,
            format=str(doc.get("format", "csv")),
            cache_dir=cache_dir,
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.format not in FORMATS:
            raise BadField("format", f"must be one of {FORMATS}")
        if not self.factors:
            raise BadField("factors", "at least one factor is required")
        if not self.N_list or any(n < 1 for n in self.N_list):
            raise BadField("N_list", "need a nonempty list of positive integers")


def _parse_type(text: str) -> CartanType:
    try:
        return CartanType.parse(text)
    except (UnsupportedType, ValueError) as exc:
        raise BadField("--type", str(exc))


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


def _build_spec(type_str: str, factors) -> TensorSpec:
    t = _parse_type(type_str)
    try:
        rs = build_root_system(t)
    except UnsupportedType as exc:
        raise BadField("--type", str(exc))
    try:
        return TensorSpec(rs, tuple(factors))
    except (NotDominant, DegenerateSpec, ValueError) as exc:
        raise BadField("--factor", str(exc))


def _check_admissible(spec: TensorSpec, n_values) -> None:
    for n in n_values:
        if not admissible_N(spec, n):
            raise BadField("--N", f"N = {n} makes some tau*N non-integral")


def _cache_dir(given: str | None) -> str | None:
    """given (--cache-dir, or a config file's cache_dir), else $LTL_CACHE_DIR; an empty value counts as unset."""
    return given or os.environ.get("LTL_CACHE_DIR") or None


def _cache_key(spec: TensorSpec, n: int) -> str:
    """Hash of the spec, N, the algorithm that wrote the entry and the file format."""
    factors = sorted(spec.factors)
    blob = f"{spec.rs.cartan_type}|{factors}|N={n}|miller|v3"
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_cached(spec: TensorSpec, n: int, path: str):
    """The cached map for N at path, or None if it is missing, unreadable or inconsistent.

    A map, W-invariant with positive multiplicities as loaded, is consistent when
    its type is the spec's, its total is prod_l dim(V_lam_l)^(n_l) with n_l = tau_l N,
    and sum_mu m(mu) |W mu| (mu, mu) over its dominant weights is total_dim rank
    sum_l n_l (lam_l, lam_l + 2 rho) / dim g (criterion 3 summed over a basis);
    (mu, mu) is scaled_norm(rs, mu) over s^2 b_g / 2, s the pairing scale.
    """
    try:
        m = load_multiplicity_map(path)
    except (OSError, ValueError, KeyError, TypeError, TensorLimitsError):
        return None
    rs, counts = spec.rs, factor_counts(spec, n)
    expected = prod(weyl_dim(rs, lam) ** k for lam, k in counts)
    if m.rs.cartan_type != rs.cartan_type or m.total_dim != expected:
        return None
    second = sum(c * size * scaled_norm(rs, mu) for (mu, c), size in zip(m.dominant.items(), m.sizes))
    casimirs = sum(k * casimir_eigenvalue(rs, lam) for lam, k in counts)
    if Fraction(2 * second, rs.pairing_scale**2 * rs.b_g) != expected * rs.rank * casimirs / rs.dim_g:
        return None
    return m


def _power_table(spec: TensorSpec, n_values, cache_dir: str | None) -> dict:
    """Multiplicity maps for each N, reading the cache if set and overwriting its misses."""
    if cache_dir is None:
        return tensor_power_table(spec.rs, spec.factors, n_values)
    with _os_errors("--cache-dir"):
        os.makedirs(cache_dir, exist_ok=True)
    paths = {n: os.path.join(cache_dir, f"ltl_{_cache_key(spec, n)}.json") for n in n_values}
    table = {}
    for n, path in paths.items():
        m = _load_cached(spec, n, path)
        if m is not None:
            table[n] = m
    missing = [n for n in n_values if n not in table]
    if missing:
        fresh = tensor_power_table(spec.rs, spec.factors, missing)
        for n in missing:
            table[n] = fresh[n]
            with _os_errors("--cache-dir"):
                save_multiplicity_map(fresh[n], paths[n])
    return table


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        with _os_errors("--output"), open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    spec = _build_spec(args.type, [_parse_factor(f) for f in args.factor])
    n_values = _parse_n_list(args.N)
    if len(n_values) != 1:
        raise BadField("--N", "measure takes exactly one tensor power")
    n = n_values[0]
    _check_admissible(spec, [n])
    table = _power_table(spec, [n], _cache_dir(args.cache_dir))
    builder = {"xi": xi_measure, "eta": eta_measure, "eta_extended": eta_extended_measure}[args.kind]
    measure = builder(spec, n, multiplicities=table[n])
    if args.format == "csv":
        _emit(measure_to_csv(measure), args)
    else:
        doc = measure_to_json(measure)
        doc["kind"] = args.kind
        doc["spec"] = spec.describe()
        _emit(_json_dumps(doc), args)
    return 0


def cmd_decompose(args) -> int:
    spec = _build_spec(args.type, [_parse_factor(f) for f in args.factor])
    n_values = _parse_n_list(args.N)
    if len(n_values) != 1:
        raise BadField("--N", "decompose takes exactly one tensor power")
    n = n_values[0]
    _check_admissible(spec, [n])
    table = _power_table(spec, [n], _cache_dir(args.cache_dir))
    result = racah_decompose(spec.rs, table[n])
    items = sorted(result.components.items())
    if args.format == "csv":
        rank = spec.rs.rank
        header = ",".join(f"weight_{i+1}" for i in range(rank)) + ",multiplicity"
        lines = [header]
        for w, c in items:
            lines.append(",".join(str(x) for x in w) + f",{c}")
        _emit("\n".join(lines) + "\n", args)
    else:
        doc = {
            "spec": spec.describe(),
            "N": n,
            "method": "racah",
            "components": [{"weight": list(w), "multiplicity": str(c)} for w, c in items],
            "total_dim": str(table[n].total_dim),
        }
        _emit(_json_dumps(doc), args)
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
    with _os_errors("--output"):
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
        with _grid_flag("--resolution"):
            doc["quadrature_mass"] = normalization_quadrature(model, args.resolution)
    if args.plot:
        base = args.output or f"density_{rs.cartan_type}_{args.kind}"
        _plot_files(model, base)
        doc["plot_files"] = [base + ".dat", base + ".gp"]
        sys.stdout.write(_json_dumps(doc))
    else:
        _emit(_json_dumps(doc), args)
    return 0


def cmd_converge(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        type_str = args.type or cfg.cartan_type
        factors = [_parse_factor(f) for f in args.factor] if args.factor else cfg.factors
        n_values = _parse_n_list(args.N) if args.N else cfg.N_list
        fmt = args.format or cfg.format
        cache_dir = _cache_dir(args.cache_dir or cfg.cache_dir)
        # a bad value read from the file is reported under its config key
        source = {
            flag: flag if given else key
            for flag, key, given in (
                ("--type", "cartan_type", args.type),
                ("--factor", "factors", args.factor),
                ("--N", "N_list", args.N),
            )
        }
    else:
        source = {}
        for name, value in (("--type", args.type), ("--factor", args.factor), ("--N", args.N)):
            if not value:
                raise BadField(name, "required unless --config is given")
        type_str = args.type
        factors = [_parse_factor(f) for f in args.factor]
        n_values = _parse_n_list(args.N)
        fmt = args.format or "csv"
        cache_dir = _cache_dir(args.cache_dir)
    try:
        spec = _build_spec(type_str, factors)
        check_simple(spec.rs)
        _check_admissible(spec, n_values)
    except BadField as exc:
        raise BadField(source.get(exc.field, exc.field), exc.message) from None
    except UnsupportedType as exc:  # _build_spec names --type itself; this is check_simple
        raise BadField(source.get("--type", "--type"), str(exc)) from None
    # the TV grid is checked (rank <= 3, points within the cap) before any table work
    with _grid_flag("--bins"):
        tv_grid(spec.rs.rank, args.bins)
    table = _power_table(spec, sorted(set(n_values)), cache_dir)
    report = convergence_report(spec, n_values, bins_per_axis=args.bins, table=table)
    if fmt == "csv":
        _emit(report_to_csv(report), args)
    else:
        _emit(_json_dumps(report_to_json(report)), args)
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

    p_meas = sub.add_parser("measure", help="exact weight measures of a tensor power")
    p_meas.add_argument("kind", choices=["xi", "eta", "eta_extended"])
    p_meas.add_argument("--type", required=True)
    p_meas.add_argument("--factor", action="append", required=True, metavar="COORDS:TAU")
    p_meas.add_argument("--N", required=True)
    p_meas.add_argument("--format", choices=FORMATS, default="csv")
    p_meas.add_argument("--cache-dir")
    p_meas.add_argument("--output")
    p_meas.set_defaults(handler=cmd_measure)

    p_dec = sub.add_parser("decompose", help="irreducible components of a tensor power")
    p_dec.add_argument("--type", required=True)
    p_dec.add_argument("--factor", action="append", required=True, metavar="COORDS:TAU")
    p_dec.add_argument("--N", required=True)
    p_dec.add_argument("--format", choices=FORMATS, default="csv")
    p_dec.add_argument("--cache-dir")
    p_dec.add_argument("--output")
    p_dec.set_defaults(handler=cmd_decompose)

    p_den = sub.add_parser("density", help="closed-form limit densities")
    p_den.add_argument("kind", choices=["xi", "eta", "eta_extended", "gue"])
    p_den.add_argument("--type", required=True)
    p_den.add_argument("--check-normalization", action="store_true")
    p_den.add_argument("--resolution", type=_positive_int)
    p_den.add_argument("--plot", action="store_true")
    p_den.add_argument("--output")
    p_den.set_defaults(handler=cmd_density)

    p_con = sub.add_parser("converge", help="convergence report across tensor powers")
    p_con.add_argument("--type")
    p_con.add_argument("--factor", action="append", metavar="COORDS:TAU")
    p_con.add_argument("--N", help="comma-separated list, e.g. 4,16,64")
    p_con.add_argument("--bins", type=_positive_int)
    p_con.add_argument("--format", choices=FORMATS)
    p_con.add_argument("--config", help="JSON experiment config; flags override")
    p_con.add_argument("--cache-dir")
    p_con.add_argument("--output")
    p_con.set_defaults(handler=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
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
