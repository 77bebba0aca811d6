"""The benchmark's workloads: generated inputs, one timed pass, checks on its outputs.

Each workload drives the package the way a user would, single threaded, as a
closed loop: the next pass starts when the previous one has finished.  The
seed only picks between inputs that cost the same (a highest weight or its
dual) and draws the direction t of the exact second-moment check; the package
sees nothing but the generated inputs.  Package functions are looked up on
their modules at call time, so a traced pass sees the tracing wrappers.

After every pass, outside the timed region, `verify` checks the exact
identities the outputs must satisfy and compares them with the stored
reference (see make_reference.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tensorlimits as tl
from tensorlimits import cli, repchar

# Compared floats are O(1) sums and differences of O(1) terms, so 1e-12
# relative to max(1, |reference|) (about 4500 ulp at 1.0) admits reordered
# sums and documented last-digit shifts while catching any real change.
FLOAT_REL_TOL = 1e-12


class Checks:
    """Counts checks attempted and failed; keeps the first detail of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.setdefault(name, detail)

    def expect_equal(self, name: str, got, want) -> None:
        self.check(name, got == want, f"got {got!r}, want {want!r}")


@dataclass
class CliCall:
    rc: int | None
    out: str
    err: str


def call_cli(argv, tracer=None, cache_dir=None, lookups=0) -> CliCall:
    """Run `ltl <argv>` in this process, capturing its output.

    When traced, counts cache hits and misses from the cache files present
    before and after the call (`lookups` is the number of distinct N the call
    asks the cache for), and the bytes printed.
    """
    before = _cache_files(cache_dir) if tracer is not None else None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed call, reported by verify
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    call = CliCall(rc, out.getvalue(), err.getvalue())
    if tracer is not None:
        misses = len(_cache_files(cache_dir) - before)
        tracer.add("cli.cache_misses", misses)
        tracer.add("cli.cache_hits", lookups - misses)
        tracer.add("cli.out_bytes", len(call.out.encode()))
    return call


def _cache_files(cache_dir) -> set:
    if cache_dir is None or not os.path.isdir(cache_dir):
        return set()
    return set(os.listdir(cache_dir))


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def draw_t(rng, rank: int) -> tuple:
    """A nonzero rational direction in simple-root coordinates."""
    while True:
        t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rank))
        if any(t):
            return t


def coords(weight) -> str:
    return ",".join(str(x) for x in weight)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def atoms_digest(atoms) -> str:
    return digest("".join(f"{coords(w)}:{p.numerator}/{p.denominator}\n" for w, p in atoms))


def components_digest(components: dict) -> str:
    return digest("".join(f"{coords(w)}:{c}\n" for w, c in sorted(components.items())))


def parse_measure_csv(text: str) -> tuple:
    """Atoms of a `ltl measure` CSV: weight coordinates, numerator, denominator."""
    rows = text.strip().split("\n")[1:]
    atoms = []
    for row in rows:
        cells = [int(x) for x in row.split(",")]
        atoms.append((tuple(cells[:-2]), Fraction(cells[-2], cells[-1])))
    return tuple(atoms)


def flatten(doc, prefix: str = "") -> dict:
    """JSON document as {path: scalar}."""
    if isinstance(doc, dict):
        items = sorted(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return {prefix: doc}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}/{key}" if prefix else str(key)))
    return out


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= FLOAT_REL_TOL * max(1.0, abs(want))
    return got == want


def tt(rs, t) -> Fraction:
    """(t, t) for t in simple-root coordinates."""
    return sum(t[i] * rs.Cbar[i][j] * t[j] for i in range(rs.rank) for j in range(rs.rank))


def second_moment(rs, weighted, norm, scale_sq, t) -> Fraction:
    """sum_w c_w (t, w)^2 / (norm * scale_sq) for (weight, c) pairs, exactly.

    (t, w) = sum_i t_i d_i w_i for t in simple-root and w in fundamental-weight
    coordinates; it is scaled to an integer so the sum stays in integers.
    """
    coef = [ti * di for ti, di in zip(t, rs.d)]
    lcm = math.lcm(*(c.denominator for c in coef))
    icoef = [int(c * lcm) for c in coef]
    acc = Fraction(0)
    for w, c in weighted:
        pairing = sum(a * x for a, x in zip(icoef, w))
        acc += c * pairing * pairing
    return acc / (norm * lcm * lcm * scale_sq)


def check_walls(checks, name, rs, atoms) -> None:
    """Atoms on shifted walls carry zero mass, and only they do.

    w lies on a shifted wall iff (w + rho, beta) = sum_j (w_j + 1) d_j l_j
    vanishes for some positive root beta = sum_j l_j alpha_j; the d_j are
    scaled to integers, which keeps the zero test exact and fast.
    """
    scale = math.lcm(*(d.denominator for d in rs.d))
    roots = [[int(d * scale) * l for d, l in zip(rs.d, root)] for root in rs.positive_roots]
    bad = []
    for w, p in atoms:
        on_wall = any(sum((x + 1) * c for x, c in zip(w, root)) == 0 for root in roots)
        if on_wall != (p == 0):
            bad.append((w, p))
    checks.check(name, not bad, f"{len(bad)} atoms, e.g. {bad[:2]}")


def factor_dim(rs, factors, n) -> int:
    """prod_l dim(V_lam_l)^(tau_l * N)."""
    total = 1
    for lam, tau in factors:
        total *= tl.weyl_dim(rs, lam) ** int(tau * n)
    return total


def check_cache_maps(checks, name, rs, factors, n_values, cache_dir) -> dict:
    """Load every cache file; each holds a full character of one requested N.

    Returns {N: map}.  The N of a file is read off its total dimension.
    """
    by_dim = {factor_dim(rs, factors, n): n for n in n_values}
    maps = {}
    for path in sorted(Path(cache_dir).iterdir()):
        m = repchar.load_multiplicity_map(str(path))
        total = sum(m.entries.values())
        checks.check(f"{name}: total_dim == prod dim(V_lam)^n", total == m.total_dim and total in by_dim,
                     f"{path.name}: sum {total}, stored {m.total_dim}")
        if total in by_dim:
            maps[by_dim[total]] = m
    checks.expect_equal(f"{name}: one cache entry per N", sorted(maps), sorted(n_values))
    return maps


@dataclass
class State:
    rs: object
    spec: object
    work: Path
    cache_dir: str | None = None
    models: dict | None = None


class Workload:
    """Inputs drawn from the seed; subclasses define setup, run_pass and observe."""

    name = ""
    choices: tuple = ((),)

    def __init__(self, rng, choice: int | None, cartan: str):
        self.cartan = cartan
        self.choice = rng.randrange(len(self.choices)) if choice is None else choice
        self.weight = self.choices[self.choice]
        self.t = draw_t(rng, tl.CartanType.parse(cartan).rank)

    @property
    def orientation(self) -> str:
        return coords(self.weight) if self.weight else "fixed"

    def verify(self, state, outputs, checks, reference) -> None:
        """Exact identities, then floats and digests against the reference."""
        try:
            floats, digests = self.observe(state, outputs, checks)
        except Exception as exc:  # malformed output fails the pass's checks
            checks.check("outputs readable", False, f"{type(exc).__name__}: {exc}")
            return
        if reference is None:
            return
        want = reference.get(self.name, {}).get(self.orientation)
        if want is None:
            raise KeyError(f"no reference for {self.name} {self.orientation}; run make_reference.py")
        bad = sorted(k for k in set(want["floats"]) | set(floats) if not _same(floats.get(k), want["floats"].get(k)))
        checks.check("floats match reference", not bad, f"{len(bad)} differ, e.g. {bad[:3]}")
        for key, value in sorted(want["digests"].items()):
            checks.expect_equal(f"{key} digest", digests.get(key), value)


class A2Cold(Workload):
    """`ltl converge` on A2 with a fresh, empty cache directory every pass."""

    name = "a2-cold"

    def __init__(self, rng, choice=None, cartan="A2", choices=((1, 0), (0, 1)), n_values=(4, 16, 64, 128)):
        self.choices, self.n_values = tuple(choices), tuple(n_values)
        super().__init__(rng, choice, cartan)

    @property
    def factors(self):
        return ((self.weight, Fraction(1)),)

    def setup(self, work: Path, tracer=None) -> State:
        rs = tl.build_root_system(self.cartan)
        return State(rs, tl.TensorSpec(rs, self.factors), work)

    def run_pass(self, state: State, tracer=None) -> dict:
        cache = tempfile.mkdtemp(dir=state.work)
        argv = ["converge", "--type", self.cartan, "--factor", f"{coords(self.weight)}:1",
                "--N", ",".join(map(str, self.n_values)), "--format", "json", "--cache-dir", cache]
        call = call_cli(argv, tracer, cache, len(set(self.n_values)))
        if tracer is not None:
            tracer.add("cli.cache_bytes", _dir_bytes(cache))
        return {"converge": call, "cache_dir": cache}

    def observe(self, state, outputs, checks):
        rs, call = state.rs, outputs["converge"]
        try:
            checks.expect_equal("converge exits 0", call.rc, 0)
            floats = flatten(json.loads(call.out))
            maps = check_cache_maps(checks, "cache", rs, self.factors, self.n_values, outputs["cache_dir"])
            digests = {}
            sig = tl.sigma_squared(state.spec)
            for n, m in sorted(maps.items()):
                dec = tl.racah_decompose(rs, m)
                checks.expect_equal(f"N={n}: sum c dim V_mu == total_dim",
                                    sum(c * tl.weyl_dim(rs, mu) for mu, c in dec.components.items()), m.total_dim)
                checks.expect_equal(f"N={n}: second moment along t == (t, t)",
                                    second_moment(rs, m.entries.items(), m.total_dim, sig * n, self.t), tt(rs, self.t))
                digests[f"N={n}/components"] = components_digest(dec.components)
            return floats, digests
        finally:
            shutil.rmtree(outputs["cache_dir"], ignore_errors=True)


class B2Warm(Workload):
    """A CLI session on a two-factor B2 spec against a cache filled in set-up."""

    name = "b2-warm"

    def __init__(self, rng, choice=None, cartan="B2", factors=(((0, 1), "1"), ((1, 0), "1/2")),
                 converge_n=(4, 16, 32), measure_n=32, ext_n=16):
        self.spec_factors = tuple((tuple(lam), Fraction(tau)) for lam, tau in factors)
        self.converge_n, self.measure_n, self.ext_n = tuple(converge_n), measure_n, ext_n
        super().__init__(rng, choice, cartan)

    def _argv(self, *head, n):
        args = list(head) + ["--type", self.cartan]
        for lam, tau in self.spec_factors:
            args += ["--factor", f"{coords(lam)}:{tau}"]
        return args + ["--N", n]

    def _converge(self, cache, tracer=None) -> CliCall:
        n = ",".join(map(str, self.converge_n))
        argv = self._argv("converge", n=n) + ["--format", "json", "--cache-dir", cache]
        return call_cli(argv, tracer, cache, len(set(self.converge_n)))

    def setup(self, work: Path, tracer=None) -> State:
        rs = tl.build_root_system(self.cartan)
        state = State(rs, tl.TensorSpec(rs, self.spec_factors), work, cache_dir=str(work / "cache"))
        fill = self._converge(state.cache_dir, tracer)
        if fill.rc != 0:
            raise RuntimeError(f"cache fill failed: {fill.err.strip()}")
        return state

    def run_pass(self, state: State, tracer=None) -> dict:
        cache = state.cache_dir
        out = {"converge": self._converge(cache, tracer)}
        for kind, n in (("xi", self.measure_n), ("eta", self.measure_n), ("eta_extended", self.ext_n)):
            out[kind] = call_cli(self._argv("measure", kind, n=str(n)) + ["--cache-dir", cache], tracer, cache, 1)
        out["decompose"] = call_cli(self._argv("decompose", n=str(self.measure_n)) + ["--cache-dir", cache],
                                    tracer, cache, 1)
        if tracer is not None:
            tracer.add("cli.cache_bytes", _dir_bytes(cache))
        return out

    def observe(self, state, outputs, checks):
        rs, spec = state.rs, state.spec
        for key, call in outputs.items():
            checks.expect_equal(f"{key} exits 0", call.rc, 0)
        floats = flatten(json.loads(outputs["converge"].out))
        digests = {key: digest(outputs[key].out) for key in ("xi", "eta", "eta_extended", "decompose")}
        maps = check_cache_maps(checks, "cache", rs, spec.factors, self.converge_n, state.cache_dir)
        total = factor_dim(rs, spec.factors, self.measure_n)
        rows = [[int(x) for x in line.split(",")] for line in outputs["decompose"].out.strip().split("\n")[1:]]
        checks.expect_equal("decompose: sum c dim V_mu == total_dim",
                            sum(row[-1] * tl.weyl_dim(rs, tuple(row[:-1])) for row in rows), total)
        xi = parse_measure_csv(outputs["xi"].out)
        sig = tl.sigma_squared(spec)
        checks.expect_equal("xi: second moment along t == (t, t)",
                            second_moment(rs, xi, 1, sig * self.measure_n, self.t), tt(rs, self.t))
        eta = parse_measure_csv(outputs["eta"].out)
        checks.expect_equal("eta: total mass 1", sum(p for _, p in eta), 1)
        ext = tl.DiscreteMeasure(parse_measure_csv(outputs["eta_extended"].out), sig, self.ext_n)
        check_walls(checks, "eta_extended: mass is zero exactly on walls", rs, ext.atoms)
        want = tl.eta_measure(spec, self.ext_n, multiplicities=maps[self.ext_n])
        checks.expect_equal("eta_extended: pushforward == eta",
                            tl.pushforward_dominant_shifted(rs, ext).atoms, want.atoms)
        return floats, digests


class A3Weyl(Workload):
    """Library calls on A3: characters, eta, eta^e and its pushforward, TV, quadrature."""

    name = "a3-weyl"

    def __init__(self, rng, choice=None, cartan="A3", choices=((1, 0, 0), (0, 0, 1)), n_values=(8, 32)):
        self.choices, self.n_values = tuple(choices), tuple(n_values)
        super().__init__(rng, choice, cartan)

    def setup(self, work: Path, tracer=None) -> State:
        rs = tl.build_root_system(self.cartan)
        models = {kind: tl.make_density_model(rs, kind) for kind in ("eta", "eta_extended")}
        return State(rs, tl.TensorSpec(rs, ((self.weight, Fraction(1)),)), work, models=models)

    def run_pass(self, state: State, tracer=None) -> dict:
        rs, spec = state.rs, state.spec
        table = tl.tensor_power_table(rs, spec.factors, self.n_values)
        out = {"table": table, "eta": {}, "ext": {}, "push": {}}
        for n in self.n_values:
            out["eta"][n] = tl.eta_measure(spec, n, multiplicities=table[n])
            out["ext"][n] = tl.eta_extended_measure(spec, n, multiplicities=table[n])
            out["push"][n] = tl.pushforward_dominant_shifted(rs, out["ext"][n])
        out["tv"] = tl.histogram_tv(out["eta"][max(self.n_values)], state.models["eta"])
        out["quadrature"] = tl.normalization_quadrature(state.models["eta_extended"])
        return out

    def observe(self, state, outputs, checks):
        rs, spec = state.rs, state.spec
        sig = tl.sigma_squared(spec)
        digests = {}
        for n in self.n_values:
            m, eta, ext = outputs["table"][n], outputs["eta"][n], outputs["ext"][n]
            total = sum(m.entries.values())
            checks.check(f"N={n}: total_dim == prod dim(V_lam)^n",
                         total == m.total_dim == factor_dim(rs, spec.factors, n), f"sum {total}, stored {m.total_dim}")
            # eta masses are c dim V_mu / total_dim, so they sum to 1 iff sum c dim V_mu == total_dim
            checks.expect_equal(f"N={n}: sum c dim V_mu == total_dim", sum(p for _, p in eta.atoms), 1)
            checks.expect_equal(f"N={n}: pushforward == eta", outputs["push"][n].atoms, eta.atoms)
            check_walls(checks, f"N={n}: mass is zero exactly on walls", rs, ext.atoms)
            checks.expect_equal(f"N={n}: second moment along t == (t, t)",
                                second_moment(rs, m.entries.items(), total, sig * n, self.t), tt(rs, self.t))
            digests[f"N={n}/eta"] = atoms_digest(eta.atoms)
            digests[f"N={n}/eta_extended"] = atoms_digest(ext.atoms)
        return {"histogram_tv": outputs["tv"], "quadrature_mass": outputs["quadrature"]}, digests


WORKLOADS = {cls.name: cls for cls in (A2Cold, B2Warm, A3Weyl)}
