import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from tensorlimits import cli, repchar
from tensorlimits.cli import main
from tensorlimits.densities import DensityModel
from tensorlimits.repchar import (
    IrrepDecomposition,
    MultiplicityMap,
    irreducible_character,
    racah_decompose,
    save_multiplicity_map,
    tensor_power_multiplicities,
    tensor_power_table,
)
from tensorlimits.rootsys import build_root_system

from oracles import cache_file, cache_parts, edit_cache_body, orbit, peel_off_decompose


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rootsys_info_b2(capsys):
    code, out, err = run(capsys, "rootsys", "info", "--type", "B2")
    assert code == 0
    doc = json.loads(out)
    assert doc["cartan_matrix"] == [[2, -1], [-2, 2]]
    assert doc["weyl_order"] == 8
    assert doc["symmetrizers"] == ["1/1", "1/2"]
    assert len(doc["positive_roots"]) == 4


def test_measure_eta_example(capsys):
    code, out, err = run(capsys, "measure", "eta", "--type", "A1", "--factor", "1:1", "--N", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "weight_1,numerator,denominator"
    rows = {tuple(line.split(",")) for line in lines[1:]}
    assert ("0", "1", "4") in rows
    assert ("2", "3", "4") in rows


def test_measure_json_reparses(capsys):
    code, out, err = run(
        capsys, "measure", "xi", "--type", "A2", "--factor", "1,0:1", "--N", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 3
    assert doc["kind"] == "xi"
    total = sum(
        int(a["prob"].split("/")[0]) / int(a["prob"].split("/")[1]) for a in doc["atoms"]
    )
    assert abs(total - 1.0) < 1e-12


def test_decompose_methods_agree(capsys):
    code, out, _ = run(capsys, "decompose", "--type", "A2", "--factor", "1,0:1", "--N", "4")
    assert code == 0
    a2 = build_root_system("A2")
    peel = peel_off_decompose(a2, tensor_power_multiplicities(a2, [((1, 0), 4)]).entries)
    lines = ["weight_1,weight_2,multiplicity"]
    lines += [f"{w[0]},{w[1]},{c}" for w, c in sorted(peel.components.items())]
    assert out == "\n".join(lines) + "\n"


def test_decompose_json_total_dim(capsys):
    code, out, _ = run(
        capsys, "decompose", "--type", "A1", "--factor", "1:1", "--N", "6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total_dim"] == str(2**6)
    recon = sum(
        int(c["multiplicity"]) * (c["weight"][0] + 1) for c in doc["components"]
    )
    assert recon == 2**6


def test_density_info(capsys):
    code, out, _ = run(capsys, "density", "eta", "--type", "A1")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1
    assert doc["norm_const"] > 0


def test_density_normalization_flag(capsys):
    code, out, _ = run(capsys, "density", "xi", "--type", "A1", "--check-normalization")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["quadrature_mass"] - 1.0) < 1e-6


def test_density_rank_cap_exit_3(capsys):
    code, out, err = run(capsys, "density", "eta", "--type", "B4", "--check-normalization")
    assert code == 3
    assert "cap" in err


def test_density_plot_files(tmp_path, capsys):
    base = str(tmp_path / "a1eta")
    code, out, _ = run(capsys, "density", "eta", "--type", "A1", "--plot", "--output", base)
    assert code == 0
    assert os.path.exists(base + ".dat")
    assert os.path.exists(base + ".gp")
    script = open(base + ".gp").read()
    assert base + ".dat" in script
    first = open(base + ".dat").read().strip().split("\n")[0].split()
    assert len(first) == 2


def test_density_plot_2d(tmp_path, capsys):
    base = str(tmp_path / "a2eta")
    code, out, _ = run(capsys, "density", "eta", "--type", "A2", "--plot", "--output", base)
    assert code == 0
    body = open(base + ".dat").read()
    assert "\n\n" in body


def test_converge_csv(capsys):
    code, out, _ = run(
        capsys, "converge", "--type", "A1", "--factor", "1:1", "--N", "4,16"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("N,char_fn_sup_error")
    assert len(lines) == 3


def test_converge_deterministic_output(tmp_path, capsys):
    a = tmp_path / "r1.csv"
    b = tmp_path / "r2.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "converge", "--type", "A1", "--factor", "1:1", "--N", "4,16",
            "--output", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_converge_config_file(tmp_path, capsys):
    cfg = {
        "cartan_type": "A1",
        "factors": [{"weight": [1], "tau": "1"}],
        "N_list": [4, 16],
        "format": "json",
        "sigma_convention": "consistent",  # the one scale there is, still accepted
        "plot": True,  # an unknown key, ignored
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "converge", "--config", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["N_values"] == [4, 16]


def test_converge_flags_override_config(tmp_path, capsys):
    cfg = {
        "cartan_type": "A1",
        "factors": [{"weight": [1], "tau": "1"}],
        "N_list": [4, 16],
        "format": "json",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "converge", "--config", str(path), "--N", "4", "--format", "csv")
    assert code == 0
    assert out.startswith("N,")
    assert len(out.strip().split("\n")) == 2
    # a bad value given as a flag is reported under the flag, not the config key
    for flag, value in (("--type", "Q9"), ("--factor", "1,0:1"), ("--N", "0")):
        code, out, err = run(capsys, "converge", "--config", str(path), flag, value)
        assert code == 2
        assert out == ""
        assert f"error: {flag}:" in err


def test_cache_roundtrip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["measure", "eta", "--type", "A1", "--factor", "1:1", "--N", "8", "--cache-dir", cache]
    code1, out1, _ = run(capsys, *argv)
    files = os.listdir(cache)
    assert len(files) == 1
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert os.listdir(cache) == files


def test_counts_past_4300_digits_print(tmp_path, capsys, default_int_digits):
    """ltl lifts CPython's limit on int <-> str digits for its own process: at A1 N=15000 the counts
    pass 4,300 digits, yet decompose (cold, and warm from its cache) and measure eta exit 0 with
    empty stderr.  Over the 7,501 components sum c (w + 1) = 2^15000; the warm run is a cache hit,
    which rewrites no file and prints the same bytes; and the eta masses sum to 1."""
    spec, cache = ["--type", "A1", "--factor", "1:1", "--N", "15000"], tmp_path / "cache"
    cold = run(capsys, "decompose", *spec, "--cache-dir", str(cache))
    files = {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()}
    warm = run(capsys, "decompose", *spec, "--cache-dir", str(cache))
    assert cold == warm and (cold[0], cold[2]) == (0, "") and len(files) == 1
    assert {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()} == files
    rows = [list(map(int, line.split(","))) for line in cold[1].splitlines()[1:]]
    assert len(rows) == 7501 and sum(c * (w + 1) for w, c in rows) == 2**15000
    code, out, err = run(capsys, "measure", "eta", *spec)
    masses = [list(map(int, line.split(",")[-2:])) for line in out.splitlines()[1:]]
    den = math.lcm(*(d for _, d in masses))
    assert (code, err) == (0, "") and sum(n * (den // d) for n, d in masses) == den


A1_XI = ["measure", "xi", "--type", "A1", "--factor", "1:1", "--N", "8"]
B2_XI = ["measure", "xi", "--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2", "--N", "8"]
A2_XI = ["measure", "xi", "--type", "A2", "--factor", "1,0:1", "--N", "2"]


def _edit_parts(edit):
    """A corruption that applies edit to the parts of a cache file (oracles.cache_parts) and writes
    them back with the sha256 of the new body: only the loader's checks can refuse it."""

    def corrupt(data):
        parts = cache_parts(data)
        edit(parts)
        return cache_file(parts)

    return corrupt


def _edit_dominant(edit):
    """A corruption that applies edit to the {weight: count} dict a cache file stores, keeping the
    stored components."""

    def corrupt(parts):
        mults = {tuple(w): c for w, c in zip(parts["rows"], parts["counts"])}
        edit(mults)
        parts["rows"], parts["counts"] = [list(w) for w in mults], list(mults.values())

    return _edit_parts(corrupt)


def _swap_first_multiplicities(mults):
    """Swap the counts at the weights 0 and 2, whose orbits have 1 and 2 points:
    the stored total no longer matches."""
    mults[(0,)], mults[(2,)] = mults[(2,)], mults[(0,)]


def _move_mass_outward(mults):
    """A1 N=8: add 8 at the weight 8, whose orbit is {8, -8}, and take 16 from 0.

    Positive with the same total, but the second moment sum_mu m(mu) (mu, mu)
    grows from 1024 to 1536, so the stored components' Casimir sum no longer matches.
    """
    mults[(8,)] += 8
    mults[(0,)] -= 16


def _negate_weight(mults):
    """Store the weight 2 as -2, which is not dominant."""
    mults[(-2,)] = mults.pop((2,))


def _zero_at_weight_10(mults):
    """A zero count at the weight 10: total and second moment unchanged, but xi
    would print atoms at 10 and -10."""
    mults[(10,)] = 0


def _pad_weight_0(parts):
    """One more at the weight 0, stored total raised to match: the map is
    self-consistent, but its components account for one dimension less."""
    assert parts["rows"][0] == [0]
    parts["counts"][0] += 1
    parts["total_dim"] += 1


def _relabel_c2(data):
    """A B2 file whose header names C2: its dominant entries have the same orbit sizes,
    total and second moment, but expand over C2's orbits to other weights."""
    parts = cache_parts(data)
    assert parts["cartan_type"] == "B2"
    return cache_file(parts, cartan_type="C2")


def _flip_body_byte(data):
    """One bit of the last body byte flipped; the stored sha256 is the old body's."""
    return data[:-1] + bytes([data[-1] ^ 1])


def _v3_document(data):
    """The format-3 JSON document of A2 V_omega1^2 (dominant weights, decimal-string counts and
    total) under the format-4 name: no header line."""
    assert cache_parts(data)["counts"] == [2, 1]
    return json.dumps({"cartan_type": "A2", "weights": [[0, 1], [2, 0]], "multiplicities": ["2", "1"],
                       "total_dim": "9"}).encode()


def _stretch_first_length(data):
    """A1 N=8: the first count's length, after the 5 rows of 4 bytes, one byte too long, so it
    swallows the next length's first byte."""
    assert cache_parts(data)["rows"] == [[0], [2], [4], [6], [8]]
    return edit_cache_body(data, lambda body: body.__setitem__(slice(20, 24), (body[20] + 1).to_bytes(4, "little")))


def _swap_count_lists(parts):
    """A2 V_omega1^2: the map's counts [2, 1] and the components' [1, 1] exchanged; over the orbits
    of (0, 1) and (2, 0), 3 points each, the counts [1, 1] sum to 6, not to the stored total 9."""
    parts["counts"], parts["lam_counts"] = parts["lam_counts"], parts["counts"]


def _double_every_count(parts):
    """Every count, component count and the total doubled: twice the character of V_N, which the
    loader's checks and the second-moment check pass (the moment doubles with the total); only the
    total of V_N refuses it."""
    for key in ("counts", "lam_counts"):
        parts[key] = [2 * c for c in parts[key]]
    parts["total_dim"] *= 2


@pytest.mark.parametrize(
    "argv, corrupt",
    [
        (A1_XI, lambda data: data[:-3]),  # truncated write
        (A1_XI, lambda data: cache_file(
            {"cartan_type": "A1", "rows": [[0]], "counts": [5], "lam_at": [0], "lam_counts": [5], "total_dim": 5}
        )),
        (A1_XI, _edit_dominant(_swap_first_multiplicities)),
        (A1_XI, _edit_dominant(_move_mass_outward)),
        (A1_XI, _edit_dominant(_negate_weight)),
        (A1_XI, _edit_dominant(_zero_at_weight_10)),
        (A1_XI, _edit_parts(_pad_weight_0)),
        (B2_XI, _relabel_c2),
        (A1_XI, _stretch_first_length),
        (A1_XI, _edit_parts(lambda parts: parts["lam_counts"].__setitem__(0, 0))),
        (A1_XI, lambda data: cache_file(cache_parts(data), sha256="0" * 64)),
        (A1_XI, lambda data: cache_file(cache_parts(data), format=3)),
        (B2_XI, _edit_parts(lambda parts: [parts[key].pop(0) for key in ("lam_at", "lam_counts")])),
        (B2_XI, _edit_parts(lambda parts: [parts[key].reverse() for key in ("lam_at", "lam_counts")])),
        (B2_XI, _edit_parts(lambda parts: parts["lam_at"].__setitem__(-1, len(parts["rows"])))),
        (A2_XI, _edit_parts(_swap_count_lists)),
        (A1_XI, _flip_body_byte),
        (A2_XI, _v3_document),
        (B2_XI, _edit_parts(_double_every_count)),
    ],
    ids=[
        "truncated",
        "forged",
        "swapped",
        "moved",
        "non-dominant",
        "zero",
        "padded",
        "relabelled",
        "half",
        "true",
        "point-zero",
        "underscore",
        "coordinate-true",
        "coordinate-float",
        "coordinate-string",
        "joined-counts",
        "flipped-byte",
        "v3-document",
        "doubled",
    ],
)
def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys, argv, corrupt):
    """Each corruption is a miss: exit 0, the same stdout, nothing on stderr, and the file rewritten
    with the recomputed map.  Besides edits of the stored map and total, a truncated body, a flipped
    body byte, a format-3 document and a header of another type, it covers a count's length one byte
    too long (half), a component count of 0 (true), a stored sha256 of another body (point-zero),
    format 3 in the header (underscore), a dropped component (coordinate-true), components out of
    order (coordinate-float), a component position past the rows (coordinate-string) and the map's
    and the components' counts exchanged (joined-counts)."""
    cache = tmp_path / "cache"
    argv = argv + ["--cache-dir", str(cache)]
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    (path,) = cache.iterdir()
    assert path.suffix == ".bin"
    good = path.read_bytes()
    path.write_bytes(corrupt(good))
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == cold
    assert err == ""
    # the entry was overwritten with the recomputed map and nothing else was left behind
    assert list(cache.iterdir()) == [path]
    assert path.read_bytes() == good


@pytest.mark.parametrize(
    "label, factors, n",
    [
        ("A1", ["1:1"], 8),
        ("A2", ["1,0:1"], 6),
        ("B2", ["0,1:1", "1,0:1/2"], 8),
        ("G2", ["1,0:1"], 6),
        ("G2", ["0,1:1"], 4),
        ("B3", ["1,0,0:1"], 4),
        ("C3", ["1,0,0:1"], 4),
        ("D4", ["1,0,0,0:1"], 3),
        ("F4", ["0,0,0,1:1"], 2),
    ],
    ids=["A1", "A2", "B2", "G2-w1", "G2-w2", "B3", "C3", "D4", "F4"],
)
def test_cache_hits_at_every_pairing_scale(tmp_path, label, factors, n):
    """A saved map passes every check of _load_cached, whose second moment reads
    scaled_norm, at the pairing scales s = 1 (A, D), 2 (B, C, F4) and 3 (G2): a hit
    returns the saved map, where a miss would recompute it and rewrite the same bytes."""
    spec = cli._build_spec(label, [cli._parse_factor(f) for f in factors])
    m = tensor_power_table(spec.rs, spec.factors, [n])[n]
    path = tmp_path / "map.json"
    save_multiplicity_map(m, path)
    back = cli._load_cached(spec, n, str(path))
    assert back is not None
    assert back.dominant == m.dominant and back.total_dim == m.total_dim


@pytest.mark.parametrize(
    "label, factors, n, key",
    [
        ("B2", ["0,1:1", "1,0:1/2"], 16, "1f0a3bb3985d0e2c1f9b14b0a767cda34889175d63c679ca8e7a28c6e9cbe878"),
        ("A2", ["1,0:1"], 64, "b371b581ad890c5413ccf4ffd344846a9c3251c6c8665645143e74b21be35757"),
    ],
    ids=["B2", "A2"],
)
def test_cache_file_names_are_pinned(tmp_path, capsys, label, factors, n, key):
    """repchar.cache_key names the file ltl writes, ltl_<key>.bin; its bytes are pinned, so a cache
    written before stays readable under the same name."""
    spec = cli._build_spec(label, [cli._parse_factor(f) for f in factors])
    assert repchar.cache_key(spec.rs.cartan_type, spec.factors, n) == key
    cache = tmp_path / "cache"
    argv = ["decompose", "--type", label, *(x for f in factors for x in ("--factor", f)), "--N", str(n)]
    assert run(capsys, *argv, "--cache-dir", str(cache))[0] == 0
    assert [p.name for p in cache.iterdir()] == [f"ltl_{key}.bin"]


def test_cache_misses_on_g2_mass_moved_outward(tmp_path):
    """One component of V_omega1^4 (G2) moved from (0, 3) to (2, 0), both of dimension 77, with
    Casimir values 16 and 20: a genuine character of the same total, which loads with its own
    decomposition, but whose second moment is larger than the spec's."""
    spec = cli._build_spec("G2", [cli._parse_factor("1,0:1")])
    m = tensor_power_table(spec.rs, spec.factors, [4])[4]
    components = dict(racah_decompose(spec.rs, m).components)
    components[(0, 3)] -= 1
    components[(2, 0)] += 1
    dominant = {}
    for lam, c in components.items():
        for mu, k in irreducible_character(spec.rs, lam).dominant.items():
            dominant[mu] = dominant.get(mu, 0) + c * k
    moved = MultiplicityMap(spec.rs, list(dominant), list(dominant.values()), m.total_dim)
    path = tmp_path / "map.bin"
    save_multiplicity_map(moved, path)
    assert repchar.load_multiplicity_map(path).dominant == moved.dominant
    assert cli._load_cached(spec, 4, str(path)) is None


def test_warm_run_reads_the_stored_decomposition(tmp_path, capsys, monkeypatch):
    """A cold measure xi runs the W-sum once, for the file it writes; a warm decompose, measure eta
    and converge run none, since the loaded maps carry their decompositions, and print what they
    print cold.  (racah_decompose's sum is the one call of _alternating_sums whose cuts start at 0.)"""
    cuts = []
    alternating = repchar._alternating_sums
    monkeypatch.setattr(
        repchar, "_alternating_sums", lambda rs, nus, reads, c: cuts.append(c) or alternating(rs, nus, reads, c)
    )
    b2, cache = ["--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2"], str(tmp_path / "cache")
    assert run(capsys, "measure", "xi", *b2, "--N", "8", "--cache-dir", cache)[0] == 0
    assert [c[0] for c in cuts].count(0) == 1
    calls = [["decompose", *b2, "--N", "8"], ["measure", "eta", *b2, "--N", "8"], ["converge", *b2, "--N", "4,8"]]
    cold = [run(capsys, *argv, "--cache-dir", cache) for argv in calls]
    cuts.clear()
    assert [run(capsys, *argv, "--cache-dir", cache) for argv in calls] == cold
    assert [out[0] for out in cold] == [0, 0, 0] and [c[0] for c in cuts].count(0) == 0


def test_orbit_sizes_are_walked_once_per_loaded_map(tmp_path, monkeypatch):
    """The constructor walks each zero pattern once and keeps the orbit sizes in
    dominant order; the cache check, len and the decomposition read them instead
    of walking again."""
    spec = cli._build_spec("B2", [cli._parse_factor("0,1:1"), cli._parse_factor("1,0:1/2")])
    m = tensor_power_table(spec.rs, spec.factors, [8])[8]
    assert m.sizes == [len(orbit(spec.rs, mu)) for mu in m.dominant]
    components = racah_decompose(spec.rs, m).components
    path = tmp_path / "map.json"
    save_multiplicity_map(m, path)
    calls = []
    walk = repchar._weyl_walk
    monkeypatch.setattr(repchar, "_weyl_walk", lambda c, top: calls.append(top) or walk(c, top))
    back = cli._load_cached(spec, 8, str(path))
    assert back is not None and back.sizes == [len(orbit(spec.rs, mu)) for mu in back.dominant]
    assert len(calls) == len(set(calls)) == len(back.pattern_sizes) == 4
    assert len(back) == len(m) and racah_decompose(spec.rs, back).components == components
    assert len(calls) == 4


def test_cold_converge_builds_each_factor_character_once(tmp_path, capsys, monkeypatch):
    """The Miller table and the moments read one set of factor characters: a cold
    converge runs irreducible_character once per distinct factor."""
    calls = []
    build = repchar.irreducible_character
    monkeypatch.setattr(repchar, "irreducible_character", lambda rs, lam: calls.append(lam) or build(rs, lam))
    cases = [
        ("A2", ["1,0:1"], [(1, 0)]),
        ("B2", ["0,1:1", "1,0:1/2"], [(0, 1), (1, 0)]),
        ("A2", ["1,1:1", "1,1:1/2"], [(1, 1)]),
    ]
    for k, (label, factors, runs) in enumerate(cases):
        repchar._factor_support.cache_clear()
        calls.clear()
        argv = ["converge", "--type", label, *[x for f in factors for x in ("--factor", f)], "--N", "2,4"]
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path / str(k)))
        assert (code, err) == (0, "")
        assert sorted(calls) == runs, factors


@pytest.mark.parametrize("value", ["envcache", ""], ids=["dir", "empty"])
def test_cache_env_fallback(tmp_path, capsys, monkeypatch, value):
    """$LTL_CACHE_DIR stands in for --cache-dir; set to the empty string it counts as unset."""
    argv = ["measure", "xi", "--type", "A1", "--factor", "1:1", "--N", "4"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LTL_CACHE_DIR", raising=False)
    _, plain, _ = run(capsys, *argv)
    monkeypatch.setenv("LTL_CACHE_DIR", value)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == plain
    if value:
        assert len(os.listdir(value)) == 1
    else:
        assert os.listdir(tmp_path) == []


def test_bad_type_exit_2(capsys):
    code, out, err = run(capsys, "rootsys", "info", "--type", "Z9")
    assert code == 2
    assert "--type" in err


def test_converge_refuses_a_type_that_is_not_simple(tmp_path, capsys):
    # D2 = A1 x A1: converge exits 2 naming --type before any table is read or
    # computed, and writes no cache; the exact commands still accept D2
    cache = tmp_path / "cache"
    argv = ["--type", "D2", "--factor", "1,0:1", "--N", "4,16,64"]
    code, out, err = run(capsys, "converge", *argv, "--cache-dir", str(cache))
    assert code == 2 and out == ""
    assert "--type" in err and "D2 is not simple" in err
    assert not cache.exists()
    for other in (["rootsys", "info", "--type", "D2"], ["decompose", *argv[:4], "--N", "4"]):
        assert run(capsys, *other)[0] == 0, other
    assert run(capsys, "measure", "eta", *argv[:4], "--N", "4")[0] == 0


def test_bad_factor_exit_2(capsys):
    code, out, err = run(capsys, "measure", "xi", "--type", "A1", "--factor", "1", "--N", "2")
    assert code == 2
    assert "--factor" in err


def test_inadmissible_n_exit_2(capsys):
    code, out, err = run(capsys, "measure", "xi", "--type", "A1", "--factor", "1:1/2", "--N", "3")
    assert code == 2
    assert "--N" in err


def test_nondominant_weight_exit_2(capsys):
    code, out, err = run(capsys, "measure", "xi", "--type", "A1", "--factor", "-1:1", "--N", "2")
    assert code == 2
    assert "--factor" in err


def test_weyl_cap_exit_3(capsys):
    code, out, err = run(capsys, "rootsys", "info", "--type", "A9")
    assert code == 3
    assert "cap" in err


def test_weyl_group_stays_off_the_production_path(capsys, monkeypatch):
    from tensorlimits import rootsys

    def refuse(self):
        raise AssertionError("the Weyl matrices were read")

    # a property is a data descriptor, so it wins over a value cached on an instance
    monkeypatch.setattr(rootsys.RootSystemData, "weyl", property(refuse))
    rootsys.build_root_system("F4")
    b2 = ["--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2"]
    for argv in [
        ["decompose", "--type", "F4", "--factor", "0,0,0,1:1", "--N", "2"],
        ["measure", "eta_extended", *b2, "--N", "4"],
        ["density", "eta_extended", "--type", "A3", "--check-normalization"],
        ["converge", "--type", "B3", "--factor", "1,0,0:1", "--N", "4,8"],
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def _refuse_reducible_support(patch):
    """Make MultiplicityMap.support, and so entries, raise on a map whose decomposition is not one irreducible."""
    expand = MultiplicityMap.support

    def guarded(m):
        if racah_decompose(m.rs, m).counts != [1]:
            raise AssertionError("the W-orbits of a reducible character were expanded")
        return expand(m)

    patch.setattr(MultiplicityMap, "support", guarded)


def test_production_paths_stay_in_the_dominant_chamber(tmp_path, capsys, monkeypatch):
    """converge (cold and warm cache), decompose, eta and eta^e read the character of V_N
    at its dominant weights alone: with the orbit expansion MultiplicityMap.support refused
    for every map but an irreducible factor's, they print what they print without the
    guard.  ltl measure xi, which prints every weight, is the one reader of support() on
    the character of V_N, and runs unguarded."""
    b2 = ["--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2"]
    b3 = ["--type", "B3", "--factor", "1,0,0:1", "--N", "4"]

    def outputs(root, guard):
        converge = [
            ["converge", "--type", "A2", "--factor", "1,0:1", "--N", "4,16", "--cache-dir", str(root / "a2")],
            ["converge", *b2, "--N", "4,8", "--cache-dir", str(root / "b2")],
        ]
        result = []
        for argv in [argv for argv in converge for _ in ("cold", "warm")] + [
            ["decompose", *b3], ["measure", "eta", *b3], ["measure", "eta_extended", *b3],
            ["measure", "xi", *b3], ["measure", "xi", *b2, "--N", "8", "--cache-dir", str(root / "b2")],
        ]:
            with monkeypatch.context() as patch:
                if guard and argv[:2] != ["measure", "xi"]:
                    _refuse_reducible_support(patch)
                code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            result.append(out)
        return result

    assert outputs(tmp_path / "guarded", True) == outputs(tmp_path / "plain", False)
    # the guard is armed: the support of a reducible map, and the entries built from it, are refused
    _refuse_reducible_support(monkeypatch)
    m = tensor_power_multiplicities(build_root_system("B3"), [((1, 0, 0), 4)])
    for read in (m.support, lambda: m.entries):
        with pytest.raises(AssertionError, match="reducible"):
            read()
    assert len(irreducible_character(build_root_system("B3"), (1, 0, 0)).support()[0]) == 7


def test_production_paths_never_build_the_dominant_dict(tmp_path, capsys, monkeypatch):
    """A map's one store is its int64 rows and its list of counts, and a decomposition's its
    rows, counts and dims: with the dict views dominant and entries of every map, factor
    characters included, and components of every decomposition refused, ltl measure
    xi|eta|eta_extended, decompose and converge on the two-factor B2 spec (cold and warm
    cache), tensor_power_table, eta^e and its pushforward on A3 and convergence_report on
    A2 give what they give unguarded, factor characters rebuilt."""
    from tensorlimits.convergence import convergence_report, report_to_json
    from tensorlimits.measures import TensorSpec, eta_extended_measure, pushforward_dominant_shifted

    b2 = ["--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2"]
    a3, a2 = build_root_system("A3"), build_root_system("A2")

    def outputs(root):
        repchar._factor_support.cache_clear()
        result = []
        for k, argv in enumerate([
            ["measure", "xi", *b2, "--N", "8"],
            ["measure", "eta", *b2, "--N", "8"],
            ["measure", "eta_extended", *b2, "--N", "8"],
            ["decompose", *b2, "--N", "16"],
            ["decompose", *b2, "--N", "12", "--format", "json"],
            ["converge", *b2, "--N", "4,8"],
        ]):
            for _ in ("cold", "warm"):
                code, out, err = run(capsys, *argv, "--cache-dir", str(root / str(k)))
                assert code == 0, (argv, err)
                result.append(out)
        table = tensor_power_table(a3, [((1, 0, 0), 1)], [8, 12])
        for n, m in table.items():
            ext = eta_extended_measure(TensorSpec(a3, (((1, 0, 0), 1),)), n, multiplicities=m)
            result.append((ext.atoms, pushforward_dominant_shifted(a3, ext).atoms))
        result.append(report_to_json(convergence_report(TensorSpec(a2, (((1, 0), 1),)), [4, 16, 32])))
        return result

    plain = outputs(tmp_path / "plain")

    def refuse(what):
        def built(self):
            raise AssertionError(f"the dict {what} was built")
        return property(built)

    monkeypatch.setattr(MultiplicityMap, "dominant", refuse("of dominant multiplicities"))
    monkeypatch.setattr(MultiplicityMap, "entries", refuse("of full entries"))
    monkeypatch.setattr(IrrepDecomposition, "components", refuse("of components"))
    assert outputs(tmp_path / "guarded") == plain
    # the guard is armed: reading a view is refused, while a lookup m[w] reads the rows
    m = tensor_power_multiplicities(a2, [((1, 0), 2)])
    dec = racah_decompose(a2, m)
    for read in (lambda: m.dominant, lambda: m.entries, lambda: dec.components, lambda: dec[(2, 0)]):
        with pytest.raises(AssertionError, match="was built"):
            read()
    assert m[(0, 1)] == 2 and dec.rows.tolist() == [[0, 1], [2, 0]] and dec.counts == [1, 1]


def test_lookup_reads_the_dominant_point_without_expanding(monkeypatch):
    """m[w] is the multiplicity at the dominant point of w: on a box around the
    support of a G2 map and of the two-factor B2 map it reads what m.entries
    holds, with the orbit expansion of a reducible map refused while it reads;
    a weight of another length raises BasisMismatch."""
    from tensorlimits.errors import BasisMismatch

    for label, factors, n in [("G2", [((1, 0), 1)], 4), ("B2", [((0, 1), 1), ((1, 0), Fraction(1, 2))], 6)]:
        rs = build_root_system(label)
        with monkeypatch.context() as patch:
            _refuse_reducible_support(patch)
            m = tensor_power_table(rs, factors, [n])[n]
            support = [nu for mu in m.dominant for nu in orbit(rs, mu)]
            lo, hi = np.min(support, axis=0) - 1, np.max(support, axis=0) + 1
            box = [tuple(w) for w in (np.indices(hi - lo + 1).reshape(rs.rank, -1).T + lo).tolist()]
            read = [m[w] for w in box]
            assert "entries" not in vars(m)
            with pytest.raises(AssertionError, match="reducible"):
                m.entries
            with pytest.raises(BasisMismatch):
                m[(1, 0, 0)]
        assert read == [m.entries.get(w, 0) for w in box]
        assert sum(read) == m.total_dim and min(read) == 0


def test_shifted_weyl_action_stays_on_the_array_kernels(capsys):
    """Racah's sum and recursion, eta^e and its pushforward run the shifted Weyl
    action on whole arrays: the package has no scalar to_dominant (the tests keep
    it in oracles), and with the factor characters rebuilt, the factor characters,
    Miller's recurrence, racah_decompose, eta, eta^e, its pushforward and ltl
    measure eta|eta_extended give what they gave before."""
    from tensorlimits import rootsys
    from tensorlimits.repchar import racah_decompose
    from tensorlimits.measures import (
        TensorSpec,
        eta_extended_measure,
        eta_measure,
        pushforward_dominant_shifted,
    )

    a3 = build_root_system("A3")
    spec = TensorSpec(a3, (((1, 0, 0), 1),))
    b3 = ["--type", "B3", "--factor", "1,0,0:1", "--N", "4"]

    def outputs():
        ext = eta_extended_measure(spec, 8)
        return ext.atoms, pushforward_dominant_shifted(a3, ext).atoms, run(capsys, "measure", "eta_extended", *b3)

    plain = outputs()
    assert not hasattr(rootsys, "to_dominant") and not hasattr(repchar, "to_dominant")
    repchar._factor_support.cache_clear()
    assert outputs() == plain
    m = tensor_power_multiplicities(a3, [((1, 0, 0), 8)])
    base = repchar.irreducible_character(a3, (1, 0, 0))
    assert repchar._miller_power(a3, [((1, 0, 0), base.support(), base.total_dim, 8)]).dominant == m.dominant
    dec = racah_decompose(a3, m)
    repchar._factor_support.cache_clear()
    eta = eta_measure(spec, 8)
    assert run(capsys, "measure", "eta", *b3)[0] == 0
    ext = eta_extended_measure(spec, 8)
    assert pushforward_dominant_shifted(a3, ext).atoms == eta.atoms
    assert dec.components == peel_off_decompose(a3, m.entries).components


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--resolution", ["density", "eta", "--type", "A1", "--check-normalization", "--resolution", "-3"]),
        ("--resolution", ["density", "eta_extended", "--type", "A3", "--check-normalization", "--resolution", "-1"]),
        ("--resolution", ["density", "eta", "--type", "A2", "--check-normalization", "--resolution", "0"]),
    ],
)
def test_nonpositive_count_flag_exit_2(capsys, flag, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "reason,argv",
    [
        ("--resolution: ", ["density", "xi", "--type", "A2", "--check-normalization", "--resolution", "5000"]),
        ("--resolution: ", ["density", "eta", "--type", "A3", "--check-normalization", "--resolution", "1000"]),
        ("histogram_tv supports rank <= 3", ["converge", "--type", "F4", "--factor", "0,0,0,1:1", "--N", "2"]),
    ],
)
def test_oversized_grid_exit_3_before_allocating(monkeypatch, capsys, reason, argv):
    # the grid is checked before the character table, the grid arrays or either half of the kernel
    def refuse(*args, **kwargs):
        raise AssertionError("work started on an oversized grid")

    kernel = [(DensityModel, attr) for attr in ("hoist", "slab", "values")]
    for owner, attr in [(np, "arange"), (np, "empty"), (cli, "tensor_power_table"), *kernel]:
        monkeypatch.setattr(owner, attr, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: computation cap exceeded: {reason}")


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--type", "A2", "--factor", "1,0:1", "--N", "99999999999"],
        ["converge", "--type", "A2", "--factor", "1,0:1", "--N", "4,99999999999"],
        ["measure", "xi", "--type", "B3", "--factor", "99999999,0,0:1", "--N", "1"],
    ],
)
def test_oversized_table_exit_3_before_allocating(monkeypatch, capsys, argv):
    # the enumeration of dominant weights counts each step's rows before np.repeat builds them
    repeat = np.repeat

    def guarded(a, counts, axis=None):
        if int(np.sum(counts)) > 2**20:
            raise AssertionError("np.repeat asked for more than 2^20 rows")
        return repeat(a, counts, axis=axis)

    monkeypatch.setattr(np, "repeat", guarded)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: computation cap exceeded: the dominant weights below")


def test_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        code, out, _ = run(capsys, "decompose", "--type", "A1", "--factor", "1:1", "--N", "2")
        assert (code, out) == (0, "weight_1,multiplicity\n0,1\n2,1\n")
    assert cli.build_parser.cache_info().misses == 1


def test_usage_error_leaves_the_shared_parser_working(capsys):
    # argparse exits 2 on a usage error; the next call parses with the same parser
    code, out, err = run(capsys, "decompose", "--type", "A1", "--factor", "1:1", "--N", "2", "--bogus")
    assert (code, out) == (2, "")
    assert "--bogus" in err
    code, out, _ = run(capsys, "decompose", "--type", "A1", "--factor", "1:1", "--N", "2")
    assert (code, out) == (0, "weight_1,multiplicity\n0,1\n2,1\n")
    code, _, err = run(capsys, "decompose", "--type", "A1", "--N", "2")
    assert code == 2 and "--factor" in err


def test_missing_converge_flags_exit_2(capsys):
    code, out, err = run(capsys, "converge", "--type", "A1")
    assert code == 2
    assert "--factor" in err


def test_config_validation(tmp_path, capsys):
    cfg = {
        "cartan_type": "A1",
        "factors": [{"weight": [1], "tau": "1"}],
        "N_list": [4],
        "sigma_convention": "paper",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "converge", "--config", str(path))
    assert code == 2
    assert out == ""
    assert "sigma_convention" in err


_GOOD_CONFIG = {"cartan_type": "A1", "factors": [{"weight": [1], "tau": "1"}], "N_list": [4]}


@pytest.mark.parametrize(
    "field,doc",
    [
        ("--config", 5),
        ("--config", None),
        ("factors", {**_GOOD_CONFIG, "factors": 5}),
        ("cache_dir", {**_GOOD_CONFIG, "cache_dir": 5}),
        # each of these used to run on other inputs: N = 4 and 8, weight (2,), N = 4, weight (1, 0)
        ("N_list", {**_GOOD_CONFIG, "N_list": "48"}),
        ("factors", {**_GOOD_CONFIG, "factors": [{"weight": "2", "tau": "1"}]}),
        ("N_list", {**_GOOD_CONFIG, "N_list": [4.9]}),
        ("factors", {"cartan_type": "A2", "factors": [{"weight": [1.7, 0], "tau": "1"}], "N_list": [4]}),
        # each of these used to name the flag (--type, --factor, --N) instead of the config key
        ("cartan_type", {**_GOOD_CONFIG, "cartan_type": "Q9"}),
        ("factors", {**_GOOD_CONFIG, "factors": [{"weight": [-1], "tau": "1"}]}),
        ("factors", {**_GOOD_CONFIG, "factors": [{"weight": [1, 0], "tau": "1"}]}),
        ("N_list", {**_GOOD_CONFIG, "factors": [{"weight": [1], "tau": "1/2"}], "N_list": [3]}),
        # a key missing, a value out of range, a tau that does not parse, a type that is not simple
        ("cartan_type", {key: _GOOD_CONFIG[key] for key in ("factors", "N_list")}),
        ("factors", {key: _GOOD_CONFIG[key] for key in ("cartan_type", "N_list")}),
        ("N_list", {key: _GOOD_CONFIG[key] for key in ("cartan_type", "factors")}),
        ("factors", {**_GOOD_CONFIG, "factors": []}),
        ("factors", {**_GOOD_CONFIG, "factors": [{"weight": [1], "tau": "x"}]}),
        ("N_list", {**_GOOD_CONFIG, "N_list": [0]}),
        ("N_list", {**_GOOD_CONFIG, "N_list": []}),
        ("format", {**_GOOD_CONFIG, "format": "xml"}),
        ("cartan_type", {**_GOOD_CONFIG, "cartan_type": "D2", "factors": [{"weight": [1, 0], "tau": "1"}]}),
    ],
)
def test_config_type_errors_exit_2(tmp_path, capsys, field, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "converge", "--config", str(path))
    assert code == 2
    assert out == ""
    assert f"error: {field}:" in err


@pytest.mark.parametrize(
    "field,argv",
    [
        ("--factor", ["converge", "--type", "A2", "--factor", "0,0:1", "--N", "4"]),
        ("--factor", ["measure", "xi", "--type", "A2", "--factor", "0,0:1", "--N", "4"]),
        ("--factor", ["measure", "eta", "--type", "A2", "--factor", "0,0:1", "--factor", "0,0:1/2", "--N", "4"]),
        ("--factor", ["measure", "eta_extended", "--type", "B2", "--factor", "0,0:1", "--N", "2"]),
        ("factors", ["converge", "--config", "{tmp}/cfg.json"]),
        # a flag that overrides another key leaves the file's factors named; one that overrides them is named
        ("factors", ["converge", "--config", "{tmp}/cfg.json", "--N", "8"]),
        ("--factor", ["converge", "--config", "{tmp}/cfg.json", "--factor", "0,0:1/2"]),
    ],
)
def test_degenerate_spec_names_its_field(tmp_path, monkeypatch, capsys, field, argv):
    # sigma^2 = 0 is found with the other spec checks, before any table work; from a
    # config file it is reported under the config key
    doc = {**_GOOD_CONFIG, "cartan_type": "A2", "factors": [{"weight": [0, 0], "tau": "1"}]}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))

    def refuse(*args):
        raise AssertionError("table work started on a degenerate spec")

    monkeypatch.setattr(cli, "tensor_power_table", refuse)
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: {field}: all highest weights are zero, sigma^2 = 0\n"


_A2_FLAGS = {"--type": "A2", "--factor": "1,0:1/2", "--N": "4"}
_A2_CONFIG = {"cartan_type": "A2", "factors": [{"weight": [1, 0], "tau": "1/2"}], "N_list": [4]}
_TENSOR_COMMANDS = {"measure": ["measure", "xi"], "decompose": ["decompose"], "converge": ["converge"]}
# one bad value of one flag, with the field named; the flag left out if None
_BAD_FLAGS = [
    ("--type", None),
    ("--factor", None),
    ("--N", None),
    ("--type", "Q9"),
    ("--factor", "1,0"),
    ("--factor", "x,0:1"),
    ("--factor", "1,0:0"),
    ("--factor", "1:1"),
    ("--factor", "-1,0:1"),
    ("--N", "x"),
    ("--N", "0"),
    ("--N", "3"),
]


def _flags(**changes) -> list:
    """The A2 flags with changes (flag without its dashes: value, None to leave it out), as --flag=value."""
    flags = {**_A2_FLAGS, **{f"--{name}": value for name, value in changes.items()}}
    return [f"{flag}={value}" for flag, value in flags.items() if value is not None]


@pytest.mark.parametrize(
    "field, argv, doc",
    [
        # each bad flag of measure, decompose and converge, the other flags good
        *(
            pytest.param(flag, [*command, *_flags(**{flag[2:]: value})], {}, id=f"{name}{flag}={value}")
            for name, command in _TENSOR_COMMANDS.items()
            for flag, value in _BAD_FLAGS
        ),
        # each bad value given as a flag that overrides a good config key
        *(
            pytest.param(flag, ["converge", "--config", "{tmp}/cfg.json", f"{flag}={value}"], {}, id=f"config{flag}={value}")
            for flag, value in _BAD_FLAGS
            if value is not None
        ),
        # a bad config key beside a flag that overrides another
        ("cartan_type", ["converge", "--config", "{tmp}/cfg.json", "--N", "4"], {"cartan_type": "Q9"}),
        ("factors", ["converge", "--config", "{tmp}/cfg.json", "--N", "4"], {"factors": [{"weight": [1], "tau": "1"}]}),
        ("N_list", ["converge", "--config", "{tmp}/cfg.json", "--type", "A2"], {"N_list": [3]}),
        ("cartan_type", ["converge", "--config", "{tmp}/cfg.json", "--N", "4"], {"cartan_type": "D2"}),
        # one tensor power only for measure and decompose; converge refuses a type that is not simple
        ("--N", ["measure", "xi", *_flags(N="4,8")], {}),
        ("--N", ["decompose", *_flags(N="4,8")], {}),
        ("--type", ["converge", *_flags(type="D2")], {}),
        ("--type", ["converge", "--config", "{tmp}/cfg.json", "--type", "D2"], {}),
    ],
)
def test_bad_tensor_field_exit_2(tmp_path, capsys, field, argv, doc):
    """One bad field, from a flag or a config file: exit 2, nothing on stdout, and the field named,
    a config key when the file gave the value and the flag when the command line did."""
    (tmp_path / "cfg.json").write_text(json.dumps({**_A2_CONFIG, **doc}))
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}: "), err


def test_decompose_of_a_trivial_spec_is_its_one_row(capsys):
    # a decomposition needs no variance scale: V_0^N is V_0
    argv = ["decompose", "--type", "A2", "--factor", "0,0:1", "--N", "4"]
    assert run(capsys, *argv) == (0, "weight_1,weight_2,multiplicity\n0,0,1\n", "")


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--sigma-convention", ["converge", "--type", "A1", "--factor", "1:1", "--N", "4", "--sigma-convention", "paper"]),
        ("--sigma-convention", ["measure", "xi", "--type", "A1", "--factor", "1:1", "--N", "2", "--sigma-convention", "consistent"]),
        ("--method", ["decompose", "--type", "A1", "--factor", "1:1", "--N", "2", "--method", "peel"]),
        ("--t-grid", ["converge", "--type", "A1", "--factor", "1:1", "--N", "4", "--t-grid", "default"]),
        ("--bins", ["converge", "--type", "A2", "--factor", "1,0:1", "--N", "4", "--bins", "8"]),
    ],
)
def test_removed_flags_are_usage_errors(capsys, flag, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--cache-dir", ["measure", "xi", "--type", "A1", "--factor", "1:1", "--N", "2", "--cache-dir", "{tmp}/file"]),
        ("--output", ["measure", "xi", "--type", "A1", "--factor", "1:1", "--N", "2", "--output", "{tmp}/missing/x.csv"]),
        ("--output", ["density", "eta", "--type", "A1", "--plot", "--output", "{tmp}/missing/a1eta"]),
    ],
)
def test_unusable_path_exit_2(tmp_path, capsys, flag, argv):
    (tmp_path / "file").write_text("")
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert flag in err


def test_rootsys_output_file(tmp_path, capsys):
    path = tmp_path / "b2.json"
    code, out, _ = run(capsys, "rootsys", "info", "--type", "B2", "--output", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["weyl_order"] == 8


def test_decompose_csv_is_written_a_block_of_rows_at_a_time(tmp_path, capsys, monkeypatch):
    """The CSV of ltl decompose and ltl measure goes out in blocks of _CSV_BLOCK_ROWS rows, to
    stdout and to --output, with the bytes of one joined text, measure_to_csv's for a measure:
    no block holds more than its rows."""
    import io
    import sys

    from tensorlimits import measures

    b2 = ["--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2"]
    spec = measures.TensorSpec(build_root_system("B2"), (((0, 1), 1), ((1, 0), Fraction(1, 2))))

    class Blocks(io.StringIO):
        def writelines(self, blocks):
            self.blocks = list(blocks)
            super().writelines(self.blocks)

    for argv, joined in [
        (["decompose", *b2, "--N", "12"], None),
        (["measure", "xi", *b2, "--N", "4"], lambda: measures.measure_to_csv(measures.xi_measure(spec, 4))),
        (["measure", "eta_extended", *b2, "--N", "4"], lambda: measures.measure_to_csv(measures.eta_extended_measure(spec, 4))),
    ]:
        code, whole, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        lines = whole.splitlines(keepends=True)
        assert len(lines) > 20 and whole.endswith("\n")
        assert joined is None or joined() == whole

        monkeypatch.setattr(measures, "_CSV_BLOCK_ROWS", 7)
        out = Blocks()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        monkeypatch.undo()
        assert out.getvalue() == whole
        rows = len(lines) - 1
        assert [b.count("\n") for b in out.blocks] == [1] + [min(7, rows - a) for a in range(0, rows, 7)]
        monkeypatch.setattr(measures, "_CSV_BLOCK_ROWS", 7)
        target = tmp_path / "out.csv"
        assert main([*argv, "--output", str(target)]) == 0
        monkeypatch.undo()
        assert target.read_text() == whole
