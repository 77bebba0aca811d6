import json
import os

import numpy as np
import pytest

from tensorlimits import cli, repchar
from tensorlimits.cli import main
from tensorlimits.densities import DensityModel
from tensorlimits.repchar import (
    MultiplicityMap,
    racah_decompose,
    save_multiplicity_map,
    tensor_power_multiplicities,
    tensor_power_table,
)
from tensorlimits.rootsys import build_root_system, orbit

from oracles import peel_off_decompose


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


A1_XI = ["measure", "xi", "--type", "A1", "--factor", "1:1", "--N", "8"]
B2_XI = ["measure", "xi", "--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2", "--N", "8"]


def _edit_dominant(edit):
    """A corruption that applies edit to the {weight: count} dict a cache file stores."""

    def corrupt(text):
        doc = json.loads(text)
        mults = {tuple(w): int(c) for w, c in zip(doc["weights"], doc["multiplicities"])}
        edit(mults)
        doc["weights"] = [list(w) for w in mults]
        doc["multiplicities"] = [str(c) for c in mults.values()]
        return json.dumps(doc)

    return corrupt


def _swap_first_multiplicities(mults):
    """Swap the counts at the weights 0 and 2, whose orbits have 1 and 2 points:
    the stored total no longer matches."""
    mults[(0,)], mults[(2,)] = mults[(2,)], mults[(0,)]


def _move_mass_outward(mults):
    """A1 N=8: add 8 at the weight 8, whose orbit is {8, -8}, and take 16 from 0.

    Positive with the same total, but the second moment sum_mu m(mu) (mu, mu)
    grows from 1024 to 1536.
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


def _pad_weight_0(text):
    """One more at the weight 0, stored total raised to match: the file is
    self-consistent and keeps the second moment, but is not V_N's character."""
    doc = json.loads(text)
    assert doc["weights"][0] == [0]
    doc["multiplicities"][0] = str(int(doc["multiplicities"][0]) + 1)
    doc["total_dim"] = str(int(doc["total_dim"]) + 1)
    return json.dumps(doc)


def _relabel_c2(text):
    """A B2 file relabelled C2: its dominant entries have the same orbit sizes,
    total and second moment, but expand over C2's orbits to other weights."""
    doc = json.loads(text)
    assert doc["cartan_type"] == "B2"
    doc["cartan_type"] = "C2"
    return json.dumps(doc)


def _restate_counts(restate):
    """A corruption that stores each multiplicity and the total as restate(its decimal
    string): values that int() reads back as the same counts, or as the counts less 1/2."""

    def corrupt(text):
        doc = json.loads(text)
        doc["multiplicities"] = [restate(c) for c in doc["multiplicities"]]
        doc["total_dim"] = restate(doc["total_dim"])
        return json.dumps(doc)

    return corrupt


@pytest.mark.parametrize(
    "argv, corrupt",
    [
        (A1_XI, lambda text: text[:20]),  # truncated write
        (A1_XI, lambda text: json.dumps(
            {"cartan_type": "A1", "weights": [[0]], "multiplicities": ["5"], "total_dim": "5"}
        )),
        (A1_XI, _edit_dominant(_swap_first_multiplicities)),
        (A1_XI, _edit_dominant(_move_mass_outward)),
        (A1_XI, _edit_dominant(_negate_weight)),
        (A1_XI, _edit_dominant(_zero_at_weight_10)),
        (A1_XI, _pad_weight_0),
        (B2_XI, _relabel_c2),
        (A1_XI, _restate_counts(lambda c: int(c) + 0.5)),
        (A1_XI, _restate_counts(lambda c: True if c == "1" else c)),
        (A1_XI, _restate_counts(lambda c: c + ".0")),
        (A1_XI, _restate_counts(lambda c: c[0] + "_" + c[1:] if len(c) > 1 else c)),
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
    ],
)
def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys, argv, corrupt):
    cache = tmp_path / "cache"
    argv = argv + ["--cache-dir", str(cache)]
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    (path,) = cache.iterdir()
    good = path.read_text()
    path.write_text(corrupt(good))
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == cold
    assert err == ""
    # the entry was overwritten with the recomputed map and nothing else was left behind
    assert list(cache.iterdir()) == [path]
    assert path.read_text() == good


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


def test_cache_misses_on_g2_mass_moved_outward(tmp_path):
    """One unit moved from the 6-point orbit of omega1 to that of 4 omega1 (G2, V_omega1^4):
    a W-invariant map with positive counts and the same total, but a larger second moment."""
    spec = cli._build_spec("G2", [cli._parse_factor("1,0:1")])
    m = tensor_power_table(spec.rs, spec.factors, [4])[4]
    dominant = dict(m.dominant)
    assert dominant[(1, 0)] > 1
    dominant[(4, 0)] += 1
    dominant[(1, 0)] -= 1
    path = tmp_path / "map.json"
    save_multiplicity_map(MultiplicityMap(spec.rs, dominant, m.total_dim), path)
    assert cli._load_cached(spec, 4, str(path)) is None


def test_orbit_sizes_are_walked_once_per_loaded_map(tmp_path, monkeypatch):
    """The constructor keeps its orbit sizes in dominant order; the cache check,
    len and Racah's grouping read them instead of walking the orbits again."""
    spec = cli._build_spec("B2", [cli._parse_factor("0,1:1"), cli._parse_factor("1,0:1/2")])
    m = tensor_power_table(spec.rs, spec.factors, [8])[8]
    assert m.sizes == [len(orbit(spec.rs, mu)) for mu in m.dominant]
    path = tmp_path / "map.json"
    save_multiplicity_map(m, path)
    calls = []
    walk = repchar.orbit_sizes
    monkeypatch.setattr(repchar, "orbit_sizes", lambda rs, weights: calls.append(1) or walk(rs, weights))
    back = cli._load_cached(spec, 8, str(path))
    assert back is not None and back.sizes == [len(orbit(spec.rs, mu)) for mu in back.dominant]
    assert len(back) == len(m) and racah_decompose(spec.rs, back).components == racah_decompose(spec.rs, m).components
    assert len(calls) == 1


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


def test_production_paths_stay_in_the_dominant_chamber(tmp_path, capsys, monkeypatch):
    """converge (cold and warm cache), decompose, eta and eta^e read the character of
    V_N at its dominant weights alone: with the lazy orbit expansion refused for every
    map but an irreducible factor's, they print what they print without the guard.
    measure xi does expand the orbits."""
    from tensorlimits.repchar import MultiplicityMap, racah_decompose

    b2 = ["--type", "B2", "--factor", "0,1:1", "--factor", "1,0:1/2"]
    b3 = ["--type", "B3", "--factor", "1,0,0:1", "--N", "4"]

    def outputs(root):
        converge = [
            ["converge", "--type", "A2", "--factor", "1,0:1", "--N", "4,16", "--cache-dir", str(root / "a2")],
            ["converge", *b2, "--N", "4,8", "--cache-dir", str(root / "b2")],
        ]
        result = []
        for argv in [argv for argv in converge for _ in ("cold", "warm")] + [
            ["decompose", *b3], ["measure", "eta", *b3], ["measure", "eta_extended", *b3]
        ]:
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            result.append(out)
        return result

    plain = outputs(tmp_path / "plain")
    expand = MultiplicityMap.entries.func

    def guarded(m):
        if list(racah_decompose(m.rs, m).components.values()) != [1]:
            raise AssertionError("the W-orbits of a reducible character were expanded")
        return expand(m)

    monkeypatch.setattr(MultiplicityMap.entries, "func", guarded)
    assert outputs(tmp_path / "guarded") == plain
    with pytest.raises(AssertionError, match="reducible"):
        main(["measure", "xi", *b3])


def test_shifted_weyl_action_stays_on_the_array_kernels(capsys, monkeypatch):
    """Racah's sum, eta^e and its pushforward run the shifted Weyl action on whole
    arrays: with to_dominant counted, they give what they give uncounted,
    racah_decompose and Miller's recurrence call to_dominant not once, and
    eta^e and its pushforward call it exactly as often as eta alone does (the
    Freudenthal recursion building the factor characters), so never once per
    eta^e atom or per wall-box point."""
    from tensorlimits import repchar, rootsys
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
    calls = []
    scalar = rootsys.to_dominant

    def counted(rs, mu):
        calls.append(tuple(mu))
        return scalar(rs, mu)

    monkeypatch.setattr(rootsys, "to_dominant", counted)
    monkeypatch.setattr(repchar, "to_dominant", counted)
    assert outputs() == plain
    m = tensor_power_multiplicities(a3, [((1, 0, 0), 8)])
    base = repchar.freudenthal_multiplicities(a3, (1, 0, 0))
    calls.clear()
    assert repchar._miller_power(a3, [((1, 0, 0), base, 8)]).dominant == m.dominant
    dec = racah_decompose(a3, m)
    assert calls == []
    assert dec.components == peel_off_decompose(a3, m.entries).components
    calls.clear()
    eta_measure(spec, 8)
    run(capsys, "measure", "eta", *b3)
    racah = len(calls)
    calls.clear()
    ext = eta_extended_measure(spec, 8)
    pushforward_dominant_shifted(a3, ext)
    run(capsys, "measure", "eta_extended", *b3)
    assert len(calls) == racah


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--bins", ["converge", "--type", "A2", "--factor", "1,0:1", "--N", "4", "--bins", "0"]),
        ("--bins", ["converge", "--type", "A1", "--factor", "1:1", "--N", "4", "--bins", "-3"]),
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
        ("--bins: ", ["converge", "--type", "A2", "--factor", "1,0:1", "--N", "4", "--bins", "1000000"]),
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
    "flag,argv",
    [
        ("--sigma-convention", ["converge", "--type", "A1", "--factor", "1:1", "--N", "4", "--sigma-convention", "paper"]),
        ("--sigma-convention", ["measure", "xi", "--type", "A1", "--factor", "1:1", "--N", "2", "--sigma-convention", "consistent"]),
        ("--method", ["decompose", "--type", "A1", "--factor", "1:1", "--N", "2", "--method", "peel"]),
        ("--t-grid", ["converge", "--type", "A1", "--factor", "1:1", "--N", "4", "--t-grid", "default"]),
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
