import hashlib
import json
import subprocess
import sys

import pytest

from polyfrac.cli import main
from polyfrac.construct import hex_to_mantissa, mantissa_to_hex, read_points

CONFIG = {
    "dimension": 2,
    "s": "3/2",
    "norm": {"preset": "linf"},
    "schedule": {"c": "auto", "m": [1, 16, 32, 96]},
    "seed": 7,
    "samples": 6,
    "scales": [4, 8],
    "budget": 10**8,
}


def write_config(path, **overrides):
    cfg = json.loads(json.dumps(CONFIG))
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """One constructed output directory shared by the read-only tests."""
    root = tmp_path_factory.mktemp("made")
    cfg = write_config(root / "cfg.json")
    out = root / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out


def test_construct_outputs(made, capsys):
    cfg, out = made
    points, mhash = read_points(out / "points.txt")
    assert len(points) == 7
    assert [p.role for p in points] == ["pinned"] + ["sample"] * 6
    doc = json.loads((out / "manifest.json").read_text())
    assert list(doc) == ["format", "tool", "config_hash", "manifest_hash",
                        "resolved"]
    assert doc["format"] == "polyfrac-manifest v1"
    assert doc["manifest_hash"] == mhash
    res = doc["resolved"]
    assert res["schedule"] == {"margin": 3, "m": [1, 16, 32, 96],
                              "n": [9, 24, 64]}
    assert res["s"] == "3/2" and res["alpha"] == "1/2"
    assert res["norm"]["pivots"] == [0, 1]


def test_verify_round_trip(made, capsys):
    cfg, out = made
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    got = capsys.readouterr().out
    assert "verified 7 points" in got
    assert "collapse ok on 6 pinned pairs" in got


READERS = ["verify", "distset", "boxdim"]


def construct(cfg, out):
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("command", READERS)
def test_verify_missing_file(made, tmp_path, command, capsys):
    cfg, _ = made
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "missing input" in capsys.readouterr().err


def test_verify_detects_tampering(made, tmp_path, capsys):
    cfg, out = made
    lines = (out / "points.txt").read_text().splitlines()

    def tamper(row):
        fields = lines[row].split()
        m = hex_to_mantissa(fields[1], 96)
        place = next(j for j in range(69, 92) if not (m >> (96 - j)) & 1)
        fields[1] = mantissa_to_hex(m | 1 << (96 - place), 96)
        bad = lines[:row] + [" ".join(fields)] + lines[row + 1:]
        (tmp_path / "points.txt").write_text("\n".join(bad) + "\n")
        return place

    place = tamper(4)  # first sample row
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"point 1: block 3 membership fails at place {place}" in err
    tamper(3)  # pinned row: no longer this config's pinned point
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "manifest mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command", READERS)
def test_verify_manifest_mismatch(made, tmp_path, command, capsys):
    _, out = made
    other = write_config(tmp_path / "other.json", seed=8)
    assert main([command, "--config", other, "--out", str(out)]) == 2
    assert "manifest mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command", READERS)
def test_verify_shape_mismatch(made, tmp_path, command, capsys):
    cfg, out = made
    points, mhash = read_points(out / "points.txt")
    from polyfrac.construct import SamplePoint, write_points
    shallow = [SamplePoint(tuple(c.truncate(32) for c in p.coords),
                           p.role, p.index) for p in points]
    write_points(tmp_path / "points.txt", shallow, mhash)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    # well formed, right shape, but short of samples + 1 points
    write_points(tmp_path / "points.txt", points[:4], mhash)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "points file holds 4 points, not 7" in capsys.readouterr().err


def test_readers_ignore_budget(tmp_path, capsys):
    # budget is in the manifest hash but does not fix the points, so every
    # reader takes the file construct wrote at the default budget
    cfg = write_config(tmp_path / "cfg.json")
    construct(cfg, tmp_path)
    for argv in (["verify", "--budget", "5"],
                 ["distset", "--pairwise", "--budget", "10"],
                 ["boxdim", "--budget", "1"]):
        code = main(argv + ["--config", cfg, "--out", str(tmp_path)])
        assert code == (4 if argv[0] == "boxdim" else 0), argv
    captured = capsys.readouterr()
    assert "verified 7 points" in captured.out
    assert "wrote 10 pairwise distances" in captured.out
    assert "no exact scale completed" in captured.err
    assert "manifest mismatch" not in captured.err


def test_sample_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["sample", "--config", cfg, "--out", str(tmp_path),
                 "--samples", "3"]) == 0
    points, _ = read_points(tmp_path / "samples.txt")
    assert [p.role for p in points] == ["sample"] * 3
    assert "wrote 3 sample points" in capsys.readouterr().out


def test_distset_pinned_with_euclid(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    construct(cfg, tmp_path)
    assert main(["distset", "--config", cfg, "--out", str(tmp_path),
                 "--euclid", "16"]) == 0
    rows = (tmp_path / "distances.csv").read_text().splitlines()
    assert rows[0] == "polyfrac-distances v1"
    assert rows[2] == "pair_id,ell,mantissa_hex,prec,euclid_mantissa_hex,euclid_prec"
    body = [r.split(",") for r in rows[3:]]
    assert len(body) == 6
    assert [r[0] for r in body] == [f"0-{j}" for j in range(1, 7)]
    for r in body:
        assert r[1] in ("0", "1")
        assert len(r[2]) == 24 and r[3] == "96"  # prec 96 -> 24 hex digits
        assert len(r[4]) == 4 and r[5] == "16"
        assert hex_to_mantissa(r[2], 96) >= 0


def test_distset_pairwise_cap(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    construct(cfg, tmp_path)
    assert main(["distset", "--config", cfg, "--out", str(tmp_path),
                 "--pairwise", "--budget", "10"]) == 0
    rows = (tmp_path / "distances.csv").read_text().splitlines()
    assert len(rows) == 3 + 10  # capped below the 15 possible pairs
    assert main(["distset", "--config", cfg, "--out", str(tmp_path),
                 "--pinned", "--pairwise"]) == 2  # mutually exclusive


def test_boxdim_exact(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    construct(cfg, tmp_path)
    assert main(["boxdim", "--config", cfg, "--out", str(tmp_path)]) == 0
    got = capsys.readouterr().out
    assert "dim_set lower estimate 2.0000" in got  # min(8/4, 16/8)
    assert "sample-limited" not in got
    assert "dist ell=0 r=13" in got and "bound=9+13" in got
    rows = (tmp_path / "boxcounts_set.csv").read_text().splitlines()
    assert rows[2] == "r,count,log2_count,mode"
    assert rows[3] == "4,256,8.000000,exact"
    assert rows[4] == "8,65536,16.000000,exact"
    for ell in (0, 1):
        dist = (tmp_path / f"boxcounts_dist_ell{ell}.csv").read_text().splitlines()
        scales = [int(r.split(",")[0]) for r in dist[3:]]
        assert scales == ([13, 93] if ell == 0 else [29])
        svg = (tmp_path / f"boxcounts_dist_ell{ell}.svg").read_text()
        assert svg.startswith("<svg ") and "<!-- manifest " in svg


def test_boxdim_falconer_small_sample_fails_honestly(tmp_path, capsys):
    # 6 samples cannot witness the distance dimension; expect FAIL, exit 3
    cfg = write_config(tmp_path / "cfg.json")
    construct(cfg, tmp_path)
    assert main(["boxdim", "--config", cfg, "--out", str(tmp_path),
                 "--falconer"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_boxdim_budget_starvation(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    construct(cfg, tmp_path)
    assert main(["boxdim", "--config", cfg, "--out", str(tmp_path),
                 "--budget", "1"]) == 4
    captured = capsys.readouterr()
    assert "no exact scale completed" in captured.err
    assert "over scales [4, 8]; sample-limited (saturated) at [4, 8]" \
        in captured.out
    rows = (tmp_path / "boxcounts_set.csv").read_text().splitlines()
    assert all(r.split(",")[3] == "saturated" for r in rows[3:])


def test_profile_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "profiles_set.csv").read_text().splitlines()
    assert rows[2] == "r,P_ideal,P_c_aware,ratio_ideal,ratio_c_aware"
    assert rows[2 + 16] == "16,23,29,23/16,29/16"
    assert rows[2 + 96] == "96,143,161,143/96,161/96"
    d0 = (tmp_path / "profiles_dist_ell0.csv").read_text().splitlines()
    assert d0[2 + 13].startswith("13,9,12,")
    assert (tmp_path / "profiles_dist_ell1.csv").exists()


def test_byte_determinism(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        assert main(["distset", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("points.txt", "distances.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_points_golden_digest(tmp_path):
    # desk config at seed 7 with 200 samples; frozen so that a change to the
    # stream layout or the construction cannot pass on rerun equality alone
    cfg = write_config(tmp_path / "cfg.json", samples=200)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "points.txt").read_bytes()).hexdigest()
    assert digest == ("04023dd3ae0c0384f58279661d827dec"
                      "1d2bfa153b4762ca18334f02e7762d9a")


# functionals 0 (x) and 1 (x at precision 1) always tie, so the value a row
# writes is the first attaining functional's: prec 114 for ell 0, 115 for 2
TIED_NORM = {"custom": [[[1, 0], [0, 0]], [[2, 1], [0, 0]],
                        [[0, 0], [3, 1]]]}


@pytest.mark.parametrize("flags,digest", [
    (["--pinned", "--euclid", "24"],
     "3916b9a012217c93ee80fea87d2537dbd3d12448d3fc9e0ef189f3b0e2f0e83d"),
    (["--pairwise", "--budget", "500"],
     "edb62eb556132b4ea67a5a590eb18b94121ec71ef83472bb8b4615f23464749b"),
], ids=["pinned", "pairwise"])
def test_distances_golden_digest(tmp_path, flags, digest):
    # the only distance pin whose norm has tied functionals at different
    # precisions; preset-norm pins cannot see which tied Dyadic is written
    cfg = write_config(tmp_path / "cfg.json", norm=TIED_NORM, samples=200,
                       scales=[8, 12], budget=None)
    construct(cfg, tmp_path)
    assert main(["distset", "--config", cfg, "--out", str(tmp_path)]
                + flags) == 0
    blob = (tmp_path / "distances.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest
    precs = {row.split(",")[1]: row.split(",")[3]
             for row in blob.decode().splitlines()[3:]}
    assert precs == {"0": "114", "2": "115"}


def test_seed_override_changes_points(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["construct", "--config", cfg, "--out", str(a),
                 "--seed", "9"]) == 0
    assert main(["construct", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "points.txt").read_bytes() != (b / "points.txt").read_bytes()
    doc = json.loads((a / "manifest.json").read_text())
    assert doc["resolved"]["seed"] == 9


@pytest.mark.parametrize("overrides", [
    {"s": "abc"},
    {"s": None},
    {"dimension": 0},
    {"norm": {"preset": "l2"}},
    {"norm": {}},
    {"schedule": {"c": "auto"}},
    {"schedule": {"c": 2, "m": [1, 16, 32, 96]}},
    {"samples": 0},
    {"budget": -1},
    {"scales": [0]},
    {"scales": [97]},
    {"seed": 7.5},
    {"seed": True},
    {"seed": "7"},
    {"samples": True},
    {"samples": 6.0},
    {"budget": 1e8},
    {"dimension": True},
    {"dimension": 2.0},
    {"scales": [True]},
    {"scales": []},
    {"scales": [8, 8, 4]},
])
def test_config_rejection(tmp_path, overrides, capsys):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_json_and_missing_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["profile", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["profile", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_argparse_errors_return_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["construct"]) == 2  # --config required
    capsys.readouterr()


def test_out_directory_created(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    nested = tmp_path / "deep" / "er" / "dir"
    assert main(["profile", "--config", cfg, "--out", str(nested)]) == 0
    assert (nested / "profiles_set.csv").exists()


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = subprocess.run(
        [sys.executable, "-m", "polyfrac", "profile", "--config", cfg,
         "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "manifest.json").exists()


def test_geometric_rule_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       schedule={"c": "auto", "rule": "geometric", "K": 3},
                       scales="checkpoints")
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "manifest.json").read_text())
    m = doc["resolved"]["schedule"]["m"]
    assert m[0] == 1 and len(m) == 4
    assert doc["resolved"]["scales"] == m[1:]
