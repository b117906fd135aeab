import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from polyfrac import construct as cn
from polyfrac import distset as ds
from polyfrac.cli import _resolve, main
from polyfrac.construct import mantissa_to_hex, read_points
from polyfrac.norms import custom_norm, min_margin, preset
from polyfrac.schedule import free_fraction, generate

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
    assert [p.index for p in points] == list(range(7))
    assert [row.split()[0] for row in (out / "points.txt").read_text()
            .splitlines()[3:]] == ["x"] + ["y"] * 6
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
        m = int(fields[1], 16)  # pad 0 at precision 96
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


def test_construct_writes_no_file_that_fails_a_check(desk_spec, tmp_path,
                                                   monkeypatch, capsys):
    # CONFIG's spec; a solver that always answers offset 0 leaves the
    # marker unset
    monkeypatch.setattr(cn, "_steer", lambda *args: 0)
    cfg = write_config(tmp_path / "cfg.json")
    k, check, place = cn.verify_point(cn.pinned_point(desk_spec),
                                      desk_spec).failures[0]
    out = tmp_path / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"point 0: block {k} {check} fails "
                                       f"at place {place}\n")
    assert not (out / "points.txt").exists()
    assert not (out / "manifest.json").exists()


def test_verify_names_the_first_collapse_failure(made, desk_spec,
                                                 monkeypatch, capsys):
    cfg, out = made  # built from CONFIG, whose spec is desk_spec
    points, _ = read_points(out / "points.txt")
    # the first pair whose distance functional 1 achieves; block 2 is
    # functional 1's one block
    j = next(rec.source[1] for rec in ds.pinned(points[0], points[1:],
                                                desk_spec.norm)
             if rec.achieving == 1)
    real = ds._collapse_windows

    def widened(sched, ell, scale):
        # block 2's trimmed window takes every digit of a value below 1
        return tuple((k, a, b, full, (0, (1 << scale) - 1) if k == 2
                      else trimmed)
                     for k, a, b, full, trimmed in real(sched, ell, scale))

    monkeypatch.setattr(ds, "_collapse_windows", widened)
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"pair 0-{j}: collapse fails at "
                                       f"block 2\n")


@pytest.fixture(scope="module")
def made_400(tmp_path_factory):
    """401 desk points: 104-bit lanes make chunks of 157, 157 and 87."""
    root = tmp_path_factory.mktemp("made_400")
    cfg = write_config(root / "cfg.json", samples=400)
    out = root / "out"
    assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
    return cfg, (out / "points.txt").read_text().splitlines()


def test_verify_names_the_first_tampered_point_across_chunks(made_400,
                                                              tmp_path,
                                                              capsys):
    cfg, lines = made_400

    def tampered(*indices):
        # set a zero digit of coordinate 0 in block 3's window (67, 93]
        bad = list(lines)
        places = {}
        for i in indices:
            fields = bad[3 + i].split()
            m = int(fields[1], 16)  # pad 0 at precision 96
            places[i] = next(j for j in range(69, 92)
                             if not (m >> (96 - j)) & 1)
            fields[1] = mantissa_to_hex(m | 1 << (96 - places[i]), 96)
            bad[3 + i] = " ".join(fields)
        (tmp_path / "points.txt").write_text("\n".join(bad) + "\n")
        return places

    place = tampered(350)[350]  # in the last, partial chunk
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"point 350: block 3 membership fails at place {place}" in err
    place = tampered(350, 200)[200]  # the lower index is named
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"point 200: block 3 membership fails at place "
                          f"{place}")


@pytest.mark.parametrize("command", READERS)
def test_readers_refuse_a_second_pinned_row(made, tmp_path, command,
                                            capsys):
    cfg, out = made
    lines = (out / "points.txt").read_text().splitlines()
    lines[3 + 5] = "x" + lines[3 + 5][1:]  # row 5 claims the pinned tag
    (tmp_path / "points.txt").write_text("\n".join(lines) + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert ("format error: points file row 5 is tagged x: only row 0 may "
            "be") in capsys.readouterr().err


def test_verify_refuses_header_below_one(made, tmp_path, capsys):
    # a bare tag is a well-formed row for d=0; the header itself is bad
    cfg, out = made
    lines = (out / "points.txt").read_text().splitlines()
    (tmp_path / "points.txt").write_text(
        "\n".join(lines[:2] + ["d=0 prec=96 count=1", "x"]) + "\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "header needs d >= 1 and prec >= 1" in capsys.readouterr().err


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
    shallow = [SamplePoint(tuple(m >> (p.precision - 32) for m in p.mantissas),
                           32, p.index) for p in points]
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
        assert int(r[2], 16) >= 0


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
    line = next(row for row in capsys.readouterr().out.splitlines()
                if row.startswith("falconer:"))
    # 6 samples fill at most 6 cells, so every distance entry is saturated
    assert line.endswith("FAIL; sample-limited (saturated) at "
                         "ell=0 r=13, ell=0 r=93, ell=1 r=29")


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


# |x|, |x/2 + y| and |x/2 - y|: three functionals, two at precision 1
HEX_NORM = {"custom": [[[1, 0], [0, 0]], [[1, 1], [1, 0]],
                       [[1, 1], [-1, 0]]]}

BOXDIM_GOLDEN = {
    "desk": ({"dimension": 2, "s": "3/2", "norm": {"preset": "linf"},
              "schedule": {"c": "auto", "m": [1, 16, 32, 96]}}, 3, [
        "r=16 count=2147483648 mode=exact",
        "r=32 count=2305843009213693952 mode=exact",
        "r=96 count=11692013098647223345629478661730264157247460343808"
        " mode=exact",
        "dim_set lower estimate 1.6979 over scales [16, 32, 96]",
        "dist ell=0 r=13 log2count=6.58 bound=9+13 ok",
        "dist ell=0 r=93 log2count=6.88 bound=64+16 ok",
        "dist ell=1 r=29 log2count=7.51 bound=24+14 ok",
        "falconer: dim_set>=1.6979 dim_dist>=0.0740 threshold=0.6479 "
        "FAIL; sample-limited (saturated) at ell=0 r=13, ell=0 r=93, "
        "ell=1 r=29"]),
    "l1-d3": ({"dimension": 3, "s": "9/4", "norm": {"preset": "l1"},
               "schedule": {"c": "auto", "m": [1, 16, 32, 96]}}, 0, [
        "r=16 count=149533581377536 mode=exact",
        "r=32 count=301 mode=saturated",
        "r=96 count=301 mode=saturated",
        "dim_set lower estimate 0.0858 over scales [16, 32, 96]; "
        "sample-limited (saturated) at [32, 96]",
        "dist ell=0 r=11 log2count=5.95 bound=5+17 ok",
        "dist ell=1 r=27 log2count=6.82 bound=20+18 ok",
        "dist ell=2 r=91 log2count=6.27 bound=48+20 ok",
        "falconer: dim_set>=0.0858 dim_dist>=0.0689 threshold=-1.9642 "
        "PASS; sample-limited (saturated) at ell=0 r=11, ell=1 r=27, "
        "ell=2 r=91"]),
    "hex": ({"dimension": 2, "s": "3/2", "norm": HEX_NORM,
             "schedule": {"c": "auto", "m": [1, 16, 32, 96, 384]}}, 3, [
        "r=19 count=137438953472 mode=exact",
        "r=38 count=20070057552195992158208 mode=exact",
        "r=114 count=106710729501573572985208503271280065630982099043"
        "829854240768 mode=exact",
        "r=456 count=689456532887748412341091025928864224451014138635"
        "639044112158674527024860928026977516082500242976073479227921"
        "509126512162531600743815690362632644531367975328653607141790"
        "232756518120302545016645071290572999593807577088 mode=exact",
        "dim_set lower estimate 1.5724 over scales [19, 38, 114, 456]",
        "dist ell=0 r=15 log2count=6.17 bound=10+16 ok",
        "dist ell=0 r=452 log2count=6.21 bound=285+20 ok",
        "dist ell=1 r=34 log2count=7.10 bound=29+17 ok",
        "dist ell=2 r=110 log2count=6.48 bound=76+18 ok",
        "falconer: dim_set>=1.5724 dim_dist>=0.0137 threshold=0.5224 "
        "FAIL; sample-limited (saturated) at ell=0 r=15, ell=0 r=452, "
        "ell=1 r=34, ell=2 r=110"]),
}


# SHA-256 of every boxcounts_* file test_boxdim_stdout_golden writes
BOXDIM_DIGESTS = {
    "desk": {
        "dist_ell0.csv": "186ae636eb526c3d87c767b52272e0e0"
            "c5314b0f8ea05ef473f1563e7ad3dbef",
        "dist_ell0.svg": "ace1ad4d12aa8b41c157caf4f1cc37c5"
            "513636a781d634a13cf453143dd4eb52",
        "dist_ell1.csv": "e56471df0f5d70ecc12ea164f9e8c214"
            "47e243c2fb40624a65b795f4fc2cb3d6",
        "dist_ell1.svg": "dbf94f0846b772e8b7bdf646a57cb1f6"
            "b7abb70b97e77f46df603b50f42c880b",
        "set.csv": "e1ab25caa4f1bf4a9e60ae75c5148110"
            "39a41e66c5a42cd48917a5b5469cc9d8",
        "set.svg": "260dc87fe983b38b3edd5060dfd931a3"
            "bd20de3e8f9207b8d09ac3b64fb0bd17",
    },
    "l1-d3": {
        "dist_ell0.csv": "11bfd1259e12caf87ba3e080222956d3"
            "3097869436ca4c761c5430786c3a8a19",
        "dist_ell0.svg": "86d6c19ec5f2ec6d88eb9a35c3a16684"
            "03096abf1043a6853dea3a1b261cbebc",
        "dist_ell1.csv": "8c97cf0c90db212580ad610960e8182a"
            "2d64448f174cebc966d9d4f4095b323e",
        "dist_ell1.svg": "efe45d9f05572a5329ff9ab0bc1c6c71"
            "a3cd63ec95176309d866c672cdd29760",
        "dist_ell2.csv": "7c2aa0696b6122eba21ff3ec2beee966"
            "889cb79cb06aa9de97a117990cc182d9",
        "dist_ell2.svg": "6963474d72ad52ec7a1df5cf6ac76354"
            "4a38b7d82ce104632a20a1e6cf5583bf",
        "dist_ell3.csv": "cf4df68dc7791f2eb4397a907a9a059d"
            "c0c46c139560e736b874d8a3a6e7ed94",
        "dist_ell3.svg": "7be715904d55325b9ce87495669bf3c1"
            "e308f3c2c6e81540e597a91e49118cb5",
        "set.csv": "87af6d916a19a2c83e47ee7e66cd059b"
            "4cd2763d64be9fa42ed53bd2b5c2800b",
        "set.svg": "63afb23c28bf6c9f2b9eadeb5dcc7514"
            "bbd71978b25dbf4961a889f2d7242849",
    },
    "hex": {
        "dist_ell0.csv": "a53a4c585e5d95484a9574e424994f52"
            "6f9aad14eaf5e207d496b34078cc0691",
        "dist_ell0.svg": "789ff775a8bca888a7db2dd93ca52d60"
            "48249e43052f3a06be8e753b76120878",
        "dist_ell1.csv": "303cf9ca109d0aa9968c9bf9fba299a4"
            "a0ed8e344e56d6cc9375261ad1f2f848",
        "dist_ell1.svg": "3364726fd08a493d3fbba40d2c175a05"
            "7ee8136bba5c658e4d9ab6b663d4bf26",
        "dist_ell2.csv": "470703d15e698d5938add90d70c01181"
            "51f02ff7b4bfd499c44ba14c105542b4",
        "dist_ell2.svg": "5ca44625cbd9d1632d847b5493e74e40"
            "dd9c67fc403d77468b34928aa52f26fe",
        "set.csv": "a6419b3fcb534cae490281f1c0bb0b79"
            "a0b672b813363ceb3a963211f6610ac6",
        "set.svg": "7e4f3a9c9c49dea074ec3f5e6d268852"
            "ef8845e1c540ba7d070361ddcba00a63",
    },
}


@pytest.mark.parametrize("name", list(BOXDIM_GOLDEN))
def test_boxdim_stdout_golden(tmp_path, name, capsys):
    # every line boxdim --falconer prints, at seed 7 with 300 samples and the
    # default scales (each block end from m_2 on); the distance lines read
    # each checkpoint, its bound and its slack off the schedule's blocks;
    # every csv/svg pair it writes is pinned by digest
    base, code, lines = BOXDIM_GOLDEN[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(base, samples=300, seed=7)))
    construct(str(cfg), tmp_path)
    capsys.readouterr()
    assert main(["boxdim", "--config", str(cfg), "--out", str(tmp_path),
                 "--falconer"]) == code
    assert capsys.readouterr().out.splitlines() == lines
    got = {p.name[len("boxcounts_"):]:
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("boxcounts_*")}
    assert got == BOXDIM_DIGESTS[name]


def test_boxdim_claims_no_thinning_on_empty_windows(tmp_path, capsys):
    # at s = d every window is empty, so no checkpoint has a digit budget;
    # the falconer line keeps its sampled form
    cfg = write_config(tmp_path / "cfg.json", norm={"preset": "l1"}, s="2",
                       samples=200, scales=None)
    construct(cfg, tmp_path)
    capsys.readouterr()
    assert main(["boxdim", "--config", cfg, "--out", str(tmp_path),
                 "--falconer"]) == 3
    got = capsys.readouterr().out.splitlines()
    assert [row for row in got if row.startswith(("dist", "falconer"))] == [
        "dist ell=0 r=12 log2count=6.91 no thinning claimed (empty window)",
        "dist ell=0 r=92 log2count=6.91 no thinning claimed (empty window)",
        "dist ell=1 r=28 log2count=6.32 no thinning claimed (empty window)",
        "falconer: dim_set>=2.0000 dim_dist>=0.0751 threshold=0.9500 "
        "FAIL; sample-limited (saturated) at ell=0 r=12, ell=0 r=92, "
        "ell=1 r=28"]


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


PROFILE_GOLDEN = {
    # README config (d=2, linf) at 10k samples
    "desk": ({"dimension": 2, "s": "3/2", "norm": {"preset": "linf"},
              "schedule": {"c": "auto", "m": [1, 16, 32, 96]}},
             {"set": "f26afaef302c0d1c9703c20ab0b4fe01"
                     "b8e7d8bb5bd293312ce2e2ddc94cb2fb",
              "dist_ell0": "ef39ec62d824ea669ef3bf8369c027b3"
                           "dbb056a2748f745a73b0d8ef8de71c10",
              "dist_ell1": "0150d131382c3bfb05c6da1313389fac"
                           "511a8bdc082a9c48710f164410c31fc6"}),
    # l1 d=3 geometric K=6: 11520 rows per file
    "deep": ({"dimension": 3, "s": "9/4", "norm": {"preset": "l1"},
              "schedule": {"c": "auto", "rule": "geometric", "K": 6,
                           "ratio": 2}},
             {"set": "6a722a092ec8c42949707c989f1fb00d"
                     "859665def2da366dbb4b4eeee6cd42fb",
              "dist_ell0": "6fa2cac7ee4a12d81223086e9e9ad09f"
                           "3f4495fb4f36050b69659713699be10d",
              "dist_ell1": "48abcf33ec46c503f52ee696bd341215"
                           "782800a32ff584266477fd4fe8439b9c",
              "dist_ell2": "4dbc6c128408f430109c6b2989e9f0a0"
                           "6abd3fe00c3d5db528a8344e1a11a6d5",
              "dist_ell3": "fddc61b830c8285bbc1c4698b43c65a7"
                           "be45043660047dc57aeacd52e28eed20"}),
}


@pytest.mark.parametrize("name", list(PROFILE_GOLDEN))
def test_profile_golden_digest(tmp_path, name):
    # every row of every profile file, frozen at seed 7 with 10k/500 samples
    # and scales [8, 12, 16, 32, 96] (the manifest hash covers all three)
    base, digests = PROFILE_GOLDEN[name]
    samples = 10000 if name == "desk" else 500
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(base, samples=samples, seed=7,
                                   scales=[8, 12, 16, 32, 96])))
    assert main(["profile", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    got = {tag: hashlib.sha256(
        (tmp_path / f"profiles_{tag}.csv").read_bytes()).hexdigest()
        for tag in digests}
    assert got == digests


def test_byte_determinism(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        assert main(["distset", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for name in ("points.txt", "distances.csv", "manifest.json",
                 "manifest.distset.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_readers_leave_the_points_manifest(tmp_path):
    # budget is in the manifest hash, so this distset run has another one;
    # manifest.json must still describe the points.txt beside it
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["distset", "--config", cfg, "--out", str(tmp_path),
                 "--pairwise", "--budget", "10"]) == 0

    def stamped(name):  # the hash on line 2 of an output file
        return (tmp_path / name).read_text().splitlines()[1].split()[-1]

    def manifest(name):
        return json.loads((tmp_path / name).read_text())["manifest_hash"]

    assert manifest("manifest.json") == stamped("points.txt")
    assert manifest("manifest.distset.json") == stamped("distances.csv")
    assert stamped("points.txt") != stamped("distances.csv")


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
    (["--pairwise", "--budget", "500", "--euclid", "24"],
     "785385835241a0dd24606d6714eaf0d319c81611dcfd9e13697cde9fac4a4fe2"),
    (["--pinned", "--euclid", "0"],
     "93410383fd73e25b41e330a31c5ce81856a8d79e72bd7051ec7681d76971805a"),
], ids=["pinned", "pairwise", "pairwise-euclid", "pinned-euclid0"])
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


DEEP_CONFIG = {"dimension": 3, "s": "9/4", "norm": {"preset": "l1"},
               "schedule": {"c": "auto", "rule": "geometric", "K": 6,
                            "ratio": 2},
               "seed": 7, "samples": 20, "scales": [8, 12, 16]}


@pytest.mark.parametrize("flags,digest", [
    (["--pinned", "--euclid", "24"], "6906e7292e738dcb975857dee75e949c"
     "dd1b067314c36adde61ee2facca0199b"),
    (["--pairwise", "--budget", "100", "--euclid", "0"], "d8291c9b930a1c3e4741bc9cf9dc9b93"
     "9e2a0a5ba2dba1961518f6853bbe3e10"),
], ids=["pinned-euclid24", "pairwise-euclid0"])
def test_deep_distances_golden_digest(tmp_path, flags, digest):
    # depth-11520 mantissas: the Euclidean column of these rows is the only
    # one in the tier-1 suite whose discarded places run into the thousands
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DEEP_CONFIG))
    construct(str(cfg), tmp_path)
    assert main(["distset", "--config", str(cfg), "--out", str(tmp_path)]
                + flags) == 0
    blob = (tmp_path / "distances.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_construct_streams_points_file(tmp_path, capsys):
    # construct writes each points.txt row as it renders it: the traced peak
    # of a deep run (11520-bit coordinates, 201 points) stays below the file
    # it writes, which a writer holding the text, or its lines, exceeds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(DEEP_CONFIG, samples=200)))
    argv = ["construct", "--config", str(cfg), "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "points.txt").stat().st_size


def _table_oracle(kind, mhash, header, template, rows) -> bytes:
    # the table write_table writes, rendered and joined row by row
    return (f"polyfrac-{kind} v1\n# manifest {mhash}\n{header}\n"
            + "".join(template % row for row in rows)).encode()


def test_write_table_chunks_match_row_by_row(tmp_path):
    # rows of one length go out in chunks of 1, 2, 4, ... rows, then of per
    # rows: at each chunk end and one row either side, at per rows and on
    # ragged rows, the chunked file is the row-by-row one
    template = "%06d,%0*x,%s\n"

    def row(i):
        return i, 90, i * 7919, "yz"

    per = cn._CHUNK_BYTES // len(template % row(0))
    ends, size = [0], 1
    while ends[-1] < 3 * per:
        ends.append(ends[-1] + size)
        size = min(2 * size, per)
    counts = {end + d for end in ends for d in (-1, 0, 1)} - {-1}
    for n in sorted(counts | {per - 1, per, per + 1}):
        rows = [row(i) for i in range(n)]
        path = tmp_path / f"rows{n}.csv"
        assert cn.write_table(path, "t", "h", "a,b,c", template,
                              iter(rows)) == n
        assert path.read_bytes() == _table_oracle("t", "h", "a,b,c",
                                                  template, rows), n
    ragged = [(i, 1 + i % 700, i, "y" * (i % 37)) for i in range(3 * per)]
    path = tmp_path / "ragged.csv"
    assert cn.write_table(path, "t", "h", "a,b,c", template,
                          ragged) == 3 * per
    assert path.read_bytes() == _table_oracle("t", "h", "a,b,c", template,
                                              ragged)


@pytest.mark.parametrize("argv,pattern", [
    (["distset", "--pairwise", "--euclid", "24"], "distances.csv"),
    (["profile"], "profiles_*.csv"),
], ids=["distset-pairwise", "profile"])
def test_tables_are_written_in_bounded_chunks(tmp_path, capsys, argv,
                                              pattern):
    # 190 rows of 11520-bit distances, or 11520 places per profile: the
    # traced peak of a rerun (its imports done) stays below every table it
    # writes, which a writer holding the text, its lines or its rows exceeds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DEEP_CONFIG))
    construct(str(cfg), tmp_path)
    argv = [argv[0], "--config", str(cfg), "--out", str(tmp_path), *argv[1:]]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sizes = [path.stat().st_size for path in tmp_path.glob(pattern)]
    assert sizes and peak < min(sizes), (peak, sizes)


def test_read_points_streams_points_file(tmp_path):
    # read_points reads points.txt one row at a time: on the same deep file
    # its traced peak stays below the file, which a reader holding the text,
    # or its lines, exceeds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(DEEP_CONFIG, samples=200)))
    construct(str(cfg), tmp_path)
    path = tmp_path / "points.txt"
    tracemalloc.start()
    try:
        points, _ = read_points(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 201
    assert peak < path.stat().st_size


# the pairwise benchmark workload's shape at 200 samples
PAIRWISE_CONFIG = {"dimension": 3, "s": "9/4", "norm": {"preset": "l1"},
                   "schedule": {"c": "auto", "m": [1, 16, 32, 96]},
                   "seed": 7, "samples": 200, "scales": [8, 12, 16]}


@pytest.mark.parametrize("config,digest", [
    (DEEP_CONFIG, "f3889977e4a9c383498cb0f6a0fb3629"
     "bf20bf588662f294ae45c512867b61fd"),
    (PAIRWISE_CONFIG, "95aabb64a4377af1f1c59d0db4574192"
     "aaabffe76da4caf414a8e3fc7fd8a3d5"),
], ids=["deep", "pairwise"])
def test_deep_points_golden_digest(tmp_path, config, digest):
    # test_points_golden_digest draws at most 64 bits per run in d=2; these
    # draw across several 512-bit blocks (up to 9600 bits) and in d=3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    construct(str(cfg), tmp_path)
    blob = (tmp_path / "points.txt").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_pairwise_distances_golden_digest(tmp_path):
    # the four-functional l1 pairwise path with Floyd's sampling and the
    # Euclidean column; the other pairwise pins use TIED_NORM or DEEP_CONFIG
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(PAIRWISE_CONFIG))
    construct(str(cfg), tmp_path)
    assert main(["distset", "--config", str(cfg), "--out", str(tmp_path),
                 "--pairwise", "--budget", "2000", "--euclid", "24"]) == 0
    blob = (tmp_path / "distances.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "4f5433a47af00edaaf8ca42305a9a3e6"
        "22fa71a38688b8ec88610fac2f467906")


def test_distances_fields_decode(tmp_path):
    # README rule: a field at precision p is the mantissa << pad in lowercase
    # hex, pad = 4 * ceil(p / 4) - p, one digit wider when the value is >= 1;
    # at --euclid 0 (pad 0) it is the integer part.  Unlike a points.txt
    # field, a field here has no fixed width.
    cfg = write_config(tmp_path / "cfg.json", norm=TIED_NORM, samples=200,
                       scales=[8, 12], budget=None)
    construct(cfg, tmp_path)
    assert main(["distset", "--config", cfg, "--out", str(tmp_path),
                 "--euclid", "0"]) == 0
    points, _ = read_points(tmp_path / "points.txt")
    rows = (tmp_path / "distances.csv").read_text().splitlines()[3:]
    faces = [[Fraction(m, 1 << f.precision) for m in f.mantissas]
             for f in custom_norm(TIED_NORM["custom"]).functionals]

    def decode(field, prec):
        assert field == field.lower()
        pad = 4 * ((prec + 3) // 4) - prec
        v = int(field, 16)
        assert v & ((1 << pad) - 1) == 0
        return Fraction(v >> pad, 1 << prec)

    widths, euclid = set(), set()
    for row in rows:
        pair, _, dist, prec, e, eprec = row.split(",")
        i, j = map(int, pair.split("-"))
        diff = [Fraction(a - b, 1 << points[i].precision)
                for a, b in zip(points[i].mantissas, points[j].mantissas)]
        assert decode(dist, int(prec)) == max(
            abs(sum(c * t for c, t in zip(v, diff))) for v in faces)
        assert eprec == "0"
        sq = sum(t * t for t in diff)
        assert decode(e, 0) == math.isqrt(sq.numerator // sq.denominator)
        widths.add(len(dist) - (int(prec) + 3) // 4)
        euclid.add(e)
    assert widths == {0, 1} and euclid == {"0", "1"}


def test_negative_euclid_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    construct(cfg, tmp_path)
    capsys.readouterr()
    assert main(["distset", "--config", cfg, "--out", str(tmp_path),
                 "--euclid", "-1"]) == 2
    err = capsys.readouterr().err
    assert "argument --euclid: must be an integer >= 0" in err
    assert main(["distset", "--config", cfg, "--out", str(tmp_path),
                 "--euclid", "abc"]) == 2
    err = capsys.readouterr().err
    assert "argument --euclid: must be an integer >= 0, not 'abc'" in err
    assert not (tmp_path / "distances.csv").exists()


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
    {"schedule": {"c": "auto", "m": [1, 16.5, 32, 96]}},
    {"schedule": {"c": "auto", "m": [True, 16, 32, 96]}},
    {"schedule": {"c": "auto", "rule": "geometric", "K": True},
     "scales": None},
    # zero-block schedules resolve "checkpoints" to no scales at all
    {"schedule": {"c": "auto", "rule": "geometric", "K": 0}, "scales": None},
    {"schedule": {"c": "auto", "m": [1]}, "scales": None},
    {"schedule": {"c": 4.0, "m": [1, 16, 32, 96]}},
    {"schedule": {"c": True, "m": [1, 16, 32, 96]}},
    {"schedule": {"c": "auto", "rule": "geometric", "K": 3, "ratio": True},
     "scales": None},
    {"norm": {"custom": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}},
    {"schedule": 5},
    {"schedule": [1, 2]},
    {"schedule": "x"},
    # two schedule forms, two norm forms, unknown keys: each was resolved
    # by dropping what it could not read
    {"schedule": {"c": "auto", "m": [1, 16, 32, 96], "rule": "geometric",
                  "K": 9}},
    {"schedule": {"c": "auto", "m": [1, 16, 32, 96], "ratio": 3}},
    {"norm": {"preset": "linf",
              "custom": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}},
    {"sampels": 9},
    {"norm": {"preset": "linf", "precison": 3}},
    {"schedule": {"c": "auto", "m": [1, 16, 32, 96], "margin": 3}},
])
def test_config_rejection(tmp_path, overrides, capsys):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,message", [
    ({"dimension": None}, "missing key 'dimension'"),
    ({"norm": None}, "missing key 'norm'"),
    ({"schedule": {"rule": "geometric"}, "scales": None}, "missing key 'K'"),
    # neither is iterated item by item, nor fails as a bare TypeError
    ({"schedule": {"c": "auto", "m": 5}},
     "schedule.m must be a JSON array, not 5"),
    ({"schedule": {"c": "auto", "m": "1,16"}},
     "schedule.m must be a JSON array, not '1,16'"),
    ({"scales": "abc"},
     'scales must be "checkpoints" or a JSON array, not \'abc\''),
    ({"scales": {"8": 1}},
     'scales must be "checkpoints" or a JSON array, not {\'8\': 1}'),
    # a 3-D custom table under dimension 2
    ({"norm": {"custom": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                          [[0, 0], [0, 0], [1, 0]]]}},
     "custom norm dimension != config dimension"),
], ids=["dimension", "norm", "K", "m-number", "m-string", "scales-string",
        "scales-object", "custom-dimension"])
def test_config_rejection_names_the_key(tmp_path, overrides, message,
                                        capsys):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("norm", [{"preset": "l1"}, HEX_NORM],
                         ids=["preset", "custom"])
def test_one_config_resolves_to_equal_specs(norm):
    # norms compare by value, so two resolutions of one config build
    # distinct but equal specs that hash alike
    cfg = {**CONFIG, "norm": norm, "schedule": {"c": "auto", "K": 3,
                                                "rule": "geometric"}}
    a, b = (_resolve(json.loads(json.dumps(cfg))).spec for _ in range(2))
    assert a.norm is not b.norm
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_margin_error_names_integer_rule(tmp_path, capsys):
    # 4 is above the linf minimum of 3: the fault is the float, not the size
    cfg = write_config(tmp_path / "cfg.json",
                       schedule={"c": 4.0, "m": [1, 16, 32, 96]})
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "schedule.c must be an integer" in err
    assert "too small" not in err


def test_margin_below_norm_minimum_refused_by_spec(tmp_path, capsys):
    # 2 is below the linf minimum of 3; FractalSpec is the one place that
    # refuses it, after the schedule is built
    cfg = write_config(tmp_path / "cfg.json",
                       schedule={"c": 2, "m": [1, 16, 32, 96]})
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "margin 2 below norm requirement 3" in capsys.readouterr().err


@pytest.mark.parametrize("ratio", ["3/2", "9/2"])
def test_ratio_reads_like_s(tmp_path, ratio):
    # 3/2 never beats the k * m_k growth; 9/2 does past the first block
    cfg = write_config(tmp_path / "cfg.json", scales="checkpoints",
                       schedule={"c": "auto", "rule": "geometric", "K": 4,
                                 "ratio": ratio})
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "manifest.profile.json").read_text())
    norm = preset("linf", 2)
    want = generate(free_fraction(Fraction(3, 2), 2), min_margin(norm),
                    norm.n_functionals, K=4, ratio=Fraction(ratio))
    assert got["resolved"]["schedule"]["m"] == list(want.bounds)


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
    assert main(["sample", "--config", "cfg.json"]) == 2  # no such command
    capsys.readouterr()


def test_out_directory_created(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    nested = tmp_path / "deep" / "er" / "dir"
    assert main(["profile", "--config", cfg, "--out", str(nested)]) == 0
    assert (nested / "profiles_set.csv").exists()


@pytest.mark.parametrize("command,out,named", [
    ("profile", "file", "file"),  # --out is a file
    ("profile", "file/sub", "file/sub"),  # --out lies under a file
    ("verify", "dir", "dir/points.txt"),  # points.txt is a directory
    ("profile", None, None),  # --out is empty; profile reads no input
])
def test_unusable_paths_are_exit_2(tmp_path, capsys, command, out, named):
    cfg = write_config(tmp_path / "cfg.json")
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "points.txt").mkdir(parents=True)
    out = "" if out is None else str(tmp_path / out)
    assert main([command, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("path error: ")
    assert (repr("") if named is None else str(tmp_path / named)) in err


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    proc = subprocess.run(
        [sys.executable, "-m", "polyfrac", "profile", "--config", cfg,
         "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "manifest.profile.json").exists()


def test_geometric_rule_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       schedule={"c": "auto", "rule": "geometric", "K": 3},
                       scales="checkpoints")
    assert main(["profile", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "manifest.profile.json").read_text())
    m = doc["resolved"]["schedule"]["m"]
    assert m[0] == 1 and len(m) == 4
    assert doc["resolved"]["scales"] == m[1:]
