"""Command-line interface: exit codes, output formats, generators."""

import json
import math

import numpy as np
import pytest

from hypercongruence import cli
from hypercongruence.cli import MAX_GENERATE, main
from hypercongruence.fileio import read_points, write_points
from hypercongruence.geom import EPS_EQ
from hypercongruence.harness import gen_congruent_pair


@pytest.fixture
def pair_files(tmp_path, rng):
    a, b, _, _ = gen_congruent_pair(30, 5)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_points(pa, a)
    write_points(pb, b)
    return str(pa), str(pb)


class TestTest:
    def test_congruent_exit_zero(self, pair_files, capsys):
        rc = main(["test", *pair_files])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("congruent")

    def test_not_congruent_exit_one(self, pair_files, tmp_path, capsys):
        pa, pb = pair_files
        pts, _ = read_points(pb)
        pts[4] += 1e-2
        pc = tmp_path / "c.txt"
        write_points(pc, pts)
        rc = main(["test", pa, str(pc)])
        assert rc == 1
        assert "not congruent" in capsys.readouterr().out

    def test_default_tolerance_is_eps_eq(self, pair_files, monkeypatch,
                                         capsys):
        seen = []
        decide = cli.congruence_test_4d

        def spy(a, b, opts, *args, **kwargs):
            seen.append(opts.eps_eq)
            return decide(a, b, opts, *args, **kwargs)

        monkeypatch.setattr(cli, "congruence_test_4d", spy)
        assert main(["test", *pair_files]) == 0
        assert main(["test", "--tolerance", "1e-8", *pair_files]) == 0
        assert seen == [EPS_EQ, 1e-8]
        with pytest.raises(SystemExit):
            main(["test", "--help"])
        assert f"(default {EPS_EQ:g})" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
    def test_bad_tolerance_exit_two(self, pair_files, capsys, tol):
        assert main(["test", f"--tolerance={tol}", *pair_files]) == 2
        assert "eps_eq must be positive and finite" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        rc = main(["test", str(tmp_path / "x.txt"), str(tmp_path / "y.txt")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_names_line(self, tmp_path, pair_files, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4\n1 2 3\n")
        rc = main(["test", pair_files[0], str(bad)])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_cardinality_mismatch_exit_two(self, tmp_path, pair_files,
                                           capsys):
        short = tmp_path / "short.txt"
        pts, _ = read_points(pair_files[0])
        write_points(short, pts[:10])
        rc = main(["test", pair_files[0], str(short)])
        assert rc == 2

    def test_json_output(self, pair_files, capsys):
        rc = main(["test", "--json", *pair_files])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "congruent"
        rot = np.array(doc["rotation"])
        assert rot.shape == (4, 4)
        assert np.allclose(rot @ rot.T, np.eye(4), atol=1e-9)
        assert len(doc["translation"]) == 4
        assert doc["reflected"] is False

    def test_json_negative_carries_stage(self, pair_files, tmp_path, capsys):
        pa, pb = pair_files
        pts, _ = read_points(pb)
        pts *= 2.0
        pc = tmp_path / "scaled.txt"
        write_points(pc, pts)
        rc = main(["test", "--json", pa, str(pc)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "not_congruent"
        assert doc["stage"]

    def test_trace_json(self, pair_files, capsys):
        rc = main(["test", "--json", "--trace", *pair_files])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stage_trace"]
        for entry in doc["stage_trace"]:
            assert set(entry) == {"stage", "key_a", "key_b"}

    def test_trace_after_iterative_pruning(self, tmp_path, capsys):
        # 300 points on a great circle keep a radius class of 300 points,
        # so iterative pruning runs and its keys reach the trace
        th = np.arange(300) * 2 * np.pi / 300
        circle = np.c_[np.cos(th), np.sin(th), np.zeros(300), np.zeros(300)]
        pa, pb = tmp_path / "c.txt", tmp_path / "c2.txt"
        write_points(pa, circle)
        write_points(pb, circle[::-1] + 1.0)
        rc = main(["test", "--json", "--trace", str(pa), str(pb)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        stages = [e["stage"] for e in doc["stage_trace"]]
        assert "sphere" in stages
        assert main(["test", "--trace", str(pa), str(pb)]) == 0
        assert "trace sphere:" in capsys.readouterr().err

    def test_reflection_flag(self, tmp_path, capsys, rng):
        ch = np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0],
                       [0, 0, 3, 0], [0, 0, 0, 4]])
        chm = ch.copy()
        chm[:, 0] *= -1
        pa, pb = tmp_path / "ch.txt", tmp_path / "chm.txt"
        write_points(pa, ch)
        write_points(pb, chm)
        assert main(["test", str(pa), str(pb)]) == 1
        capsys.readouterr()
        assert main(["test", "--reflect", str(pa), str(pb)]) == 0
        out = capsys.readouterr().out
        assert "reflection" in out

    def test_labeled_files(self, tmp_path, capsys, rng):
        pts = rng.normal(size=(6, 4))
        labs = ["u", "v", "u", "w", "v", "u"]
        pa, pb = tmp_path / "la.txt", tmp_path / "lb.txt"
        write_points(pa, pts, labels=labs)
        write_points(pb, pts, labels=labs)
        assert main(["test", str(pa), str(pb)]) == 0
        swapped = list(labs)
        swapped[0], swapped[3] = swapped[3], swapped[0]
        write_points(pb, pts, labels=swapped)
        assert main(["test", str(pa), str(pb)]) == 1


class TestGenerate:
    def test_random_family(self, tmp_path):
        out = tmp_path / "r.txt"
        rc = main(["generate", "random", "100", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        pts, _ = read_points(out)
        assert pts.shape == (100, 4)

    def test_torus_grid_family(self, tmp_path):
        out = tmp_path / "g.txt"
        rc = main(["generate", "torus-grid", "5", "6", "0.6",
                   "--out", str(out)])
        assert rc == 0
        pts, _ = read_points(out)
        assert pts.shape == (30, 4)

    def test_torus_grid_family_default_radius(self, tmp_path):
        out = tmp_path / "g.txt"
        rc = main(["generate", "torus-grid", "5", "6", "--out", str(out)])
        assert rc == 0
        pts, _ = read_points(out)
        assert pts.shape == (30, 4)
        assert np.allclose(np.linalg.norm(pts[:, :2], axis=1),
                           1 / math.sqrt(2))

    def test_helix_family_given_radius(self, tmp_path):
        out = tmp_path / "h.txt"
        rc = main(["generate", "helix", "24", "5", "0.7", "--out", str(out)])
        assert rc == 0
        pts, _ = read_points(out)
        assert pts.shape == (24, 4)

    def test_helix_family_default_radius(self, tmp_path):
        out = tmp_path / "h.txt"
        rc = main(["generate", "helix", "24", "5", "--out", str(out)])
        assert rc == 0
        pts, _ = read_points(out)
        assert pts.shape == (24, 4)

    def test_polytope_family(self, tmp_path):
        out = tmp_path / "p.txt"
        rc = main(["generate", "polytope", "24-cell", "--out", str(out)])
        assert rc == 0
        pts, _ = read_points(out)
        assert pts.shape == (24, 4)

    def test_hopf_family(self, tmp_path):
        out = tmp_path / "hf.txt"
        rc = main(["generate", "hopf", "3", "8", "--out", str(out)])
        assert rc == 0
        pts, _ = read_points(out)
        assert pts.shape == (24, 4)

    def test_pair_family_writes_two_files(self, tmp_path):
        out = tmp_path / "pp.txt"
        rc = main(["generate", "pair", "40", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        a, _ = read_points(out)
        b, _ = read_points(str(out) + ".b")
        assert a.shape == b.shape == (40, 4)
        assert main(["test", str(out), str(out) + ".b"]) == 0

    def test_size_guard_rejects_before_building(self, tmp_path, capsys):
        rc = main(["generate", "torus-grid", "9000", "9000", "0.5",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert f"exceed {MAX_GENERATE} points" in capsys.readouterr().err

    def test_size_guard_counts_pairs(self, tmp_path, capsys):
        out = tmp_path / "pp.txt"
        rc = main(["generate", "pair", str(MAX_GENERATE + 1),
                   "--out", str(out)])
        assert rc == 2
        assert f"exceed {MAX_GENERATE} points" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_parameter_count(self, tmp_path, capsys):
        rc = main(["generate", "polytope", "--out", str(tmp_path / "x.txt")])
        assert rc == 2

    def test_pair_takes_one_parameter(self, tmp_path):
        rc = main(["generate", "pair", "3", "4",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2

    def test_bad_parameter_value(self, tmp_path):
        rc = main(["generate", "helix", "40", "8", "--out",
                   str(tmp_path / "x.txt")])
        assert rc == 2

    def test_random_needs_a_point(self, tmp_path):
        rc = main(["generate", "random", "0", "--out",
                   str(tmp_path / "x.txt")])
        assert rc == 2


class TestOracle:
    def test_verdicts(self, tmp_path, capsys):
        a, b, _, _ = gen_congruent_pair(8, 11)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        write_points(pa, a)
        write_points(pb, b)
        assert main(["oracle", str(pa), str(pb)]) == 0
        assert "congruent" in capsys.readouterr().out
        write_points(pb, b + [1e-2, 0, 0, 0] * np.eye(4)[0])
        b2 = b.copy()
        b2[0] += 1e-2
        write_points(pb, b2)
        assert main(["oracle", str(pa), str(pb)]) == 1
        assert "not congruent" in capsys.readouterr().out

    def test_size_guard(self, tmp_path, capsys, rng):
        pts = rng.normal(size=(11, 4))
        pa = tmp_path / "a.txt"
        write_points(pa, pts)
        assert main(["oracle", str(pa), str(pa)]) == 2

    def test_rejects_labeled_files(self, tmp_path, rng):
        pts = rng.normal(size=(4, 4))
        pa = tmp_path / "a.txt"
        write_points(pa, pts, labels=["x"] * 4)
        assert main(["oracle", str(pa), str(pa)]) == 2


class TestBench:
    def test_csv_and_slope(self, capsys):
        rc = main(["bench", "--sizes", "64,128", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,seconds"
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(data) == 2
        for ln in data:
            n, t = ln.split(",")
            assert int(n) in (64, 128)
            assert float(t) > 0
        assert any("log-log slope" in ln for ln in lines)

    def test_bad_sizes(self, capsys):
        assert main(["bench", "--sizes", "64"]) == 2
        assert main(["bench", "--sizes", "1,8"]) == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
