import io
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxzonoid as mz
from maxzonoid import cli
from maxzonoid.cli import main, read_csv, write_csv


def write_model(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def log2_spec(tmp_path):
    return write_model(
        tmp_path, "log2.json", {"family": {"name": "logistic", "d": 2, "params": {"p": 2.0}}}
    )


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x1,x2\n1.0,1.0\n2.0,0.5\n")
    return str(path)


def _rows_over_blocks():
    rng = np.random.default_rng(5)
    n = cli._CSV_BLOCK + 7
    return rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, (n, 2))


def _frechet_rows_over_blocks(cols):
    # unit Frechet draws, as simulate writes them: nearly all in the integer kernel's range
    return 1.0 / np.random.default_rng(cols).exponential(size=(cli._CSV_BLOCK + 7, cols))


def _powers_of_ten():
    # 10**k and the two doubles on each side of it, inside the kernel's range and at both ends
    p = 10.0 ** np.arange(-13, 18)
    below, above = np.nextafter(p, 0.0), np.nextafter(p, np.inf)
    return np.concatenate([np.nextafter(below, 0.0), below, p, above, np.nextafter(above, np.inf)])[:, None]


def _half_even_ties():
    # m / 2**j for odd m: each one whose 18th significant digit is its last, a 5, is a tie
    m = np.random.default_rng(7).integers(0, 2**52, (63, 64)) * 2 + 1
    return (m / 2.0 ** np.arange(1, 64)[:, None]).reshape(-1, 2)


def _values_formatted_one_by_one():
    tiny = np.finfo(float).tiny
    return np.array([
        0.0, -0.0, 5e-324, tiny / 3, tiny, np.inf, -np.inf, np.nan, -1.5, -1e-7, -0.25, 1e15,
        np.nextafter(1e15, 0.0), 1e17, 1.7976931348623157e308, -1.7976931348623157e308, 1e-11, 1e-300,
    ]).reshape(-1, 3)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestEval:
    def test_cdf_values(self, tmp_path, log2_spec, points_csv):
        out = str(tmp_path / "out.csv")
        rc = main(
            ["eval", "--model", log2_spec, "--points", points_csv, "--op", "cdf", "--out", out]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["x1", "x2", "cdf"]
        assert rows[0, 2] == pytest.approx(math.exp(-math.sqrt(2)))

    def test_norm_and_pickands(self, tmp_path, log2_spec):
        pts = tmp_path / "p.csv"
        pts.write_text("0.5\n")
        out = str(tmp_path / "a.csv")
        rc = main(
            ["eval", "--model", log2_spec, "--points", str(pts), "--op", "pickands", "--out", out]
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0, 1] == pytest.approx(1 / math.sqrt(2))


class TestMeasures:
    def test_logistic_document(self, tmp_path, log2_spec):
        out = str(tmp_path / "m.json")
        rc = main(["measures", "--model", log2_spec, "--out", out])
        assert rc == 0
        doc = read_json(out)
        res = doc["results"]
        assert res["kendall_tau"] == pytest.approx(0.5, abs=1e-8)
        assert res["theta"]["1,2"] == pytest.approx(math.sqrt(2))
        assert res["spearman_rho"]["value"] == pytest.approx(0.6822338, abs=1e-6)
        assert doc["version"]

    def test_d3_has_stderr(self, tmp_path):
        spec = write_model(
            tmp_path, "l3.json", {"family": {"name": "logistic", "d": 3, "params": {"p": 2.0}}}
        )
        out = str(tmp_path / "m3.json")
        rc = main(["measures", "--model", spec, "--out", out, "--samples", "20000"])
        assert rc == 0
        res = read_json(out)["results"]
        assert res["multivariate_rho"]["stderr"] > 0
        assert "1,2,3" in res["theta"]

    def test_spearman_written_from_its_estimate(self, tmp_path, log2_spec):
        # a planar norm and a d = 3 norm both reach the simplex quadrature
        l3 = write_model(
            tmp_path, "l3.json", {"family": {"name": "logistic", "d": 3, "params": {"p": 2.0}}}
        )
        for spec in (log2_spec, l3):
            out = str(tmp_path / "m.json")
            assert main(["measures", "--model", spec, "--out", out]) == 0
            rho = read_json(out)["results"]["spearman_rho"]
            assert rho["method"] == "quadrature" and rho["stderr"] > 0


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        spec = write_model(
            tmp_path,
            "mo.json",
            {"family": {"name": "marshall_olkin", "d": 2,
                        "params": {"alpha1": 0.5, "alpha2": 0.5}}},
        )
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            rc = main(
                ["simulate", "--model", spec, "--samples", "1000", "--seed", "7", "--out", out]
            )
            assert rc == 0
            with open(out, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
        header, rows = read_csv(str(tmp_path / "a.csv"))
        assert header == ["x1", "x2"]
        assert rows.shape == (1000, 2)
        assert rows.min() > 0

    def test_spectral_model_form(self, tmp_path):
        spec = write_model(
            tmp_path,
            "atoms.json",
            {"spectral": {"reference_norm": "l1",
                          "atoms": [{"point": [1, 0], "mass": 1.0},
                                    {"point": [0, 1], "mass": 1.0}]}},
        )
        out = str(tmp_path / "s.csv")
        assert main(["simulate", "--model", spec, "--samples", "50", "--seed", "1", "--out", out]) == 0

    def test_records_sampler_and_point_count(self, tmp_path, log2_spec):
        out = str(tmp_path / "s.csv")
        argv = ["simulate", "--model", log2_spec, "--samples", "300", "--seed", "4", "--out", out]
        assert main(argv) == 0
        with open(out) as fh:
            meta = dict(line[2:].strip().split("=", 1) for line in fh if line.startswith("#"))
        assert meta["method"] == "poisson-stop"
        assert int(meta["n_points"]) >= 300
        assert meta["seed"] == "4" and meta["samples"] == "300"


class TestSpectralCommand:
    def test_round_trip_polygon(self, tmp_path):
        vertices = [[1.0, 0.0], [1.0, 0.4], [0.55, 1.0], [0.0, 1.0]]
        spec = write_model(tmp_path, "poly.json", {"polygon": {"vertices": vertices}})
        out1 = str(tmp_path / "atoms.json")
        assert main(["spectral", "--model", spec, "--to-atoms", "--out", out1]) == 0
        atoms_doc = read_json(out1)["results"]
        assert atoms_doc["report"]["is_dependency"]
        spec2 = write_model(tmp_path, "round.json", {"spectral": atoms_doc["spectral"]})
        out2 = str(tmp_path / "poly2.json")
        assert main(["spectral", "--model", spec2, "--to-polygon", "--out", out2]) == 0
        back = np.array(read_json(out2)["results"]["polygon"]["vertices"])
        np.testing.assert_allclose(back, vertices, atol=1e-9)


class TestTheta:
    def test_check_accepts_cube(self, tmp_path):
        spec = write_model(
            tmp_path, "cube.json",
            {"extremal": {"d": 2, "theta": {"1": 1.0, "2": 1.0, "1,2": 2.0}}},
        )
        out = str(tmp_path / "v.json")
        assert main(["check-theta", "--model", spec, "--out", out]) == 0
        assert read_json(out)["results"]["consistent"]

    def test_check_rejects_with_witness(self, tmp_path):
        spec = write_model(
            tmp_path, "bad.json",
            {"extremal": {"d": 2, "theta": {"1,2": 2.5}}},
        )
        out = str(tmp_path / "v.json")
        assert main(["check-theta", "--model", spec, "--out", out]) == 2
        doc = read_json(out)["results"]
        assert not doc["consistent"]
        assert doc["witness_subset"] == "1,2"

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exit2(self, tmp_path, tol, capsys):
        # a NaN tol would pass the -0.5 weight on {1,2} and report the
        # table consistent
        spec = write_model(
            tmp_path, "bad.json",
            {"extremal": {"d": 2, "theta": {"1,2": 2.5}}},
        )
        assert main(["check-theta", "--model", spec, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "tol" in captured.err and "consistent" not in captured.out

    def test_check_nan_theta_exit2(self, tmp_path, capsys):
        # json reads the NaN literal; NaN would pass every weight test
        spec = write_model(tmp_path, "nan.json", {"extremal": {"d": 2, "theta": {"1,2": math.nan}}})
        assert main(["check-theta", "--model", spec]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and "consistent" not in captured.out

    # the extremal form read as a model by load_model, as every model subcommand reads it
    def test_extremal_model_cdf(self, tmp_path, points_csv):
        spec = write_model(tmp_path, "t.json", {"extremal": {"d": 2, "theta": {"1,2": 1.5}}})
        out = str(tmp_path / "cdf.csv")
        assert main(["eval", "--model", spec, "--points", points_csv, "--op", "cdf", "--out", out]) == 0
        assert read_csv(out)[1][0, 2] == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_extremal_model_measures_and_simulate(self, tmp_path):
        theta = {"1,2": 1.5, "1,3": 1.5, "2,3": 1.5, "1,2,3": 2.0}
        spec = write_model(tmp_path, "t3.json", {"extremal": {"d": 3, "theta": theta}})
        out = str(tmp_path / "m.json")
        assert main(["measures", "--model", spec, "--samples", "2000", "--out", out]) == 0
        got = read_json(out)["results"]["theta"]
        assert {k: got[k] for k in theta} == pytest.approx(theta, abs=1e-12)
        out = str(tmp_path / "s.csv")
        assert main(["simulate", "--model", spec, "--samples", "300", "--out", out]) == 0
        assert read_csv(out)[1].shape == (300, 3)

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            # each error quotes the 1-based key as the file writes it, and states the range 1..d
            ("measures", {"extremal": {"d": 2, "theta": {"1,3": 1.5}}},
             'invalid subset "1,3": need a nonempty set of distinct integers in 1..2'),
            ("measures", {"extremal": {"d": 3, "theta": {"1,2": 1.5}}}, "missing subsets"),
            ("check-theta", {"family": {"name": "independence", "d": 2}}, "needs an extremal model file"),
            # one subset named twice, by its indices in another order or by an index named twice
            ("check-theta", {"extremal": {"d": 2, "theta": {"1,2": 1.5, "2,1": 1.2}}},
             'subset "1,2" is named twice, the second time as "2,1"'),
            ("measures", {"extremal": {"d": 3, "theta": {"1,2": 1.5, "1,3": 1.5, "2,3": 1.5, "3,2,1": 2.0,
                                                         "1,2,3": 2.5}}},
             'subset "3,2,1" is named twice, the second time as "1,2,3"'),
            ("construct-theta", {"extremal": {"d": 2, "theta": {"1,1": 1.0, "1,2": 1.5}}},
             'invalid subset "1,1": need a nonempty set of distinct integers in 1..2'),
            ("measures", {"extremal": {"d": 2, "theta": {"a,2": 1.5}}},
             'theta key "a,2" is not a comma-separated list of integers'),
            ("measures", {"extremal": {"d": 2, "theta": {"0,1": 1.5}}},
             'invalid subset "0,1": need a nonempty set of distinct integers in 1..2'),
        ],
    )
    def test_bad_extremal_input_exit2(self, tmp_path, command, doc, message, capsys):
        spec = write_model(tmp_path, "t.json", doc)
        assert main([command, "--model", spec]) == 2
        assert message in capsys.readouterr().err

    def test_a_subset_key_is_its_0_based_tuple_quoted_as_written(self):
        key = cli._SubsetKey("3,1")
        assert key == (2, 0) and hash(key) == hash((2, 0)) and repr(key) == '"3,1"'
        by_key = mz.ExtremalTable(3, {key: 1.5, cli._SubsetKey("2"): 1.0})
        assert by_key.values == mz.ExtremalTable(3, {(0, 2): 1.5, 1: 1.0}).values

    def test_a_library_subset_error_states_the_0_based_range(self):
        with pytest.raises(ValueError, match=r"^invalid subset \(0, 2\): .* in range\(2\)$"):
            mz.ExtremalTable(2, {(0, 2): 1.5})

    def test_a_key_given_twice_in_the_file_exits2(self, tmp_path, capsys):
        # json.load alone keeps the last of two equal keys: theta_12 would read 1.2
        path = tmp_path / "t.json"
        path.write_text('{"extremal": {"d": 2, "theta": {"1,2": 1.5, "1,2": 1.2}}}')
        assert main(["check-theta", "--model", str(path)]) == 2
        assert capsys.readouterr().err == 'error: a model file names "1,2" twice in one object\n'

    def test_construct_emits_model(self, tmp_path):
        spec = write_model(
            tmp_path, "t.json",
            {"extremal": {"d": 2, "theta": {"1,2": 1.5}}},
        )
        out = str(tmp_path / "c.json")
        assert main(["construct-theta", "--model", spec, "--out", out]) == 0
        atoms = read_json(out)["results"]["spectral"]["atoms"]
        assert len(atoms) == 3

    def test_construct_inconsistent_exit2(self, tmp_path, capsys):
        spec = write_model(
            tmp_path, "t.json",
            {"extremal": {"d": 2, "theta": {"1,2": 0.5}}},
        )
        assert main(["construct-theta", "--model", spec]) == 2
        assert "inconsistent" in capsys.readouterr().err


class TestEstimateAndConverge:
    @pytest.fixture
    def sample_csv(self, tmp_path):
        spec = write_model(
            tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}}
        )
        out = str(tmp_path / "data.csv")
        main(["simulate", "--model", spec, "--samples", "5000", "--seed", "3", "--out", out])
        return out

    def test_estimate(self, tmp_path, sample_csv):
        out = str(tmp_path / "est.json")
        rc = main(["estimate", "--data", sample_csv, "--threshold", "20", "--out", out])
        assert rc == 0
        doc = read_json(out)["results"]
        assert doc["n_exceedances"] >= 1
        assert "normalized_polygon" in doc

    def test_estimate_nan_row_exit2(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("x1,x2\n1.5,2.0\nnan,30.0\n40.0,3.0\n50.0,60.0\n")
        assert main(["estimate", "--data", str(data), "--threshold", "5"]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and "n_exceedances" not in captured.out

    def test_converge(self, tmp_path, sample_csv):
        spec = write_model(
            tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}}
        )
        out = str(tmp_path / "conv.csv")
        rc = main(
            ["converge", "--model", spec, "--data", sample_csv, "--s-grid", "5,10,20", "--out", out]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "s" and rows.shape == (3, 4)
        assert np.all(rows[:, 2] < 0.2)

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_empty_direction_grid_rejected(self, tmp_path, sample_csv, grid, capsys):
        spec = write_model(
            tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}}
        )
        argv = ["converge", "--model", spec, "--data", sample_csv, "--s-grid", "5,10"]
        assert main(argv + ["--grid", grid]) == 2
        assert f"grid_n must be at least 1, got {grid}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, s_grid",
        [("0,1\n2,3\n40,50\n", "5,10"), ("1,2\n40,50\n", "0,10"), ("1,2,3\n40,50,60\n", "5,10"),
         ("1e308,1e308\n40,50\n", "5,10")],  # a finite row whose norm overflows
    )
    def test_bad_data_fails_the_sweep(self, tmp_path, data, s_grid):
        spec = write_model(
            tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}}
        )
        path = tmp_path / "bad.csv"
        path.write_text(data)
        argv = ["converge", "--model", spec, "--data", str(path), "--s-grid", s_grid]
        assert main(argv) == 2

    @pytest.mark.parametrize("s_grid", ["5,nan,20", "5,inf"])
    def test_non_finite_threshold_rejected(self, tmp_path, sample_csv, s_grid, capsys):
        # both pass the increasing check
        spec = write_model(
            tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}}
        )
        out = str(tmp_path / "conv.csv")
        argv = ["converge", "--model", spec, "--data", sample_csv, "--s-grid", s_grid]
        assert main(argv + ["--out", out]) == 2
        assert "positive and finite" in capsys.readouterr().err

    def test_grid_needs_an_off_axis_direction(self, tmp_path, capsys):
        # independent Pareto data against complete dependence: a grid on the
        # axes alone would read the two sets as equal
        spec = write_model(tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}})
        data = tmp_path / "ind.csv"
        write_csv(str(data), ["x1", "x2"], 1.0 / np.random.default_rng(4).random((2000, 2)), {})
        out = str(tmp_path / "conv.csv")
        argv = ["converge", "--model", spec, "--data", str(data), "--s-grid", "5,10", "--out", out]
        assert main(argv + ["--grid", "1"]) == 2
        assert "off-axis" in capsys.readouterr().err
        assert main(argv + ["--grid", "2"]) == 0
        assert np.all(read_csv(out)[1][:, 2] > 0.3)

    def test_decreasing_grid_rejected(self, tmp_path, sample_csv):
        spec = write_model(
            tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}}
        )
        rc = main(["converge", "--model", spec, "--data", sample_csv, "--s-grid", "10,5"])
        assert rc == 2


class TestQuantile:
    def test_curve_points_satisfy_cdf(self, tmp_path, log2_spec):
        out = str(tmp_path / "q.csv")
        rc = main(
            ["quantile", "--model", log2_spec, "--alpha", "0.3", "--points", "40", "--out", out]
        )
        assert rc == 0
        _, rows = read_csv(out)
        h = np.hypot(1 / rows[:, 0], 1 / rows[:, 1])
        np.testing.assert_allclose(np.exp(-h), 0.3, atol=1e-9)


class TestCsv:
    def test_read_skips_comments_blank_lines_and_header(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# seed=1\n\nx1, x2\n 1.5 , 2\n   \n# note\n3,4\n")
        header, rows = read_csv(str(path))
        assert header == ["x1", "x2"]
        np.testing.assert_array_equal(rows, [[1.5, 2.0], [3.0, 4.0]])

    def test_header_only_has_no_data(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("# seed=1\nx1,x2\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(str(path))

    @pytest.mark.parametrize(
        "text, header, rows",
        [
            ("x1,x2\n\n1,2\n\n\n3,4\n\n", ["x1", "x2"], [[1, 2], [3, 4]]),
            ("x1,x2\n# after the header\n1,2\n#\n3,4\n", ["x1", "x2"], [[1, 2], [3, 4]]),
            ("# seed=1\r\nx1,x2\r\n1.5,2\r\n\r\n3,4\r\n", ["x1", "x2"], [[1.5, 2], [3, 4]]),
            (" a , b \n  1.5 ,  2.5  \n\t3\t,\t4\t\n", ["a", "b"], [[1.5, 2.5], [3, 4]]),
            ("a,b\n1,2 # a note\n3,4#\n", ["a", "b"], [[1, 2], [3, 4]]),
            ("a,b\nnan,1\n2,NaN\ninf,-inf\n", ["a", "b"], [[np.nan, 1], [2, np.nan], [np.inf, -np.inf]]),
            ("\n# no header\n1,2\n3,4", None, [[1, 2], [3, 4]]),
            # a line of spaces and an indented '#': the rows filtered in Python
            ("a,b\n1,2\n   \n  # indented\n3,4\n", ["a", "b"], [[1, 2], [3, 4]]),
        ],
    )
    def test_read_edge_cases(self, tmp_path, text, header, rows):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        got_header, got = read_csv(str(path))
        assert got_header == header
        np.testing.assert_array_equal(got, rows)

    @pytest.mark.parametrize("text", ["", "\n\n", "# only\n#\n", "x1,x2\n\n# more\n  \n"])
    def test_no_data_rows(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(str(path))

    def test_bad_row_raises(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,b\n1,2\n3,x\n")
        with pytest.raises(ValueError, match="could not convert"):
            read_csv(str(path))

    def test_write_then_read_special_values(self, tmp_path):
        out = str(tmp_path / "out.csv")
        rows = [[np.nan, np.inf], [-np.inf, -0.0], [1 / 3, 5]]
        write_csv(out, ["a", "b"], rows, {"seed": 1})
        with open(out) as fh:
            text = fh.read()
        assert text == "# seed=1\na,b\nnan,inf\n-inf,-0\n0.33333333333333331,5\n"
        header, back = read_csv(out)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(back, rows)
        assert math.copysign(1.0, back[1, 1]) == -1.0

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([[np.nan, np.inf], [-np.inf, -0.0], [0.0, 1 / 3]]),
            np.array([[5e-324], [1e-300], [-1.7976931348623157e308], [0.1]]),
            np.array([[1.0, -2.5, 3e-17, 12345678901234567.0]]),
            np.empty((0, 3)),
            _rows_over_blocks(),
            _powers_of_ten(),
            _half_even_ties(),
            _values_formatted_one_by_one(),
            _frechet_rows_over_blocks(1),
            _frechet_rows_over_blocks(3),
            # F-ordered, as simulate passes its (d, n) draws transposed
            np.asfortranarray(_frechet_rows_over_blocks(2)[:5000]),
        ],
        ids=["special", "one-column", "one-row", "no-rows", "blocks", "powers-of-ten", "half-even-ties",
             "one-by-one", "blocks-one-column", "blocks-three-columns", "fortran-order"],
    )
    def test_bytes_match_savetxt(self, tmp_path, rows):
        out = tmp_path / "out.csv"
        header = [f"c{i}" for i in range(rows.shape[1])]
        write_csv(str(out), header, rows, {"seed": 1})
        want = io.StringIO()
        np.savetxt(want, rows, fmt="%.17g", delimiter=",")
        assert out.read_bytes() == ("# seed=1\n" + ",".join(header) + "\n" + want.getvalue()).encode()

    def test_the_double_nearest_1e_7_keeps_its_exponent(self, tmp_path):
        # its truncated digits are 16 nines: rounded to 17 digits it is not 1e-07
        out = tmp_path / "out.csv"
        write_csv(str(out), ["x"], [[1e-7], [np.nextafter(1e-7, 1.0)]], {})
        assert out.read_text() == "x\n9.9999999999999995e-08\n1.0000000000000001e-07\n"

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        cols=st.integers(1, 3),
        kind=st.sampled_from(["bits", "kernel range"]),
    )
    def test_each_value_is_its_percent_17g(self, tmp_path_factory, data, cols, kind):
        value = {
            "bits": st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]),
            "kernel range": st.floats(1e-12, 1e16),
        }[kind]
        rows = data.draw(st.lists(st.lists(value, min_size=cols, max_size=cols), min_size=1, max_size=20))
        out = tmp_path_factory.getbasetemp() / "each_value.csv"
        write_csv(str(out), ["c"] * cols, rows, {})
        want = "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)
        assert out.read_text() == ",".join(["c"] * cols) + "\n" + want


class TestCountsFailLoudly:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--samples", "0"],
            ["--samples", "-5"],
            ["--max-subset-size", "0"],
            ["--max-subset-size", "-1"],
        ],
    )
    def test_measures(self, tmp_path, extra, capsys):
        spec = write_model(
            tmp_path, "l3.json", {"family": {"name": "logistic", "d": 3, "params": {"p": 2.0}}}
        )
        assert main(["measures", "--model", spec] + extra) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["1", "0", "-2"])
    def test_quantile_points(self, log2_spec, points):
        argv = ["quantile", "--model", log2_spec, "--alpha", "0.5", "--points", points]
        assert main(argv) == 2


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self):
        assert main(["eval", "--op", "cdf"]) == 1

    def test_invalid_spec_is_validation_error(self, tmp_path, points_csv, capsys):
        spec = write_model(
            tmp_path, "bad.json",
            {"family": {"name": "logistic", "d": 2, "params": {"p": 0.2}}},
        )
        assert main(["eval", "--model", spec, "--points", points_csv, "--op", "cdf"]) == 2

    @pytest.mark.parametrize("family, message", [
        ({"name": "independence", "d": 2, "params": {"p": 3.0}}, "unexpected parameters ['p']"),
        ({"name": "dependence", "d": 3, "params": {"lam": 1.0}}, "unexpected parameters ['lam']"),
        ({"name": "logistic", "d": 2}, "family 'logistic' is missing parameters ['p']"),
    ])
    def test_family_parameters_are_checked(self, tmp_path, family, message, capsys):
        spec = write_model(tmp_path, "f.json", {"family": family})
        assert main(["measures", "--model", spec]) == 2
        assert message in capsys.readouterr().err

    def test_two_forms_rejected(self, tmp_path, points_csv):
        spec = write_model(
            tmp_path, "two.json",
            {"family": {"name": "dependence", "d": 2},
             "polygon": {"vertices": [[1, 0], [0, 1]]}},
        )
        assert main(["eval", "--model", spec, "--points", points_csv, "--op", "cdf"]) == 2

    @pytest.mark.parametrize("doc", [
        # a NaN vertex, a NaN mass, a NaN parameter
        {"polygon": {"vertices": [[1, 0], [1, math.nan], [0, 1]]}},
        {"spectral": {"reference_norm": "l1",
                      "atoms": [{"point": [1, 0], "mass": 1.0},
                                {"point": [0, 1], "mass": 1.0},
                                {"point": [0.5, 0.5], "mass": math.nan}]}},
        {"family": {"name": "husler_reiss", "d": 2, "params": {"lam": math.nan}}},
        # chains that double back
        {"polygon": {"vertices": [[1, 0], [0.2, 0.8], [0.6, 0.4], [0, 1]]}},
        {"polygon": {"vertices": [[1, 0], [1, 1], [1, 0.5], [0, 1]]}},
        # a negative mass, which would otherwise read as independence
        {"spectral": {"reference_norm": "l1",
                      "atoms": [{"point": [1, 0], "mass": 1.0},
                                {"point": [0, 1], "mass": 1.0},
                                {"point": [0.5, 0.5], "mass": -1.0}]}},
    ])
    def test_bad_model_file_is_validation_error(self, tmp_path, doc, capsys):
        spec = write_model(tmp_path, "bad.json", doc)
        out = str(tmp_path / "m.json")
        assert main(["measures", "--model", spec, "--samples", "100", "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    # JSON of the wrong type: a one-line message, never a TypeError or
    # AttributeError traceback, and a d of 2.5 is not read as 2; params are
    # numbers or nested lists of them, theta values numbers, atoms a list
    @pytest.mark.parametrize("doc, message", [
        ({"family": {"name": "logistic", "d": 2, "params": None}}, '"params" must be a JSON object, not null'),
        ({"family": {"name": "logistic", "d": 2, "params": [2.0]}}, '"params" must be a JSON object, not [2.0]'),
        ({"family": ["logistic"]}, '"family" must be a JSON object, not ["logistic"]'),
        ({"extremal": {"d": 2, "theta": [1.5]}}, '"theta" must be a JSON object, not [1.5]'),
        ({"family": {"name": "logistic", "d": 2.5, "params": {"p": 2.0}}}, "d must be an integer, got 2.5"),
        ({"family": {"name": "logistic", "d": 2, "params": {"p": None}}}, "parameter 'p' must be a real number, got None"),
        ({"family": {"name": "logistic", "d": 2, "params": {"p": True}}}, "parameter 'p' must be a real number, got True"),
        ({"family": {"name": "matrix_weights", "d": 2, "params": {"matrix": [[1, None], [0, 1]]}}},
         "weight matrix must hold real numbers, got None"),
        ({"extremal": {"d": 2, "theta": {"1,2": None}}}, 'extremal coefficient of "1,2" must be a real number, got None'),
        ({"extremal": {"d": 2, "theta": {"1,2": 10**400}}},
         'extremal coefficient of "1,2" must be a real number within the float range, not an integer beyond it'),
        ({"family": {"name": "logistic", "d": 2, "params": {"p": -(10**400)}}},
         "parameter 'p' must be a real number within the float range, not an integer beyond it"),
        ({"extremal": {"d": 2, "theta": {"1,2": [1.5]}}},
         'extremal coefficient of "1,2" must be a real number, got [1.5]'),
        ({"family": {"name": "logistic", "d": 2, "params": {"p": [2.0, 3.0]}}},
         "parameter 'p' must be a real number, got [2.0, 3.0]"),
        ({"spectral": {"atoms": None}}, '"atoms" must be a JSON list, not null'),
        ({"spectral": {"atoms": [1]}}, "an atom must be a JSON object, not 1"),
        ({"spectral": {"atoms": [{"point": [1, None], "mass": 1}]}}, "atom points must hold real numbers, got None"),
        (5, "a model file must be a JSON object, not 5"),
        # each value is read by the library's reader of its kind, the polygon's vertices too, and
        # true, "1" and "1.5" are not numbers, also inside a list that numpy would read as one
        ({"polygon": {"vertices": [["1", 0], [True, 1], [0, "1"]]}}, "polygon vertices must hold real numbers, got '1'"),
        ({"polygon": {"vertices": [[1, 0], [True, 1], [0, 1]]}}, "polygon vertices must hold real numbers, got True"),
        ({"family": {"name": "logistic", "d": True, "params": {"p": 2.0}}}, "d must be an integer, got True"),
        ({"extremal": {"d": True, "theta": {"1": 1.0}}}, "d must be an integer, got True"),
        ({"spectral": {"atoms": [{"point": [True, 0.5], "mass": 1}, {"point": [0, 1], "mass": 1}]}},
         "atom points must hold real numbers, got True"),
        ({"spectral": {"atoms": [{"point": [1, 0], "mass": "1"}, {"point": [0, 1], "mass": 1}]}},
         "atom masses must hold real numbers, got '1'"),
        ({"extremal": {"d": 2, "theta": {"1,2": "1.5"}}},
         """extremal coefficient of "1,2" must be a real number, got '1.5'"""),
        # a d that no (d, d) float array can hold, refused by the dimension reader
        ({"family": {"name": "independence", "d": 1e300}},
         "d must be at most 1073741823, got an integer beyond 64 bits"),
        ({"family": {"name": "independence", "d": 100000000000}}, "d must be at most 1073741823, got 100000000000"),
        ({"extremal": {"d": 100000000000, "theta": {"1,2": 1.5}}}, "d must be at most 1073741823, got 100000000000"),
        # a finite point whose l2 norm overflows, named rather than read as an atom 0
        ({"spectral": {"reference_norm": "l2", "atoms": [{"point": [1e200, 1e200], "mass": 1}, {"point": [0, 1], "mass": 1}]}},
         "the l2 norm of some point overflows"),
    ])
    def test_malformed_model_file_exits_2(self, tmp_path, doc, message, capsys):
        spec = write_model(tmp_path, "bad.json", doc)
        assert main(["measures", "--model", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("doc, message", [
        # the missing subsets are counted from the keys given, not walked over all 2^40 of them
        ({"extremal": {"d": 40, "theta": {"1,2": 1.5}}},
         "extremal table is missing subsets ['1,3', '2,3', '1,2,3', '1,4', '2,4', '...']: "
         "it names 1 of the 1099511627735 subsets of two or more coordinates"),
        # a dimension by its reader, but the first array, np.eye(d), asks for 8 EiB and fails at once
        ({"family": {"name": "independence", "d": 2**30 - 1}},
         "Unable to allocate 8.00 EiB for an array with shape (1073741823, 1073741823)"),
    ], ids=["extremal-d-40", "independence-d-2**30-1"])
    def test_a_file_beyond_memory_exits_2_at_once(self, tmp_path, doc, message):
        # in a child under a 2 GB address-space limit and a 10 s timeout, so that
        # a regression fails the test instead of exhausting the machine
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))\n"
            "from maxzonoid.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        spec = write_model(tmp_path, "big.json", doc)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)), OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code, "measures", "--model", spec],
                             env=env, capture_output=True, text=True, timeout=10)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith(f"error: {message}") and out.stderr.count("\n") == 1

    @pytest.mark.parametrize("reference", ["l2", "linf"])
    def test_a_zero_point_exits_2_on_every_reference_norm_as_on_l1(self, tmp_path, reference, capsys):
        # its reference norm is 0: 0/0 gave it a NaN mass, with a numpy warning and another message
        atoms = [{"point": p, "mass": 1.0} for p in ([1, 0], [0, 0], [0, 1])]
        errors = []
        for norm in ("l1", reference):
            spec = write_model(tmp_path, "zero.json", {"spectral": {"reference_norm": norm, "atoms": atoms}})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["measures", "--model", spec]) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: a point of positive mass needs a positive coordinate sum\n"] * 2

    def test_integral_dimension_may_be_written_as_a_float(self, tmp_path, capsys):
        docs = [{"family": {"name": "independence", "d": d}} for d in (3, 3.0)]
        outs = []
        for doc in docs:
            assert main(["spectral", "--model", write_model(tmp_path, "m.json", doc), "--to-atoms"]) == 0
            outs.append(json.loads(capsys.readouterr().out)["results"])
        assert outs[0] == outs[1]

    def test_unnormalized_atoms_rejected(self, tmp_path, points_csv):
        spec = write_model(
            tmp_path, "un.json",
            {"spectral": {"reference_norm": "l1",
                          "atoms": [{"point": [1, 0], "mass": 0.5},
                                    {"point": [0, 1], "mass": 1.0}]}},
        )
        assert main(["eval", "--model", spec, "--points", points_csv, "--op", "cdf"]) == 2


class TestSpectralAnalytic:
    def test_to_polygon_discretizes_analytic(self, tmp_path, log2_spec):
        out = str(tmp_path / "p.json")
        rc = main(
            ["spectral", "--model", log2_spec, "--to-polygon", "--atoms", "64", "--out", out]
        )
        assert rc == 0
        doc = read_json(out)["results"]
        assert "discretize_error" in doc
        verts = np.array(doc["polygon"]["vertices"])
        assert np.all(np.linalg.norm(verts[1:-1], axis=1) <= 1.0 + 1e-9)

    def test_eval_pickands_wrong_columns(self, tmp_path, log2_spec, points_csv):
        rc = main(
            ["eval", "--model", log2_spec, "--points", points_csv, "--op", "pickands"]
        )
        assert rc == 2

    def test_empty_points_file(self, tmp_path, log2_spec):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        rc = main(
            ["eval", "--model", log2_spec, "--points", str(empty), "--op", "cdf"]
        )
        assert rc == 2

    def test_malformed_json_model(self, tmp_path, points_csv):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["eval", "--model", str(bad), "--points", points_csv, "--op", "cdf"])
        assert rc == 2


BIVARIATE_FAMILIES = {
    "independence": ("independence", {}),
    "dependence": ("dependence", {}),
    "logistic": ("logistic", {"p": 2.0}),
    "neg_logistic": ("neg_logistic", {"lam": 1.0, "p": -1.0}),
    "husler_reiss": ("husler_reiss", {"lam": 1.0}),
    "husler_reiss_0.5": ("husler_reiss", {"lam": 0.5}),
    "marshall_olkin": ("marshall_olkin", {"alpha1": 0.5, "alpha2": 0.5}),
    "matrix_weights": ("matrix_weights", {"matrix": [[0.5, 0.2], [0.5, 0.8]]}),
}

MODEL_SUBCOMMANDS = {
    "eval-cdf": ["eval", "--points", "{pts}", "--op", "cdf"],
    "eval-copula": ["eval", "--points", "{us}", "--op", "copula"],
    "eval-pickands": ["eval", "--points", "{ts}", "--op", "pickands"],
    "eval-norm": ["eval", "--points", "{pts}", "--op", "norm"],
    "measures": ["measures"],
    "simulate": ["simulate", "--samples", "200"],
    "to-atoms": ["spectral", "--to-atoms"],
    "to-polygon": ["spectral", "--to-polygon"],
    "quantile": ["quantile", "--alpha", "0.9"],
}


class TestEveryFamilyEverySubcommand:
    @pytest.fixture
    def inputs(self, tmp_path):
        files = {"pts": "1.0,1.0\n0.5,2.0\n", "us": "0.3,0.7\n0.9,0.9\n", "ts": "0.0\n0.3\n1.0\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.csv").write_text(text)
        return {name: str(tmp_path / f"{name}.csv") for name in files}

    @pytest.mark.parametrize("command", sorted(MODEL_SUBCOMMANDS))
    @pytest.mark.parametrize("family", sorted(BIVARIATE_FAMILIES))
    def test_runs_at_default_settings(self, tmp_path, inputs, family, command):
        name, params = BIVARIATE_FAMILIES[family]
        spec = write_model(
            tmp_path, "m.json", {"family": {"name": name, "d": 2, "params": params}}
        )
        out = str(tmp_path / "out")
        argv = [tok.format(**inputs) for tok in MODEL_SUBCOMMANDS[command]]
        assert main(argv + ["--model", spec, "--out", out]) == 0
        if command == "eval-pickands":
            _, rows = read_csv(out)
            t = rows[:, 0]
            assert np.all(rows[:, 1] >= np.maximum(t, 1 - t) - 1e-9)
            assert np.all(rows[:, 1] <= 1 + 1e-9)
        if command == "to-atoms":
            assert read_json(out)["results"]["report"]["is_dependency"]


TRIVARIATE_FAMILIES = {
    "independence": ("independence", {}),
    "dependence": ("dependence", {}),
    "logistic_1.5": ("logistic", {"p": 1.5}),
    "logistic_2": ("logistic", {"p": 2.0}),
}


class TestTrivariateFamilies:
    @pytest.fixture(params=sorted(TRIVARIATE_FAMILIES))
    def spec(self, request, tmp_path):
        name, params = TRIVARIATE_FAMILIES[request.param]
        return write_model(tmp_path, f"{name}.json", {"family": {"name": name, "d": 3, "params": params}})

    def test_model_commands_at_default_settings(self, tmp_path, spec):
        pts = tmp_path / "pts.csv"
        pts.write_text("1.0,1.0,1.0\n0.5,2.0,1.0\n")
        us = tmp_path / "us.csv"
        us.write_text("0.3,0.7,0.5\n0.9,0.9,0.9\n")
        out = str(tmp_path / "out")
        for argv in (
            ["simulate", "--samples", "200"],
            ["measures"],
            ["eval", "--points", str(pts), "--op", "cdf"],
            ["eval", "--points", str(us), "--op", "copula"],
            ["eval", "--points", str(pts), "--op", "norm"],
        ):
            assert main(argv + ["--model", spec, "--out", out]) == 0, argv

    def test_to_atoms_is_a_dependency_set(self, tmp_path, spec):
        out = str(tmp_path / "atoms.json")
        assert main(["spectral", "--to-atoms", "--model", spec, "--out", out]) == 0
        res = read_json(out)["results"]
        B = np.array([a["point"] for a in res["spectral"]["atoms"]])
        B = B * np.array([a["mass"] for a in res["spectral"]["atoms"]])[:, None]
        np.testing.assert_allclose(B.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(res["report"]["marginal_sums"], 1.0, atol=1e-12)
        X = np.random.default_rng(3).random((200, 3)) * 4
        h = (X[:, None, :] * B[None]).max(axis=2).sum(axis=1)
        assert np.all(h >= X.max(axis=1) * (1 - 1e-12))
        assert np.all(h <= X.sum(axis=1) * (1 + 1e-12))
        if spec.endswith("logistic.json"):  # the cube and the cross polytope carry atoms
            assert res["discretize_method"] == "nnls-bpp"
            assert res["discretize_atoms"] == len(B) <= 1000
            assert res["discretize_directions"] > 0

    @pytest.mark.parametrize("argv", [["quantile", "--alpha", "0.9"], ["spectral", "--to-polygon"]])
    def test_planar_only_commands_fail(self, tmp_path, spec, argv, capsys):
        assert main(argv + ["--model", spec, "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_too_few_atoms_is_validation_error(self, tmp_path, capsys):
        spec = write_model(tmp_path, "l4.json", {"family": {"name": "logistic", "d": 4, "params": {"p": 2.0}}})
        argv = ["simulate", "--samples", "10", "--atoms", "3", "--model", spec]
        assert main(argv) == 2
        assert "at least 4 atoms" in capsys.readouterr().err


class TestParserReuse:
    def test_calls_do_not_share_arguments(self, tmp_path, log2_spec):
        def simulate(name, *extra):
            out = tmp_path / name
            argv = ["simulate", "--model", log2_spec, "--samples", "50", "--out", str(out)]
            assert main(argv + list(extra)) == 0
            return out.read_bytes()

        plain = simulate("plain.csv")
        assert main(["spectral", "--model", log2_spec, "--to-polygon", "--atoms", "40",
                     "--out", str(tmp_path / "poly.json")]) == 0
        seeded = simulate("seeded.csv", "--seed", "9", "--atoms", "40")
        again = simulate("again.csv")
        assert again == plain != seeded
        assert b"# seed=0\n" in again
        assert main(["spectral", "--model", log2_spec, "--to-atoms",
                     "--out", str(tmp_path / "atoms.json")]) == 0
        assert "spectral" in read_json(tmp_path / "atoms.json")["results"]

    def test_handler_found_at_call_time(self, tmp_path, log2_spec, monkeypatch):
        argv = ["quantile", "--model", log2_spec, "--alpha", "0.5", "--out", str(tmp_path / "q.csv")]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_quantile", lambda args: seen.append(args.alpha) or 0)
        assert main(argv) == 0
        assert seen == [0.5]


class TestOptionsWhereRead:
    def test_each_option_only_where_read(self):
        from maxzonoid.cli import build_parser

        sub = build_parser()._subparsers._group_actions[0].choices
        found = {
            (name, opt)
            for name, p in sub.items()
            for opt in ("--seed", "--samples", "--tol", "--grid")
            if opt in p._option_string_actions
        }
        assert found == {
            ("measures", "--seed"), ("measures", "--samples"),
            ("simulate", "--seed"), ("simulate", "--samples"),
            ("check-theta", "--tol"), ("converge", "--grid"),
        }

    @pytest.mark.parametrize("extra", [["--seed", "3"], ["--samples", "10"], ["--tol", "1e-6"], ["--grid", "64"]])
    def test_eval_rejects_removed_option(self, log2_spec, points_csv, extra):
        argv = ["eval", "--model", log2_spec, "--points", points_csv, "--op", "cdf"]
        assert main(argv) == 0
        assert main(argv + extra) == 1

    def test_measures_rejects_removed_tol(self, log2_spec):
        argv = ["measures", "--model", log2_spec]
        assert main(argv) == 0
        assert main(argv + ["--tol", "1e-6"]) == 1

    def test_converge_rejects_samples(self, tmp_path):
        spec = write_model(tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}})
        data = str(tmp_path / "data.csv")
        assert main(["simulate", "--model", spec, "--samples", "500", "--out", data]) == 0
        argv = ["converge", "--model", spec, "--data", data, "--s-grid", "5,10"]
        assert main(argv) == 0
        assert main(argv + ["--samples", "10"]) == 1

    def test_nan_point_is_validation_error(self, tmp_path, log2_spec):
        pts = tmp_path / "nan.csv"
        pts.write_text("nan,1.0\n")
        for op in ("cdf", "copula", "norm"):
            assert main(["eval", "--model", log2_spec, "--points", str(pts), "--op", op]) == 2


class TestOneDimension:
    @pytest.fixture
    def spec(self, tmp_path):
        return write_model(tmp_path, "l1.json", {"family": {"name": "logistic", "d": 1, "params": {"p": 2}}})

    def test_simulate(self, tmp_path, spec):
        out = str(tmp_path / "s.csv")
        assert main(["simulate", "--model", spec, "--samples", "20", "--out", out]) == 0
        _, rows = read_csv(out)
        assert rows.shape == (20, 1) and np.all(rows > 0)

    def test_to_atoms(self, tmp_path, spec):
        out = str(tmp_path / "a.json")
        assert main(["spectral", "--to-atoms", "--model", spec, "--out", out]) == 0
        atoms = read_json(out)["results"]["spectral"]["atoms"]
        assert atoms == [{"mass": 1.0, "point": [1.0]}]


def _dict_spec(sigma):
    """The atoms as json.dumps writes them from one dict per atom."""
    return {
        "reference_norm": "l1",
        "atoms": [{"point": p.tolist(), "mass": float(m)} for p, m in zip(sigma.atoms, sigma.masses)],
    }


def _json_case(name):
    if name == "logistic fit":
        return mz.discretize(mz.make_family("logistic", 2, p=2.0), 1000).measure
    if name == "d = 3 fit":
        return mz.discretize(mz.make_family("logistic", 3, p=1.5), 500).measure
    if name == "one atom":
        return mz.make_measure([[0.25, 0.75]], [4.0 / 3.0])
    X = 1.0 / -np.log(np.random.default_rng(4).random((3000, 2)))
    return mz.empirical_spectral(X, 20.0)


class TestJsonRows:
    """Atom lists and polygon vertices go to JSON through one % template."""

    @pytest.mark.parametrize("name", ["logistic fit", "empirical", "one atom", "d = 3 fit"])
    def test_atoms_are_the_bytes_of_the_dict_path(self, tmp_path, name):
        sigma = _json_case(name)
        out = tmp_path / "doc.json"
        spec = {"zeta": [1.5, -0.0], "alpha": {"b": 2, "a": "x"}}
        cli.write_json(str(out), {"spec": spec, "results": {"spectral": cli._measure_to_spec(sigma)}})
        want = {"spec": spec, "results": {"spectral": _dict_spec(sigma)}}
        assert out.read_text() == json.dumps(want, sort_keys=True) + "\n"
        assert name != "logistic fit" or sigma.n_atoms == 1001

    def test_polygon_vertices_are_the_bytes_of_the_dict_path(self, tmp_path):
        sigma = _json_case("empirical")
        vertices = mz.polygon_from_spectral(sigma).vertices
        out = tmp_path / "doc.json"
        doc = {"n": sigma.n_atoms, "normalized_polygon": cli._json_rows("[%r, %r]", vertices)}
        cli.write_json(str(out), doc)
        want = {"n": sigma.n_atoms, "normalized_polygon": vertices.tolist()}
        assert out.read_text() == json.dumps(want, sort_keys=True) + "\n"

    def test_a_document_holding_the_placeholder_is_parsed(self, tmp_path):
        sigma = _json_case("one atom")
        out = tmp_path / "doc.json"
        spec = {"note": cli._SPLICE}
        cli.write_json(str(out), {"spec": spec, "spectral": cli._measure_to_spec(sigma)})
        want = {"spec": spec, "spectral": _dict_spec(sigma)}
        assert out.read_text() == json.dumps(want, sort_keys=True) + "\n"
