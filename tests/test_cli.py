import json
import math

import numpy as np
import pytest

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
            outs.append(open(out, "rb").read())
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
        assert "at least one direction" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, s_grid",
        [("0,1\n2,3\n40,50\n", "5,10"), ("1,2\n40,50\n", "0,10"), ("1,2,3\n40,50,60\n", "5,10")],
    )
    def test_bad_data_fails_the_sweep(self, tmp_path, data, s_grid):
        spec = write_model(
            tmp_path, "dep.json", {"family": {"name": "dependence", "d": 2}}
        )
        path = tmp_path / "bad.csv"
        path.write_text(data)
        argv = ["converge", "--model", spec, "--data", str(path), "--s-grid", s_grid]
        assert main(argv) == 2

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

    def test_two_forms_rejected(self, tmp_path, points_csv):
        spec = write_model(
            tmp_path, "two.json",
            {"family": {"name": "dependence", "d": 2},
             "polygon": {"vertices": [[1, 0], [0, 1]]}},
        )
        assert main(["eval", "--model", spec, "--points", points_csv, "--op", "cdf"]) == 2

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
            ("measures", "--seed"), ("measures", "--samples"), ("measures", "--tol"),
            ("simulate", "--seed"), ("simulate", "--samples"),
            ("check-theta", "--tol"), ("converge", "--grid"),
        }

    @pytest.mark.parametrize("extra", [["--seed", "3"], ["--samples", "10"], ["--tol", "1e-6"], ["--grid", "64"]])
    def test_eval_rejects_removed_option(self, log2_spec, points_csv, extra):
        argv = ["eval", "--model", log2_spec, "--points", points_csv, "--op", "cdf"]
        assert main(argv) == 0
        assert main(argv + extra) == 1

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
