"""Matrix file round-trips, run reports, CLI subcommands and exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from bwbary import (
    InvalidInput,
    TruncationConfig,
    build_covariance,
    load_matrix,
    save_matrix,
)
from bwbary.cli import main
from bwbary.construct import conjugated_kernel
from bwbary.io import file_digest


def run_cli(*argv):
    return main(list(argv))


class TestMatrixFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        G = rng.standard_normal((5, 5))
        M = G @ G.T / 3.0 + np.pi * np.eye(5)
        path = tmp_path / "m.json"
        save_matrix(path, M, "covariance")
        loaded, kind = load_matrix(path)
        assert kind == "covariance"
        assert np.array_equal(loaded, M)

    def test_schema(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, np.eye(2), "map")
        doc = json.loads(path.read_text())
        assert doc == {"dim": 2, "kind": "map", "data": [1.0, 0.0, 0.0, 1.0]}

    def test_load_rejects_bad_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 1, "kind": "tensor", "data": [1.0]}')
        with pytest.raises(InvalidInput):
            load_matrix(path)

    def test_load_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 2, "kind": "map", "data": [1.0, 2.0]}')
        with pytest.raises(InvalidInput):
            load_matrix(path)

    @pytest.mark.parametrize("dim, data", [
        (2.9, [1.0, 0.0, 0.0, 1.0]),  # int() would truncate it to 2
        (2.0, [1.0, 0.0, 0.0, 1.0]),
        (True, [1.0]),  # int() would read it as 1
        ("2", [1.0, 0.0, 0.0, 1.0]),
    ], ids=["float", "integral_float", "bool", "string"])
    def test_load_rejects_dim_that_is_not_an_integer(self, tmp_path, dim, data):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": dim, "kind": "covariance", "data": data}))
        with pytest.raises(InvalidInput, match="dim must be an integer"):
            load_matrix(path)

    def test_verify_exits_two_on_a_float_dim(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 2.9, "kind": "covariance", "data": [1, 0, 0, 1]}')
        assert run_cli("verify", "--candidate", str(path), "--inputs", str(path)) == 2
        assert "dim must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        ("[true, false, false, true]", "must be JSON numbers, got bool"),  # not read as I
        ('["1", "0", "0", "1e0"]', "must be JSON numbers, got str"),
        ("[true, false, \"0\", \"1e0\"]", "must be JSON numbers, got bool, str"),
        ("[1" + "0" * 400 + ", 0, 0, 1]", "too large for a float"),  # not an OverflowError
    ], ids=["bool", "string", "bool-and-string", "big-integer"])
    def test_verify_exits_two_on_data_that_is_not_a_float(self, tmp_path, capsys, data,
                                                          message):
        path = tmp_path / "m.json"
        path.write_text(f'{{"dim": 2, "kind": "covariance", "data": {data}}}')
        assert run_cli("verify", "--candidate", str(path), "--inputs", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 1, "kind": "covariance"}', "missing 'data'"),
        ('{"dim": 1, "kind": "covariance", "data": [NaN]}', "non-finite entries"),  # json reads it
    ], ids=["no-data", "nan-token"])
    def test_verify_exits_two_on_a_bad_file_and_names_it(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.json"
        path.write_text(text)
        assert run_cli("verify", "--candidate", str(path), "--inputs", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and str(path) in err

    def test_load_takes_integer_entries(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 2, "kind": "covariance", "data": [2, 0, 0, 1.5]}')
        assert np.array_equal(load_matrix(path)[0], np.diag([2.0, 1.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_entries(self, tmp_path, value):
        path = tmp_path / "m.json"
        with pytest.raises(InvalidInput, match="non-finite"):
            save_matrix(path, np.diag([1.0, value]), "covariance")
        assert not path.exists()

    def test_load_rejects_non_psd_covariance(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, -np.eye(2), "covariance")
        with pytest.raises(Exception):
            load_matrix(path)

    def test_load_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"dim": 2, "kind": "map", "data": [1.0, 2.0, 0.0, 1.0]}')
        with pytest.raises(InvalidInput):
            load_matrix(path)


class TestConstructCommand:
    def test_pair_construct(self, tmp_path, capsys):
        rc = run_cli("construct", "--dim", "16", "--decay", "geometric:0.5",
                     "--pair", "--out", str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel_dim=8" in out
        t1, _ = load_matrix(tmp_path / "t1.json")
        t2, _ = load_matrix(tmp_path / "t2.json")
        assert np.array_equal(t1 + t2, 2.0 * np.eye(16))
        sigma, _ = load_matrix(tmp_path / "sigma.json")
        s1, _ = load_matrix(tmp_path / "s1.json")
        np.testing.assert_allclose(s1, t1 @ sigma @ t1, atol=1e-15)

    def test_single_map_construct(self, tmp_path):
        rc = run_cli("construct", "--dim", "2", "--decay", "list:1", "--c", "2",
                     "--out", str(tmp_path))
        assert rc == 0
        t, kind = load_matrix(tmp_path / "t.json")
        assert kind == "map"
        np.testing.assert_array_equal(t, [[2.0, 1.0], [1.0, 2.0]])

    def test_law_construct(self, tmp_path):
        rc = run_cli("construct", "--dim", "8", "--law", "uniform", "--seed", "3",
                     "--out", str(tmp_path))
        assert rc == 0
        t, _ = load_matrix(tmp_path / "t.json")
        assert np.linalg.eigvalsh(t)[0] >= -1e-12

    def test_bad_decay_is_invalid_input(self, tmp_path):
        rc = run_cli("construct", "--dim", "8", "--decay", "exponential:0.5",
                     "--out", str(tmp_path))
        assert rc == 2

    @pytest.mark.parametrize("option, message", [
        # the kept spectrum underflows to 0
        (["--decay", "geometric:1e-200"], "every kept eigenvalue"),
        (["--decay", "list:nan,1,1,1"], "every kept eigenvalue"),
        (["--decay", "list:inf,1,1,1"], "every kept eigenvalue"),
        (["--c", "nan"], "c must be finite"),
        (["--c", "inf"], "c must be finite"),
        (["--dim", "4096"], "every kept eigenvalue"),  # 0.5**2048 underflows to 0
        (["--decay", "geometric:abc"], "bad --decay 'geometric:abc': 'abc' is not a number"),
        (["--decay", "list:"], "bad --decay 'list:': '' is not a number"),
        (["--decay", "list:1,x"], "bad --decay 'list:1,x': 'x' is not a number"),
    ], ids=["underflow", "nan_list", "inf_list", "nan_c", "inf_c", "dim_4096",
            "malformed_ratio", "empty_list", "malformed_list"])
    def test_bad_option_is_invalid_input(self, option, message, tmp_path, capsys):
        argv = ["construct", "--dim", "8", *option, "--out", str(tmp_path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("dim", [64, 128])
    def test_large_dim_kernels_are_exact(self, dim, tmp_path, capsys):
        # the eigenvalue count read 33 at dim 64; the maps give the kernels exactly
        assert run_cli("--report", "json", "construct", "--dim", str(dim), "--pair",
                       "--out", str(tmp_path)) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["kernel_dim_sigma"] == dim // 2
        assert results["kernel_dim_s1"] == results["kernel_dim_s2"] == dim // 2

    @pytest.mark.parametrize("branch", [["--pair"], ["--c", "2"], ["--law", "uniform"]],
                             ids=["pair", "c", "law"])
    def test_report_matches_files_on_disk(self, branch, tmp_path, capsys):
        # the traces come from the matrices in memory, the digests from the
        # files, the kernel dims from (dim + 1) // 2, here checked against the
        # kernels conjugated from the maps on disk
        assert run_cli("--report", "json", "construct", "--dim", "16", *branch,
                       "--out", str(tmp_path)) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        files = sorted(tmp_path.glob("*.json"))
        assert sorted(k for k in results if k.startswith("digest_")) == sorted(
            f"digest_{path.stem}" for path in files)
        for path in files:
            assert results[f"digest_{path.stem}"] == file_digest(path)
            mat, kind = load_matrix(path)
            if kind == "covariance":
                assert results[f"trace_{path.stem}"] == float(np.trace(mat))
                # s, s1 and s2 are conjugated by t, t1 and t2, sigma by the identity
                T = (np.eye(16) if path.stem == "sigma"
                     else load_matrix(tmp_path / f"t{path.stem[1:]}.json")[0])
                assert results[f"kernel_dim_{path.stem}"] == conjugated_kernel(T).shape[1]
            else:
                assert f"trace_{path.stem}" not in results

    def test_single_map_kernel(self, tmp_path, capsys):
        assert run_cli("--report", "json", "construct", "--dim", "64", "--c", "2",
                       "--out", str(tmp_path)) == 0
        assert json.loads(capsys.readouterr().out)["results"]["kernel_dim_s"] == 32

    def test_rank_tol_option_is_gone(self, tmp_path, capsys):
        from bwbary.cli import build_parser

        assert "--rank-tol" not in build_parser().format_help()
        with pytest.raises(SystemExit) as exc:
            run_cli("--rank-tol=1e-13", "construct", "--dim", "8", "--pair",
                    "--out", str(tmp_path))
        assert exc.value.code == 2


@pytest.fixture()
def constructed(tmp_path):
    run_cli("construct", "--dim", "32", "--pair", "--out", str(tmp_path))
    return tmp_path


class TestVerifyCommand:
    def test_constructed_triple_verifies(self, constructed, capsys):
        rc = run_cli("verify", "--candidate", str(constructed / "sigma.json"),
                     "--inputs", str(constructed / "s1.json"),
                     str(constructed / "s2.json"), "--tol", "1e-9")
        assert rc == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_candidate_against_itself(self, constructed):
        rc = run_cli("verify", "--candidate", str(constructed / "s1.json"),
                     "--inputs", str(constructed / "s1.json"))
        assert rc == 0

    def test_perturbed_candidate_fails(self, constructed, tmp_path):
        sigma, _ = load_matrix(constructed / "sigma.json")
        rng = np.random.default_rng(41)
        P = rng.standard_normal(sigma.shape)
        P = (P + P.T) / 2
        P *= 1e-2 / np.linalg.norm(P)
        w, V = np.linalg.eigh(sigma + P)
        perturbed = (V * np.clip(w, 0, None)) @ V.T
        path = tmp_path / "perturbed.json"
        save_matrix(path, perturbed, "covariance")
        rc = run_cli("verify", "--candidate", str(path),
                     "--inputs", str(constructed / "s1.json"),
                     str(constructed / "s2.json"), "--tol", "1e-9")
        assert rc == 1

    def test_zero_candidate_is_reported_as_necessary_condition_only(self, constructed,
                                                                      tmp_path, capsys):
        # the zero matrix meets the fixed-point identity without being the
        # barycentre, so the report must not call a pass a proof
        zero = tmp_path / "zero.json"
        save_matrix(zero, np.zeros((32, 32)), "covariance")
        args = ["verify", "--candidate", str(zero), "--inputs",
                str(constructed / "s1.json"), str(constructed / "s2.json")]
        assert run_cli(*args) == 0
        assert "a necessary condition only" in capsys.readouterr().out
        assert run_cli("--report", "json", *args) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["within_tolerance"] is True
        assert results["necessary_condition_only"] is True

    def test_missing_file_is_invalid_input(self, tmp_path):
        rc = run_cli("verify", "--candidate", str(tmp_path / "nope.json"),
                     "--inputs", str(tmp_path / "nope.json"))
        assert rc == 2

    @pytest.mark.parametrize("option, message", [
        (["--weights", "0.5,nan"], "finite"), (["--tol", "nan"], "finite"),
        (["--tol", "inf"], "finite"), (["--tol=-1e-9"], "finite"),
        (["--weights", "0.5,x"], "error: bad --weights '0.5,x': 'x' is not a number"),
    ], ids=["weights-nan", "tol-nan", "tol-inf", "tol-negative", "weights-malformed"])
    def test_non_finite_option_is_invalid_input(self, option, message, constructed, capsys):
        # a NaN or malformed weight, or a NaN tolerance, is a bad option, not
        # a failed candidate (exit 1)
        rc = run_cli("verify", "--candidate", str(constructed / "sigma.json"),
                     "--inputs", str(constructed / "s1.json"), str(constructed / "s2.json"),
                     *option)
        assert rc == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "barycentre"])
def test_weights_count_must_match_the_inputs(command, constructed, capsys):
    s1, s2 = str(constructed / "s1.json"), str(constructed / "s2.json")
    argv = {
        "verify": ["verify", "--candidate", s1],
        "barycentre": ["barycentre", "--out", str(constructed / "bary.json")],
    }[command]
    assert run_cli(*argv, "--inputs", s1, s2, "--weights", "0.2,0.3,0.5") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "got 3 weights for 2 inputs" in err


class TestBadFiles:
    """Files are read unchecked and checked by their consumer, with the same verdicts."""

    @pytest.fixture()
    def not_psd(self, tmp_path):
        path = tmp_path / "not_psd.json"
        save_matrix(path, np.diag(np.r_[np.ones(31), -1e-3]), "covariance")
        return str(path)

    @pytest.mark.parametrize("command", ["verify_input", "verify_candidate",
                                         "barycentre_input", "barycentre_init"])
    def test_not_psd_exits_two(self, command, constructed, not_psd, capsys):
        s1, s2, sigma = (str(constructed / f"{n}.json") for n in ("s1", "s2", "sigma"))
        out = str(constructed / "bary.json")
        argv = {
            "verify_input": ["verify", "--candidate", sigma, "--inputs", s1, not_psd],
            "verify_candidate": ["verify", "--candidate", not_psd, "--inputs", s1, s2],
            "barycentre_input": ["barycentre", "--inputs", not_psd, s2, "--out", out],
            "barycentre_init": ["barycentre", "--inputs", s1, s2, "--init", not_psd,
                                "--out", out],
        }[command]
        assert run_cli(*argv) == 2
        assert "below PSD tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "barycentre"])
    def test_asymmetric_input_exits_two(self, command, constructed, tmp_path, capsys):
        A = np.eye(32)
        A[0, 1] = 0.5
        path = tmp_path / "asym.json"
        path.write_text(json.dumps({"dim": 32, "kind": "covariance",
                                    "data": A.reshape(-1).tolist()}))
        s1 = str(constructed / "s1.json")
        argv = {
            "verify": ["verify", "--candidate", s1, "--inputs", s1, str(path)],
            "barycentre": ["barycentre", "--inputs", s1, str(path),
                           "--out", str(tmp_path / "bary.json")],
        }[command]
        assert run_cli(*argv) == 2
        assert "not symmetric" in capsys.readouterr().err


class TestBarycentreCommand:
    def test_two_copies(self, tmp_path):
        cov = build_covariance(TruncationConfig(dim=8)) + 0.1 * np.eye(8)
        a = tmp_path / "a.json"
        save_matrix(a, cov, "covariance")
        out = tmp_path / "bary.json"
        rc = run_cli("barycentre", "--inputs", str(a), str(a), "--out", str(out))
        assert rc == 0
        bary, _ = load_matrix(out)
        assert np.linalg.norm(bary - cov) <= 1e-8

    def test_commuting_scalars(self, tmp_path):
        for name, val in (("one.json", 1.0), ("nine.json", 9.0)):
            save_matrix(tmp_path / name, np.array([[val]]), "covariance")
        out = tmp_path / "bary.json"
        rc = run_cli("barycentre", "--inputs", str(tmp_path / "one.json"),
                     str(tmp_path / "nine.json"), "--out", str(out))
        assert rc == 0
        bary, _ = load_matrix(out)
        assert bary[0, 0] == pytest.approx(4.0, abs=1e-10)

    def test_not_converged_exits_one(self, constructed, tmp_path):
        out = tmp_path / "bary.json"
        rc = run_cli("barycentre", "--inputs", str(constructed / "s1.json"),
                     str(constructed / "s2.json"), "--ridge", "1e-6",
                     "--max-iter", "2", "--out", str(out))
        assert rc == 1

    def test_singular_family_with_csv(self, constructed, tmp_path):
        out = tmp_path / "bary.json"
        csv_path = tmp_path / "iters.csv"
        rc = run_cli("barycentre", "--inputs", str(constructed / "s1.json"),
                     str(constructed / "s2.json"), "--ridge", "1e-6",
                     "--ridge-decay", "0.5", "--out", str(out),
                     "--csv", str(csv_path))
        assert rc == 0
        bary, _ = load_matrix(out)
        sigma, _ = load_matrix(constructed / "sigma.json")
        assert np.linalg.norm(bary - sigma) <= 1e-6
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["iteration"] == "1"
        changes = [float(r["change"]) for r in rows]
        assert changes[-1] <= 1e-10
        frechets = [float(r["frechet_value"]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(frechets, frechets[1:]))

    def test_solver_flags_default_to_solver_settings(self, tmp_path, capsys):
        from bwbary import SolverSettings

        G = np.random.default_rng(41).standard_normal((2, 4, 4))
        for i, S in enumerate(G @ np.swapaxes(G, 1, 2)):
            save_matrix(tmp_path / f"s{i}.json", S, "covariance")
        inputs = ("--inputs", str(tmp_path / "s0.json"), str(tmp_path / "s1.json"))
        st = SolverSettings()
        spelled = ("--tol", repr(st.tol), "--max-iter", str(st.max_iter),
                   "--ridge", repr(st.ridge), "--ridge-decay", repr(st.ridge_decay))
        runs = []
        for name, flags in (("default", ()), ("spelled", spelled)):
            capsys.readouterr()
            assert run_cli("--report", "json", "barycentre", *inputs, *flags,
                           "--out", str(tmp_path / f"{name}.json")) == 0
            runs.append((json.loads(capsys.readouterr().out)["results"],
                         (tmp_path / f"{name}.json").read_bytes()))
        assert runs[0] == runs[1]


    @pytest.mark.parametrize("option", [["--tol", "inf"], ["--tol", "nan"], ["--ridge", "nan"],
                                        ["--ridge", "inf"], ["--weights", "nan,0.5"]],
                             ids=["tol-inf", "tol-nan", "ridge-nan", "ridge-inf", "weights-nan"])
    def test_non_finite_option_is_invalid_input(self, option, constructed, tmp_path, capsys):
        # an infinite --tol would report convergence after one step, and an
        # infinite --ridge fails inside LAPACK
        out = tmp_path / "bary.json"
        rc = run_cli("barycentre", "--inputs", str(constructed / "s1.json"),
                     str(constructed / "s2.json"), *option, "--out", str(out))
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestRecurrenceCommand:
    def test_alternating_seed_csv(self, tmp_path, capsys):
        path = tmp_path / "rec.csv"
        rc = run_cli("recurrence", "--y0", "1", "--y1", "0", "--sign", "plus",
                     "--steps", "10", "--csv", str(path))
        assert rc == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[3]["j"] == "3"
        assert float(rows[3]["recurrence"]) == 2.0
        assert all(float(r["abs_diff"]) <= 1e-9 for r in rows)

    def test_zero_seed(self, capsys):
        rc = run_cli("recurrence", "--y0", "0", "--y1", "0", "--steps", "5")
        assert rc == 0
        assert "witness: zero" in capsys.readouterr().out

    def test_affine_coefficients_in_report(self, capsys):
        rc = run_cli("--report", "json", "recurrence", "--y0", "2", "--y1", "-1",
                     "--sign", "plus", "--steps", "10")
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["slope"] == -1.0
        assert doc["results"]["offset"] == 3.0

    def test_steps_cap(self):
        assert run_cli("recurrence", "--y0", "1", "--y1", "0", "--steps", "61") == 2

    @pytest.mark.parametrize("argv, digest", [
        # the README's and the benchmark's arguments (sign plus is the default)
        (("--y0", "1", "--y1", "0", "--sign", "plus", "--steps", "30"),
         "5c20228c0a88614a6c8afd3d7b2db52d5e403ee16c0fb01a402835ca4fb29816"),
        (("--y0", "1", "--y1", "0", "--steps", "30"),
         "5c20228c0a88614a6c8afd3d7b2db52d5e403ee16c0fb01a402835ca4fb29816"),
        (("--y0", "0.3", "--y1", "-0.7", "--sign", "minus", "--steps", "45"),
         "a8db4a69f92b50c456d7354387145e92101741ce8dfb9a4cd27db28e8c3a6375"),
    ], ids=["readme", "benchmark", "fractional-minus"])
    def test_csv_bytes_are_pinned(self, argv, digest, tmp_path, capsys):
        # SHA-256 of the CSV the float64 array loops wrote: the float loops
        # must write the same bytes
        path = tmp_path / "rec.csv"
        assert run_cli("recurrence", *argv, "--csv", str(path)) == 0
        assert file_digest(path) == digest

    @pytest.mark.parametrize("argv", [
        ("--y0", "1e10", "--y1", "0.1", "--steps", "30"),
        ("--y0", "1e8", "--y1", "0.3", "--steps", "60"),
    ], ids=["1e10", "1e8"])
    def test_large_seeds_pass(self, argv, capsys):
        # rounding on terms near 3e11 is 4.9e-4, a relative 1.6e-15; the
        # tolerance scales with the terms' bound
        assert run_cli("--report", "json", "recurrence", *argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        a, b = results["slope"], results["offset"]
        steps = int(argv[-1])
        assert results["tolerance"] == 1e-9 * (abs(b) + abs(a) * (steps + 1))
        assert 0.0 < results["max_abs_diff"] <= results["tolerance"]

    def test_small_seeds_keep_the_absolute_tolerance(self, capsys):
        # |b| + |a| (steps + 1) = 0.02 + 0.01 * 6 is below 1, so the bound is 1e-9
        assert run_cli("--report", "json", "recurrence", "--y0", "0.01", "--y1", "0",
                       "--steps", "5") == 0
        assert json.loads(capsys.readouterr().out)["results"]["tolerance"] == 1e-9

    @pytest.mark.parametrize("seeds, steps", [((1.0, 1e-11), 30), ((1.0, 3e-9), 60),
                                              ((0.37, -1.3), 45), ((2.0, -1.0), 60)])
    def test_verdict_does_not_depend_on_the_seeds_scale(self, seeds, steps, capsys):
        codes = set()
        for k in range(-6, 11):
            y0, y1 = (v * 10.0 ** k for v in seeds)
            for sign in ("plus", "minus"):
                codes.add(run_cli("recurrence", f"--y0={y0!r}", f"--y1={y1!r}",
                                  "--sign", sign, "--steps", str(steps)))
        assert codes == {0}

    @pytest.mark.parametrize("k", [0, 3, 6, 10])
    def test_perturbed_closed_form_fails(self, k, monkeypatch, capsys):
        from bwbary import recurrence

        exact = recurrence.closed_form
        monkeypatch.setattr(recurrence, "closed_form",
                            lambda params: [t * (1.0 + 1e-6) for t in exact(params)])
        argv = ("recurrence", "--y0", repr(10.0 ** k), "--y1", "0", "--steps", "30")
        assert run_cli("--report", "json", *argv) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["max_abs_diff"] > results["tolerance"]
        monkeypatch.undo()
        assert run_cli(*argv) == 0

    @pytest.mark.parametrize("argv, message", [
        (("--y0", "nan", "--y1", "0", "--steps", "5"), "must be finite"),
        (("--y0", "inf", "--y1", "0", "--steps", "5"), "must be finite"),
        (("--y0", "1e308", "--y1", "1e308"), "too large"),
    ], ids=["nan", "inf", "overflow"])
    def test_nonfinite_or_overflowing_seeds(self, argv, message):
        # exit 2 with the reason, and no numpy RuntimeWarning on stderr first
        proc = subprocess.run([sys.executable, "-m", "bwbary.cli", "recurrence", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Warning" not in proc.stderr


class TestMcCommand:
    def test_antithetic_pair_matches_deterministic(self, capsys):
        rc = run_cli("--report", "json", "mc", "--dim", "16", "--law", "two-point",
                     "--n", "2", "--seed", "5", "--antithetic")
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["mean_deviation"] == 0.0
        assert doc["results"]["certificate_residual"] <= 1e-9

    def test_n_too_small(self):
        assert run_cli("mc", "--dim", "8", "--n", "1") == 2

    def test_not_converged_exits_one(self, monkeypatch, capsys):
        from functools import partial

        from bwbary import SolverSettings, randomized

        argv = ("--report", "json", "mc", "--dim", "8", "--n", "4", "--seed", "3")
        assert run_cli(*argv) == 0
        converged = json.loads(capsys.readouterr().out)
        # cmd_mc imports the function from its module at each call
        monkeypatch.setattr(randomized, "population_mc_experiment", partial(
            randomized.population_mc_experiment,
            settings=SolverSettings(ridge=1e-6, max_iter=1)))
        assert run_cli(*argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["solver_converged"] is False
        assert doc["results"]["solver_iterations"] == 1
        assert list(doc["results"]) == list(converged["results"])


class TestSweepCommand:
    def test_sweep_columns(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rc = run_cli("sweep", "--dims", "8..32", "--out-csv", str(path))
        assert rc == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["dim"] for r in rows] == ["8", "16", "32"]
        for r in rows:
            assert int(r["kernel_dim_sigma"]) == int(r["dim"]) // 2
            assert float(r["certificate_residual"]) <= 1e-9
        eigs = [float(r["min_eig_t1"]) for r in rows]
        assert eigs == sorted(eigs, reverse=True)
        # the truncated tail is shared; outside it the kernels are arctan(1/2) apart
        for r in rows:
            assert int(r["shared_dims_s1"]) == int(r["dim"]) // 4
            assert abs(float(r["min_nonzero_angle_s1"]) - np.arctan(0.5)) <= 1e-10

    def test_json_report_carries_the_rows(self, tmp_path, capsys):
        # the JSON report carries the CSV's rows; the CSV is the same either way
        text_csv, json_csv = tmp_path / "text.csv", tmp_path / "json.csv"
        assert run_cli("sweep", "--dims", "8..32", "--out-csv", str(text_csv)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert run_cli("--report", "json", "sweep", "--dims", "8..32",
                       "--out-csv", str(json_csv)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert json_csv.read_text() == text_csv.read_text()
        with open(text_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert list(doc["results"]) == ["rows"]
        assert [{k: repr(v) if isinstance(v, float) else str(v) for k, v in r.items()}
                for r in doc["results"]["rows"]] == rows
        assert [line.split(", ")[0] for line in lines] == ["dim=8", "dim=16", "dim=32"]

    def test_comma_list(self, tmp_path):
        listed, ranged = tmp_path / "listed.csv", tmp_path / "ranged.csv"
        assert run_cli("sweep", "--dims", "8,16", "--out-csv", str(listed)) == 0
        assert run_cli("sweep", "--dims", "8..16", "--out-csv", str(ranged)) == 0
        with open(listed) as fh:
            assert [r["dim"] for r in csv.DictReader(fh)] == ["8", "16"]
        assert listed.read_text() == ranged.read_text()

    @pytest.mark.parametrize("dims", ["64..32", "0..8", "-4..8", "1..4"])
    def test_bad_range_is_invalid_input(self, dims, tmp_path, capsys):
        # an empty range, or a lower bound below the smallest dim, 2
        path = tmp_path / "sweep.csv"
        assert run_cli("sweep", f"--dims={dims}", "--out-csv", str(path)) == 2
        assert "bad --dims" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("dims", ["8,x", "8..x", "8,", "0,8", "3,1"])
    def test_malformed_value_names_the_option(self, dims, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert run_cli("sweep", f"--dims={dims}", "--out-csv", str(path)) == 2
        assert f"error: bad --dims {dims!r}: " in capsys.readouterr().err
        assert not path.exists()

    def test_certificate_of_sigma_is_at_rounding_level(self, tmp_path):
        # the inputs are their exact chain-block factors, which keep every
        # direction of each chain, so the true barycentre certifies to 1e-15
        path = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--dims", "8..512", "--out-csv", str(path)) == 0
        with open(path) as fh:
            residuals = [float(r["certificate_residual"]) for r in csv.DictReader(fh)]
        assert len(residuals) == 7
        assert max(residuals) <= 1e-15

    def test_large_dims_are_exact(self, tmp_path):
        # no option: the kernels come from the maps, not from an eigenvalue cutoff
        path = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--dims", "8..128", "--out-csv", str(path)) == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["dim"]) for r in rows] == [8, 16, 32, 64, 128]
        for r in rows:
            dim = int(r["dim"])
            assert int(r["kernel_dim_sigma"]) == dim // 2
            assert int(r["kernel_dim_s1"]) == int(r["kernel_dim_s2"]) == dim // 2
            assert int(r["shared_dims_s1"]) == dim // 4
            assert abs(float(r["min_nonzero_angle_s1"]) - np.arctan(0.5)) <= 1e-12


class TestReportDeterminism:
    def test_byte_identical_modulo_timing(self, constructed, capsys):
        argv = ["--report", "json", "verify",
                "--candidate", str(constructed / "sigma.json"),
                "--inputs", str(constructed / "s1.json"),
                str(constructed / "s2.json")]
        assert run_cli(*argv) == 0
        first = capsys.readouterr().out
        assert run_cli(*argv) == 0
        second = capsys.readouterr().out

        def strip_timing(text):
            doc = json.loads(text)
            doc.pop("timing")
            return json.dumps(doc, sort_keys=True)

        assert strip_timing(first) == strip_timing(second)

    def test_full_precision_residual_in_json(self, constructed, capsys):
        argv = ["--report", "json", "verify",
                "--candidate", str(constructed / "sigma.json"),
                "--inputs", str(constructed / "s1.json"),
                str(constructed / "s2.json")]
        run_cli(*argv)
        doc = json.loads(capsys.readouterr().out)
        residual = doc["results"]["certificate_residual"]
        assert isinstance(residual, float)
        assert doc["results"]["within_tolerance"] is True
        assert doc["command"] == argv
        assert len(doc["inputs"]) == 3  # digests of candidate and both inputs


def test_numerical_failure_exit_code(constructed, monkeypatch):
    from bwbary import NonFinite, barycentre

    def boom(*args, **kwargs):
        raise NonFinite("diverged")

    # cmd_verify imports the function from its module at each call
    monkeypatch.setattr(barycentre, "verify_barycentre_certificate", boom)
    rc = run_cli("verify", "--candidate", str(constructed / "sigma.json"),
                 "--inputs", str(constructed / "s1.json"))
    assert rc == 3


def test_lapack_failure_is_a_numerical_failure(constructed, monkeypatch, capsys):
    from bwbary import barycentre

    def boom(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    # LinAlgError is a ValueError, but it means exit 3, not invalid input
    monkeypatch.setattr(barycentre, "verify_barycentre_certificate", boom)
    rc = run_cli("verify", "--candidate", str(constructed / "sigma.json"),
                 "--inputs", str(constructed / "s1.json"))
    assert rc == 3
    assert capsys.readouterr().err == "numerical failure: SVD did not converge\n"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bwbary.cli", "recurrence", "--y0", "1", "--y1", "0",
         "--steps", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "witness: linear" in proc.stdout
