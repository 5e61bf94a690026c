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

    def test_large_dim_needs_explicit_rank_tol(self, tmp_path, capsys):
        # from dim 64 up the default cutoff miscounts the kernels (33 at dim 64)
        out = tmp_path / "out"
        assert run_cli("construct", "--dim", "64", "--pair", "--out", str(out)) == 2
        assert "--rank-tol" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("--rank-tol", "1e-13", "--report", "json", "construct",
                       "--dim", "64", "--pair", "--out", str(out)) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["kernel_dim_s1"] == results["kernel_dim_s2"] == 32


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

        import bwbary.cli as cli
        from bwbary import SolverSettings

        argv = ("--report", "json", "mc", "--dim", "8", "--n", "4", "--seed", "3")
        assert run_cli(*argv) == 0
        converged = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(cli, "population_mc_experiment", partial(
            cli.population_mc_experiment, settings=SolverSettings(ridge=1e-6, max_iter=1)))
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

    @pytest.mark.parametrize("dims", ["64..32", "0..8", "-4..8"])
    def test_bad_range_is_invalid_input(self, dims, tmp_path, capsys):
        # an empty range, or a lower bound that doubling never grows past
        path = tmp_path / "sweep.csv"
        assert run_cli("sweep", f"--dims={dims}", "--out-csv", str(path)) == 2
        assert "bad --dims" in capsys.readouterr().err
        assert not path.exists()

    def test_large_dims_need_explicit_rank_tol(self, tmp_path):
        # from dim 64 up the default cutoff miscounts the kernels (33 at dim 64)
        for top in (64, 128):
            path = tmp_path / f"sweep{top}.csv"
            assert run_cli("sweep", "--dims", f"8,{top}", "--out-csv", str(path)) == 2
            assert not path.exists()
            assert run_cli("--rank-tol", "1e-13", "sweep", "--dims", f"8,{top}",
                           "--out-csv", str(path)) == 0
        with open(tmp_path / "sweep64.csv") as fh:
            assert [int(r["kernel_dim_s1"]) for r in csv.DictReader(fh)] == [4, 32]


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
    from bwbary import NonFinite
    import bwbary.cli as cli

    def boom(*args, **kwargs):
        raise NonFinite("diverged")

    monkeypatch.setattr(cli, "verify_barycentre_certificate", boom)
    rc = run_cli("verify", "--candidate", str(constructed / "sigma.json"),
                 "--inputs", str(constructed / "s1.json"))
    assert rc == 3


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bwbary.cli", "recurrence", "--y0", "1", "--y1", "0",
         "--steps", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "witness: linear" in proc.stdout
