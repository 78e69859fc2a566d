"""Tests for the command line front end and its exit-code contract."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fqmrep
from fqmrep.cli import main


def test_u_prints_the_fourier_intertwiner(capsys):
    # n=1 gives the 4x4 operator for the order-4 generator (0,-1;1,0)
    assert main(["u", "--n", "1", "--p", "1", "--elem", "0,-1,1,0"]) == 0
    out = capsys.readouterr().out
    assert out.count("0.5") >= 8
    assert len(out.strip().splitlines()) == 4


def test_gamma_prints_a_matrix(capsys):
    assert main(["gamma", "--n", "1", "--m", "1", "--r", "1", "--s", "0"]) == 0
    assert "-1" in capsys.readouterr().out


def test_jrs_twisted_and_odd(capsys):
    assert main(["jrs", "--n", "1", "--r", "1", "--s", "1"]) == 0
    assert main(["jrs", "--odd-N", "3", "--r", "1", "--s", "2"]) == 0
    assert main(["jrs"]) == 2  # neither --n nor --odd-N


def test_verify_pass_exit_zero(capsys):
    assert main(["verify", "--suite", "homomorphism", "--n", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks_run"] == 2304
    assert rep["passed"] is True
    assert "runtime_ms" not in rep


def test_verify_failure_exit_one(capsys):
    # an impossible tolerance turns float roundoff into recorded failures
    assert main(["verify", "--suite", "cocycle-odd", "--N", "3", "--tol", "1e-20"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is False
    assert rep["failures"]


def test_usage_errors_exit_two(capsys):
    assert main(["u", "--n", "2", "--p", "2", "--elem", "1,0,0,1"]) == 2  # even p
    assert main(["u", "--n", "1", "--elem", "1,0,0"]) == 2  # short tuple
    assert main(["verify", "--suite", "not-a-suite", "--n", "1"]) == 2
    assert main(["verify", "--n", "1"]) == 2  # --suite is required
    assert main(["verify", "--suite", "heisenberg"]) == 2  # needs a modulus
    assert main(["verify", "--suite", "heisenberg", "--n", "1", "--N", "2"]) == 2
    assert main(["export", "--format", "csv", "--kind", "u"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_too_large_exits_two(capsys):
    assert main(["verify", "--suite", "cocycle-twisted", "--n", "6"]) == 2
    assert "exceed" in capsys.readouterr().err


def test_feichtinger_defect_reads_n_as_a_power_of_two(capsys):
    # --n gives N = 2^n for this suite too: the report bytes of --N 4
    assert main(["verify", "--suite", "feichtinger-defect", "--n", "2"]) == 0
    by_n = capsys.readouterr().out
    assert main(["verify", "--suite", "feichtinger-defect", "--N", "4"]) == 0
    assert by_n == capsys.readouterr().out


def test_verify_refuses_p_zero_like_the_matrix_commands(capsys):
    # p = 0 is even: an error naming it, not a silent run at p = 1
    for argv in (["gamma", "--n", "2"], ["verify", "--suite", "cocycle-twisted", "--n", "2"]):
        assert main([*argv, "--p", "0"]) == 2
        assert "p must be odd in [1, 4), got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--suite", "homomorphism", "--N", "16", "--samples", "-3"],
    ["--suite", "decomposition", "--n", "2", "--samples", "-1"],
    ["--suite", "heisenberg", "--n", "3", "--samples", "-2"],
    ["--suite", "metaplectic", "--n", "2", "--samples", "-1"],
])
def test_verify_refuses_negative_samples(argv, capsys):
    # a negative count runs nothing, so it is a usage error, not a pass
    assert main(["verify", *argv]) == 2
    assert "samples must be >= 0" in capsys.readouterr().err


def test_verify_takes_zero_samples(capsys):
    # metaplectic's default: the generators S and T only
    assert main(["verify", "--suite", "metaplectic", "--n", "2", "--samples", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["checks_run"] == 2 * 16


def test_weil_odd_refuses_a_composite_modulus(capsys):
    # N = 9 is odd but not prime: the Weil family has no operators there,
    # while the odd cocycle's law holds at any odd N
    assert main(["verify", "--suite", "weil-odd", "--N", "9"]) == 2
    assert "N must be an odd prime, got 9" in capsys.readouterr().err
    argv = ["export", "--format", "json", "--kind", "weil-odd", "--N", "9", "--elem", "4,0,0,7"]
    assert main(argv) == 2
    assert "N must be an odd prime, got 9" in capsys.readouterr().err
    assert main(["verify", "--suite", "cocycle-odd", "--N", "9"]) == 0
    capsys.readouterr()


def test_verify_out_file_bytes_stable(tmp_path, capsys):
    target = tmp_path / "report.json"
    args = ["verify", "--suite", "decomposition", "--n", "2",
            "--samples", "20", "--seed", "5", "--out", str(target)]
    assert main(args) == 0
    first = target.read_bytes()
    assert main(args) == 0
    assert target.read_bytes() == first
    stdout_rep = capsys.readouterr().out.strip().splitlines()[-1]
    assert first.decode().strip() == stdout_rep


@pytest.mark.parametrize(
    "args,digest",
    [
        (["--suite", "homomorphism", "--n", "2"],
         "5011aaeadc0e59f367498827a1200d3dcda4a838aee0c7471e334e43f51c7862"),
        (["--suite", "homomorphism", "--n", "3", "--samples", "40"],
         "5f073b230e3559953eb7b45de0678110ff88523c842ed57f7d441c339e699ea7"),
        (["--suite", "decomposition", "--n", "3"],
         "6a437c9a1bc773106125ed617e080e42379e9506243f208a24375cee961447ba"),
        (["--suite", "cocycle-twisted", "--n", "2", "--p", "3"],
         "567433a34db150df32427af08a12d44efe89d00c35b0b93ba883cd680f6cc4ba"),
        (["--suite", "cocycle-twisted", "--n", "3", "--p", "1"],
         "94bea01de8e2742fad0534ea551923ff51c56ebf13c972a409ec22390822fe40"),
        (["--suite", "metaplectic", "--n", "2", "--p", "3"],
         "da8d3cafc288a948f9465e7573793d7f3059ed89c239cf92ae05538829508c5c"),
        (["--suite", "metaplectic", "--n", "3", "--samples", "3"],
         "422e992c5d9e9331fd8f73fda7adb5139c0c7198724671f962e005cab12ecc30"),
        (["--suite", "heisenberg", "--n", "1"],
         "74c730a63e85aaf6f85e9a237110ce5b29f5f3029aadb4abe16aaa69d0c5429e"),
        (["--suite", "heisenberg", "--n", "2", "--p", "1"],
         "5e765c47e44be112d1e1004d564e984c54f5d333e1bb53a2a3d571427a813976"),
        (["--suite", "heisenberg", "--n", "2", "--p", "3"],
         "0994d3e93874cc3b7ae460f129ec0826f44c5e8bae7dee916dc54b854d8334bf"),
        (["--suite", "heisenberg", "--n", "3", "--samples", "1000"],
         "7b9b9bdcaef22060626ad2a220c12d5f3c97ed26b040c308147d0a930520faf4"),
        # float: the deviations are complex128 sums, pinned bit for bit too
        (["--suite", "heisenberg", "--n", "4", "--samples", "50"],
         "f3244ce4cbf70f7855aa3255742252bd06c87661f1e55c4172d41269f06ac32f"),
        (["--suite", "metaplectic", "--n", "2", "--p", "3", "--samples", "5"],
         "4df51a7bda5e97b9b06d00b40da5569b721621c897316ebb2e0a29f1e2a48fbd"),
        (["--suite", "metaplectic", "--n", "3", "--p", "1", "--samples", "3", "--seed", "11"],
         "878ac139b92a3f967fb284137ba64e8f35ca5143b5974bb21fcb0a80a0c6db40"),
        (["--suite", "cocycle-twisted", "--n", "1"],
         "a7d5c5c3a1ba15645811a299ee64f3ad5b5babe5ad49a7f166980c3474ae0929"),
        (["--suite", "cocycle-twisted", "--n", "3", "--p", "3"],
         "e776aeb997a8ef5154f0aae3f4d5d1ee59249ddc848defef1a77d54f7a9ffa76"),
        (["--suite", "cocycle-twisted", "--n", "3", "--p", "5"],
         "0e4db152bbbcba5cb2b9e39693bbd7a776db5c374c5e2159f0ae1486f6107462"),
        (["--suite", "cocycle-twisted", "--n", "3", "--p", "7"],
         "14e5083bd9a0c88ba6265414d4e507edf062233a1f33167f72a2913e089dafe9"),
        (["--suite", "heisenberg", "--n", "3", "--samples", "300", "--seed", "5", "--p", "5"],
         "fc5f3162ddefe23def57f5a5e991920af0320f87d08f1b9d3a61b10ee969a0f1"),
        (["--suite", "heisenberg", "--n", "3", "--samples", "300", "--seed", "5", "--p", "7"],
         "c5fdeb14443519b75bd7ee8940761f519563523ced8246f9173d554065d611fc"),
        # float Gauss sums and generator defects, pinned bit for bit
        (["--suite", "quadratic-module", "--n", "1"],
         "b08ebb6044bd9c45cf863f18bebd3d2e31148198bd7b93858420240bb7ff90bd"),
        (["--suite", "quadratic-module", "--n", "2"],
         "b80feb93777a45a7e9dc7b22de44f529fb1f0c27418165fcef2779ceec0469f3"),
        (["--suite", "quadratic-module", "--n", "3"],
         "cfbb9fa749e72ad8bebf23627b7ac2a0bc9fb90f7ce4caac9307cdb7a6accbf4"),
        (["--suite", "quadratic-module", "--n", "4"],
         "6a10c7ba3a54b068eeb8769b2f3553afdcf709330aa67ede80426c6a206cd762"),
    ],
)
def test_verify_out_golden_digest(args, digest, tmp_path, capsys):
    # exact reports are pinned byte for byte: kernels may change, reports may not
    target = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(target)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("FQM_SEED", "31")
    assert main(["verify", "--suite", "decomposition", "--n", "1", "--samples", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["params"]["seed"] == 31
    # an explicit flag wins over the environment
    monkeypatch.setenv("FQM_SEED", "99")
    assert main(["verify", "--suite", "decomposition", "--n", "1",
                 "--samples", "5", "--seed", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["params"]["seed"] == 4


def test_export_csv_header_and_cells(capsys):
    assert main(["export", "--format", "csv", "--kind", "gamma",
                 "--n", "1", "--m", "0", "--r", "1", "--s", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# dim=2 backend=exact"
    # r exponentiates the clock operator: diag(1, -1) at N=2
    assert lines[1].split(",") == ["1", "0", "0", "0"]
    assert lines[2].split(",") == ["0", "0", "-1", "0"]


def test_export_json_round_trips(capsys):
    assert main(["export", "--format", "json", "--kind", "u",
                 "--n", "1", "--elem", "0,-1,1,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 4
    assert data["backend"] == "exact"
    assert len(data["entries"]) == 4


def test_export_weil_odd_to_file(tmp_path):
    target = tmp_path / "w.csv"
    assert main(["export", "--format", "csv", "--kind", "weil-odd",
                 "--N", "3", "--elem", "0,-1,1,0", "--out", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("# dim=3 backend=float")
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "--suite", "metaplectic", "--n", "1"], 0),
        (["verify", "--suite", "quadratic-module", "--n", "1"], 0),
        (["weil-odd", "--N", "3", "--elem", "1,1,0,1"], 0),
        (["weil-odd", "--N", "4", "--elem", "1,1,0,1"], 2),  # even modulus
    ],
)
def test_exit_codes_in_process(argv, code, capsys):
    assert main(argv) == code
    capsys.readouterr()


def test_module_entry_point_runs():
    # the same contract holds for a real child process, which imports the
    # package this test imported (installed or not)
    path = [str(Path(fqmrep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "fqmrep.cli", "verify", "--suite", "metaplectic", "--n", "1"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks_run"] == 8
