"""Exit codes, determinism, file outputs, and the report schema."""

import json
import os
import warnings

import pytest

from suborbit import linalg
from suborbit.cli import main


def test_verify_confirmed_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--partition", "1,1,2", "--spectrum", "1,2,3",
               "--seed", "42", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["conclusion"] == "THM_2_6_CONFIRMED"
    assert doc["inputs"]["partition"] == [1, 1, 2]


def test_verify_symmetric_two_block_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["verify", "--partition", "1,3", "--spectrum", "1,2",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert any("symmetric" in n for n in doc["case"]["notes"])


def test_verify_duplicate_spectrum_exit_one(capsys):
    assert main(["verify", "--partition", "1,1,2", "--spectrum", "1,2,2"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_malformed_partition_exit_one():
    assert main(["verify", "--partition", "1,x", "--spectrum", "1,2"]) == 1
    assert main(["verify", "--partition", "", "--spectrum", "1,2"]) == 1


def test_verify_negative_seed_rejected():
    assert main(["verify", "--partition", "1,1", "--spectrum", "1,2",
                 "--seed", "-3"]) == 1


def test_verify_unknown_option_exit_one(capsys):
    # argparse's own usage-error code 2 is the inconclusive code here; the
    # rank cutoff and the sample budget are fixed, so their old flags are
    # unknown options too
    verify = ["verify", "--partition", "1,1,2", "--spectrum", "1,2,3"]
    for argv, flag in [(verify + ["--lambda-samples", "20"], "--lambda-samples"),
                       (verify + ["--tolerance-rank", "1e-9"], "--tolerance-rank"),
                       (verify + ["--samples", "25"], "--samples"),
                       (["sweep", "--max-n", "2", "--samples", "25"], "--samples")]:
        assert main(argv) == 1
        assert flag in capsys.readouterr().err


def test_verify_missing_spectrum_exit_one(capsys):
    assert main(["verify", "--partition", "1,1,2"]) == 1
    assert "--spectrum" in capsys.readouterr().err


def test_help_exit_zero(capsys):
    assert main(["verify", "--help"]) == 0
    assert "--out" in capsys.readouterr().out


def test_cli_prints_each_warning_as_one_line(monkeypatch, capsys):
    # under the default filter the rank warning reaches stderr as one
    # "warning:" line, without a source path or code line, before the error
    def fragile_then_fail(*args, **kwargs):
        linalg.warn_fragile()
        raise ValueError("verification refused")

    monkeypatch.setattr("suborbit.cli.run_case", fragile_then_fail)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["verify", "--partition", "1,1,2", "--spectrum", "1,2,3"]) == 1
    err = capsys.readouterr().err
    assert ".py:" not in err
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0] == ("warning: singular value within a decade of the rank "
                        "cutoff, dimension verdict is fragile")
    assert lines[1] == "error: verification refused"


@pytest.mark.parametrize("argv", [
    ["verify", "--partition", "1,1,2", "--spectrum", "1,2,2.0000000001"],
    ["verify", "--partition", "1,1,2", "--spectrum", "1,2,2.00000001"],
    ["flow", "--partition", "1,1,2", "--spectrum", "1e9,1000000001,1000000002",
     "--b-spectrum", "1,2,3"],
    ["flow", "--partition", "1,1,2", "--spectrum", "1e300,-1e300,0",
     "--b-spectrum", "1,2,3"],
], ids=["below-cutoff", "within-a-decade", "unscaled-flow", "overflowing-norm"])
def test_inseparable_spectrum_exit_one(argv, capsys):
    # a spectrum whose smallest gap the rank rule cannot read clearly is an
    # input error: one error line, neither a traceback nor a warned verdict
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(argv) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: spectrum values too close")
    assert "Traceback" not in err and "warning:" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_non_finite_spectrum_exit_one(value, capsys):
    assert main(["verify", "--partition", "1,1,2", "--spectrum", f"1,2,{value}"]) == 1
    err = capsys.readouterr().err
    assert "error: spectrum entries must be finite" in err and value in err


def test_sweep_max_n_below_two_exit_one(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--max-n", "1", "--out", str(out)]) == 1
    assert "--max-n" in capsys.readouterr().err
    assert not out.exists()


def test_verify_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        rc = main(["verify", "--partition", "1,1,2", "--spectrum", "1,2,3",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_matches_schema(tmp_path):
    out = tmp_path / "report.json"
    main(["verify", "--partition", "1,1,4", "--spectrum", "1,2,3",
          "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    schema_path = os.path.join(os.path.dirname(__file__), "..", "schemas",
                               "report.json")
    schema = json.loads(open(schema_path).read())
    # the schema does not forbid extra keys, so a report field it does not
    # list, or a listed one the report lost, is caught here
    inputs = schema["properties"]["inputs"]
    assert sorted(inputs["properties"]) == sorted(inputs["required"]) \
        == sorted(doc["inputs"])
    inner = doc["case"]["inner_case"]
    defs = schema["definitions"]
    for name, report in (("kronecker", inner["kronecker"]),
                         ("completeness", inner["completeness_m"]),
                         ("completeness", inner["completeness_m_tilde"]),
                         ("case", doc["case"])):
        assert sorted(defs[name]["properties"]) == sorted(report), name
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, schema)


def test_flow_run_and_outputs(tmp_path):
    traj = tmp_path / "t.csv"
    summ = tmp_path / "s.json"
    rc = main(["flow", "--partition", "1,1,2", "--spectrum", "1,2,3",
               "--b-spectrum", "1,3,7", "--dt", "1e-3", "--steps", "1000",
               "--record-stride", "100", "--seed", "3",
               "--out-traj", str(traj), "--out-summary", str(summ)])
    assert rc == 0
    doc = json.loads(summ.read_text())
    assert doc["passed"] is True
    assert doc["max_drift"] < 1e-6
    assert doc["lax_residual_max"] < 1e-12
    lines = traj.read_text().strip().splitlines()
    header = lines[0].split(",")
    # time, five flow-space coordinates, one column per family member
    assert header[0] == "t"
    assert header[1:6] == ["c_1", "c_2", "c_3", "c_4", "c_5"]
    assert all(h.startswith("f_") for h in header[6:])
    assert len(lines) == 1 + 1 + 1000 // 100  # header, start, records


def test_flow_constant_for_equal_elements(tmp_path):
    summ = tmp_path / "s.json"
    rc = main(["flow", "--partition", "1,1,2", "--spectrum", "1,2,3",
               "--b-spectrum", "1,2,3", "--dt", "1e-2", "--steps", "100",
               "--seed", "3", "--out-summary", str(summ)])
    assert rc == 0
    doc = json.loads(summ.read_text())
    assert doc["max_drift"] < 1e-12


def test_flow_bad_b_spectrum_exit_one():
    assert main(["flow", "--partition", "1,1,2", "--spectrum", "1,2,3",
                 "--b-spectrum", "1,3"]) == 1


def test_flow_record_stride_below_one_exit_one(capsys):
    assert main(["flow", "--partition", "1,1,2", "--spectrum", "1,2,3",
                 "--b-spectrum", "1,3,7", "--steps", "10",
                 "--record-stride", "0"]) == 1
    assert "error: record stride must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"), ("--x0-norm", "nan"),
    ("--x0-norm", "inf"), ("--drift-tol", "nan"), ("--drift-tol", "inf"),
    ("--drift-tol", "-1e-6")])
def test_flow_non_finite_or_out_of_range_input_exit_one(flag, value, capsys):
    # one error line naming the flag, before any setup is built
    assert main(["flow", "--partition", "1,1,2", "--spectrum", "1,2,3",
                 "--b-spectrum", "1,3,7", "--steps", "10", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} must be ")
    assert err[0].endswith(f"got {float(value)}")


@pytest.mark.parametrize("flag, value", [
    ("--b-spectrum", "1,3,nan"), ("--b-spectrum", "1,3,inf"),
    ("--b-spectrum", "-inf,3,7"), ("--steps", "0"), ("--steps", "-5"),
    ("--record-stride", "0"), ("--record-stride", "-1")])
def test_flow_bad_count_or_b_spectrum_names_the_flag(flag, value, capsys):
    # one error line naming the flag and the value, with no numpy warning
    # from a setup built on a non-finite b
    assert main(["flow", "--partition", "1,1,2", "--spectrum", "1,2,3",
                 "--b-spectrum", "1,3,7", "--steps", "10", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert flag in err[0] and err[0].endswith(value)


def test_flow_coarse_step_exit_three():
    # the overflow inside the RK4 stages is reported as a divergence, without
    # a numpy RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["flow", "--partition", "1,1,2", "--spectrum", "1,2,3",
                   "--b-spectrum", "1,3,7", "--dt", "1.0", "--steps", "50",
                   "--x0-norm", "8", "--seed", "3"])
    assert rc == 3


def test_sweep_small(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep", "--max-n", "2", "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["cases"]) == 1
    assert doc["cases"][0]["partition"] == [1, 1]
    assert any("symmetric" in n for n in doc["cases"][0]["notes"])
    assert doc["all_confirmed"] is True


def test_sweep_n6_within_budget(tmp_path):
    import time
    out = tmp_path / "sweep6.json"
    t0 = time.perf_counter()
    rc = main(["sweep", "--max-n", "6", "--seed", "0", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 120.0
    doc = json.loads(out.read_text())
    assert len(doc["cases"]) == 23
    assert doc["all_confirmed"] is True


def test_sweep_n4(tmp_path):
    out = tmp_path / "sweep4.json"
    rc = main(["sweep", "--max-n", "4", "--seed", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    parts = [tuple(c["partition"]) for c in doc["cases"]]
    assert set(parts) == {(1, 1), (1, 2), (1, 1, 1), (1, 3), (2, 2),
                          (1, 1, 2), (1, 1, 1, 1)}
    assert all(c["conclusion"] in ("THM_2_6_CONFIRMED", "REDUCED_PATH_USED")
               for c in doc["cases"])


def test_out_path_in_missing_directory_is_input_error(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "r.json"
    rc = main(["verify", "--partition", "1,1", "--spectrum", "1,2",
               "--out", str(missing)])
    assert rc == 1


@pytest.mark.parametrize("command, flag", [
    ("verify", "--out"), ("flow", "--out-traj"), ("flow", "--out-summary")])
def test_unwritable_output_names_the_requested_path(command, flag, tmp_path, capsys):
    # the atomic write goes through a temporary file beside the target; an
    # error names the path asked for, never that temporary file
    target = str(tmp_path / "missing" / "out.json")
    argv = ["--partition", "1,1,2", "--spectrum", "1,2,3"]
    if command == "flow":
        argv += ["--b-spectrum", "1,3,7", "--steps", "10"]
    assert main([command, *argv, flag, target]) == 1
    err = [line for line in capsys.readouterr().err.splitlines()
           if line.startswith("error:")]
    assert len(err) == 1 and target in err[0] and ".suborbit-" not in err[0]


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path
    import suborbit
    # the child imports the same package as this process, installed or not
    src = str(Path(suborbit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "suborbit.cli", "verify", "--partition", "1,1",
         "--spectrum", "1,2", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["conclusion"] == "THM_2_6_CONFIRMED"
