"""Exit codes, determinism, file outputs, and the report schema."""

import json
import os

import numpy as np
import pytest

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


def test_verify_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        rc = main(["verify", "--partition", "1,1,2", "--spectrum", "1,2,3",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_matches_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "report.json"
    main(["verify", "--partition", "1,1,4", "--spectrum", "1,2,3",
          "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    schema_path = os.path.join(os.path.dirname(__file__), "..", "schemas",
                               "report.json")
    schema = json.loads(open(schema_path).read())
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


def test_flow_coarse_step_exit_three():
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
