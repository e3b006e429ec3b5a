import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bandtopo.cli import (
    ResultRecord,
    RunConfig,
    emit_phase_diagram,
    main,
    run,
    run_single,
)
from bandtopo.errors import ConfigError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def km_model(lambda_v):
    return {
        "name": "kane_mele",
        "params": {"t": 1.0, "lambda_so": 0.06, "lambda_r": 0.05, "lambda_v": lambda_v},
    }


KM_TOPO = {
    "schema": 1,
    "command": "delta",
    "model": km_model(0.1),
    "occupied": 2,
    "grid": [16, 16],
}


class TestRunConfig:
    def test_requires_schema(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"command": "delta"})

    def test_rejects_odd_grid(self):
        doc = dict(KM_TOPO, grid=[15, 16])
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_rejects_unknown_command(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(dict(KM_TOPO, command="wat"))

    def test_sweep_needs_block(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(dict(KM_TOPO, command="sweep"))

    def test_sweep_steps_minimum(self):
        doc = dict(
            KM_TOPO,
            command="sweep",
            sweep={"parameter": "lambda_v", "min": 0, "max": 0.6, "steps": 1},
        )
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_rejects_tolerances_block(self, tmp_path):
        doc = dict(KM_TOPO, tolerances={"cert": 1e-6})
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)
        assert main(["--config", str(write_config(tmp_path, doc))]) == 4


class TestRunSingle:
    def test_delta_on_topological_kane_mele(self):
        config = RunConfig.from_dict(KM_TOPO)
        rec = run_single(config)
        assert rec.outcome == "ok"
        assert rec.values["delta"] == -1

    def test_split_obstruction_outcome(self):
        doc = dict(KM_TOPO, command="split", split_h=0)
        rec = run_single(RunConfig.from_dict(doc))
        assert rec.outcome == "obstruction"
        assert rec.values == {"delta": -1, "h": 0}

    def test_record_roundtrip(self):
        config = RunConfig.from_dict(KM_TOPO)
        rec = run_single(config)
        back = ResultRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.to_dict() == rec.to_dict()


class TestEmit:
    def test_empty_records_header_only(self, tmp_path):
        csv_path, _ = emit_phase_diagram([], tmp_path)
        lines = open(csv_path).read().splitlines()
        assert lines == ["sweep_value,chern,delta,min_gap,max_residual,outcome"]

    def test_sweep_rows_and_determinism(self, tmp_path):
        doc = dict(
            KM_TOPO,
            command="sweep",
            grid=[16, 16],
            sweep={"parameter": "lambda_v", "min": 0.0, "max": 0.6, "steps": 5},
        )
        config = RunConfig.from_dict(doc)
        records = run(config)
        assert len(records) == 5
        csv_path, json_path = emit_phase_diagram(records, tmp_path / "a")
        first = (open(csv_path, "rb").read(), open(json_path, "rb").read())
        records2 = run(config)
        csv2, json2 = emit_phase_diagram(records2, tmp_path / "b")
        second = (open(csv2, "rb").read(), open(json2, "rb").read())
        assert first == second
        assert len(open(csv_path).read().splitlines()) == 6

    def test_worker_count_invariance(self, tmp_path):
        doc = dict(
            KM_TOPO,
            command="sweep",
            grid=[16, 16],
            sweep={"parameter": "lambda_v", "min": 0.0, "max": 0.5, "steps": 3},
        )
        serial = run(RunConfig.from_dict(doc, {"workers": 1}))
        parallel = run(RunConfig.from_dict(doc, {"workers": 3}))
        a = emit_phase_diagram(serial, tmp_path / "w1")
        b = emit_phase_diagram(parallel, tmp_path / "w3")
        assert open(a[0], "rb").read() == open(b[0], "rb").read()
        assert open(a[1], "rb").read() == open(b[1], "rb").read()


class TestMainEntry:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        path = write_config(tmp_path, KM_TOPO)
        code = main(["--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out.splitlines()[0])["values"]["delta"] == -1

    def test_exit_two_on_obstruction(self, tmp_path, capsys):
        doc = dict(KM_TOPO, command="split", split_h=0)
        path = write_config(tmp_path, doc)
        assert main(["--config", str(path)]) == 2

    def test_equivalence_same_class(self, tmp_path, capsys):
        doc = dict(KM_TOPO, command="equivalence", model2=km_model(0.15))
        code = main(["--config", str(write_config(tmp_path, doc)), "--verbose"])
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert code == 0
        assert line["values"] == {"delta0": -1, "delta1": -1, "obstructed": False}
        residuals = line["diagnostics"]
        assert set(residuals) == {"intertwining", "periodicity", "trs", "unitarity"}
        assert max(residuals.values()) <= 1e-7

    def test_equivalence_obstructed(self, tmp_path, capsys):
        doc = dict(KM_TOPO, command="equivalence", model2=km_model(0.5))
        code = main(["--config", str(write_config(tmp_path, doc)), "--verbose"])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert json.loads(out[0])["values"] == {"delta0": -1, "delta1": 1, "obstructed": True}
        assert out[1] == "  note: delta invariants differ"

    def test_exit_four_on_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"schema": 2, "command": "delta"})
        assert main(["--config", str(path)]) == 4

    def test_exit_four_on_bad_grid_flag(self, tmp_path):
        path = write_config(tmp_path, KM_TOPO)
        assert main(["--config", str(path), "--grid", "banana"]) == 4

    def test_check_command(self, tmp_path, capsys):
        path = write_config(tmp_path, {"schema": 1, "command": "check"})
        assert main(["--config", str(path)]) == 0

    def test_records_file_written(self, tmp_path, capsys):
        path = write_config(tmp_path, KM_TOPO)
        out_dir = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out_dir)])
        assert code == 0
        doc = json.loads((out_dir / "records.json").read_text())
        assert doc[0]["values"]["delta"] == -1
        assert "wall_time_s" not in doc[0]

    def test_env_out_dir(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "envout"
        monkeypatch.setenv("BANDTOPO_OUT", str(out_dir))
        path = write_config(tmp_path, KM_TOPO)
        assert main(["--config", str(path)]) == 0
        assert (out_dir / "records.json").exists()

    def test_console_script_wiring(self, tmp_path):
        path = write_config(tmp_path, {"schema": 1, "command": "delta"})
        proc = subprocess.run(
            [sys.executable, "-m", "bandtopo.cli", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4  # missing model block -> config error
        assert "config error" in proc.stderr
