"""Batch front end: config ingestion, invariant runs, sweeps, self checks.

Configs are JSON documents with ``schema: 1``::

    {
      "schema": 1,
      "command": "delta",              # chern | delta | split | frame |
                                       # equivalence | sweep | check
      "model": {"name": "kane_mele",
                "params": {"t": 1.0, "lambda_so": 0.06,
                           "lambda_r": 0.05, "lambda_v": 0.1}},
      "occupied": 2,                   # defaults to half the bands
      "grid": [32, 32],
      "seed": 0,
      "split_h": 1,                    # split only
      "model2": {...},                 # equivalence only
      "sweep": {"parameter": "lambda_v", "min": 0.0, "max": 0.6,
                "steps": 13}           # sweep only
    }

Models are the built-ins (``kane_mele``, ``haldane``, ``random_trs``,
``random``) or ``{"file": "path"}`` pointing at a harmonic-coefficient
file. Exit codes: 0 success, 2 obstruction outcomes present, 3 unresolved,
4 config error, 5 internal error.

Obstruction outcomes are successful computations: the theorems saying no.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .decomposition import (
    pseudo_periodic_frame,
    save_frame,
    split,
    symmetric_equivalence,
    symmetric_frame,
    verify_homotopy,
)
from .errors import BandTopoError, ConfigError, ParityObstruction, Unresolved
from .invariants import chern, delta, fhs_chern, wilson_z2
from .models import (
    haldane,
    kane_mele,
    load_bloch,
    random_gapped_hamiltonian,
    random_trs_hamiltonian,
    spectral_projector,
)
from .trs import Grid2

ENV_OUT_DIR = "BANDTOPO_OUT"

COMMANDS = ("chern", "delta", "split", "frame", "equivalence", "sweep", "check")


@dataclass
class RunConfig:
    command: str
    model: dict | None
    model2: dict | None
    occupied: int | None
    grid: tuple
    seed: int
    split_h: int | None
    sweep: dict | None
    out_dir: str | None
    workers: int
    verbose: bool = False

    @classmethod
    def from_dict(cls, doc, overrides=None):
        overrides = overrides or {}
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        if doc.get("schema") != 1:
            raise ConfigError("config must declare schema: 1")
        command = doc.get("command")
        if command not in COMMANDS:
            raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
        grid = tuple(overrides.get("grid") or doc.get("grid") or (32, 32))
        if len(grid) != 2 or any(int(n) <= 0 or int(n) % 2 for n in grid):
            raise ConfigError(f"grid sizes must be even positive integers, got {grid}")
        sweep = doc.get("sweep")
        if command == "sweep":
            if not sweep:
                raise ConfigError("sweep command needs a sweep block")
            for key in ("parameter", "min", "max", "steps"):
                if key not in sweep:
                    raise ConfigError(f"sweep block missing field {key!r}")
            if int(sweep["steps"]) < 2:
                raise ConfigError("sweep needs steps >= 2")
        if "tolerances" in doc:
            raise ConfigError(
                "the tolerances block is not supported: certificate thresholds are fixed"
            )
        if command in ("chern", "delta", "split", "frame", "sweep", "equivalence"):
            if not doc.get("model"):
                raise ConfigError(f"{command} needs a model block")
        if command == "equivalence" and not doc.get("model2"):
            raise ConfigError("equivalence needs a model2 block")
        if command == "split" and "split_h" not in doc:
            raise ConfigError("split needs split_h")
        return cls(
            command=command,
            model=doc.get("model"),
            model2=doc.get("model2"),
            occupied=doc.get("occupied"),
            grid=(int(grid[0]), int(grid[1])),
            seed=int(overrides.get("seed", doc.get("seed", 0))),
            split_h=doc.get("split_h"),
            sweep=sweep,
            out_dir=overrides.get("out")
            or doc.get("out")
            or os.environ.get(ENV_OUT_DIR),
            workers=int(overrides.get("workers", doc.get("workers", 1))),
            verbose=bool(overrides.get("verbose", False)),
        )


@dataclass
class ResultRecord:
    """One computation outcome; serialization round-trips losslessly.

    Wall time is carried in memory and in the lossless record dump, but is
    excluded from emitted artifact files so reruns stay byte-identical.
    """

    config_echo: dict
    command: str
    values: dict
    diagnostics: dict
    outcome: str  # ok | obstruction | unresolved | error
    message: str = ""
    refinement_depth: int = 0
    wall_time_s: float = 0.0

    def to_dict(self, include_wall_time=True):
        doc = {
            "config_echo": self.config_echo,
            "command": self.command,
            "values": self.values,
            "diagnostics": self.diagnostics,
            "outcome": self.outcome,
            "message": self.message,
            "refinement_depth": self.refinement_depth,
        }
        if include_wall_time:
            doc["wall_time_s"] = self.wall_time_s
        return doc

    @classmethod
    def from_dict(cls, doc):
        return cls(
            config_echo=doc["config_echo"],
            command=doc["command"],
            values=doc["values"],
            diagnostics=doc["diagnostics"],
            outcome=doc["outcome"],
            message=doc.get("message", ""),
            refinement_depth=doc.get("refinement_depth", 0),
            wall_time_s=doc.get("wall_time_s", 0.0),
        )


def build_field(model_spec, occupied, grid, seed):
    """Instantiate a model block into (field, gap window or None)."""
    if "file" in model_spec:
        bloch = load_bloch(model_spec["file"])
    else:
        name = model_spec.get("name")
        params = dict(model_spec.get("params") or {})
        if name == "kane_mele":
            bloch = kane_mele(
                params.get("t", 1.0),
                params.get("lambda_so", 0.06),
                params.get("lambda_r", 0.05),
                params.get("lambda_v", 0.1),
            )
        elif name == "haldane":
            bloch = haldane(
                params.get("t1", 1.0),
                params.get("t2", 0.1),
                params.get("phi", np.pi / 2),
                params.get("m_sub", 0.0),
            )
        elif name == "random_trs":
            bloch, field, window = random_trs_hamiltonian(
                int(params.get("dim", 8)),
                int(params.get("rank", 4)),
                int(params.get("m_max", 2)),
                seed=seed,
            )
            return field, window
        elif name == "random":
            bloch, field, window = random_gapped_hamiltonian(
                int(params.get("dim", 4)),
                int(params.get("rank", 2)),
                int(params.get("m_max", 1)),
                seed=seed,
            )
            return field, window
        else:
            raise ConfigError(f"unknown model {name!r}")
    occ = occupied if occupied is not None else bloch.dim // 2
    field, window = spectral_projector(bloch, occ)
    return field, window


def _sanitize(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _invariant_record(command, field, window, grid):
    values = {}
    diagnostics = {}
    if window is not None:
        diagnostics["min_gap"] = window.min_gap
    if command == "chern":
        report = chern(field, grid)
        values["chern"] = report.value
        diagnostics.update(report.diagnostics)
        depth = report.diagnostics.get("grid_depth", 0)
    else:
        report = delta(field, grid)
        values["delta"] = report.value
        diagnostics.update(report.diagnostics)
        depth = report.diagnostics.get("grid_depth", 0)
    return values, diagnostics, depth


def run_single(config: RunConfig, sweep_value=None) -> ResultRecord:
    """Execute one (possibly sweep-point) computation into a record."""
    started = time.monotonic()
    echo = {
        "command": config.command,
        "model": config.model,
        "grid": list(config.grid),
        "seed": config.seed,
    }
    if sweep_value is not None:
        echo["sweep_value"] = sweep_value
    grid = Grid2(*config.grid)
    try:
        model_spec = config.model
        if sweep_value is not None:
            model_spec = json.loads(json.dumps(config.model))
            model_spec.setdefault("params", {})[config.sweep["parameter"]] = sweep_value
        command = config.command if sweep_value is None else None
        field, window = build_field(model_spec, config.occupied, grid, config.seed)

        if sweep_value is not None:
            command = "delta" if field.trs is not None else "chern"
            values, diagnostics, depth = _invariant_record(command, field, window, grid)
            values.setdefault("chern" if command == "delta" else "delta", None)
            outcome, message = "ok", ""
        elif command in ("chern", "delta"):
            values, diagnostics, depth = _invariant_record(command, field, window, grid)
            outcome, message = "ok", ""
        elif command == "split":
            cert = split(field, int(config.split_h), grid)
            values = {
                "chern_minus": cert.chern_minus,
                "chern_plus": cert.chern_plus,
                "delta": cert.delta,
                "h": cert.h,
            }
            diagnostics = dict(cert.residuals)
            depth = diagnostics.pop("grid_depth", 0)
            outcome, message = "ok", ""
        elif command == "frame":
            if field.trs is not None:
                frame = symmetric_frame(field, grid)
            else:
                frame = pseudo_periodic_frame(field, grid)
            values = {
                "h": frame.h,
                "boundary_exponents": [int(e) for e in frame.boundary_exponents],
                "symmetric": frame.symmetric,
            }
            diagnostics = dict(frame.residuals)
            depth = diagnostics.pop("grid_depth", 0)
            outcome, message = "ok", ""
            if config.out_dir:
                os.makedirs(config.out_dir, exist_ok=True)
                save_frame(frame, os.path.join(config.out_dir, "frame.json"))
        elif command == "equivalence":
            field2, _ = build_field(config.model2, config.occupied, grid, config.seed)
            res = symmetric_equivalence(field, field2, grid)
            values = {
                "obstructed": res.obstructed,
                "delta0": res.delta0,
                "delta1": res.delta1,
            }
            diagnostics = dict(res.residuals)
            depth = 0
            outcome = "obstruction" if res.obstructed else "ok"
            message = "delta invariants differ" if res.obstructed else ""
        else:
            raise ConfigError(f"unsupported command {command!r}")
    except ParityObstruction as err:
        values = {"delta": err.delta, "h": err.h}
        diagnostics = {}
        depth = 0
        outcome, message = "obstruction", str(err)
    except Unresolved as err:
        values, diagnostics, depth = {}, {}, 0
        outcome, message = "unresolved", str(err)
    except (ConfigError,):
        raise
    except BandTopoError as err:
        values, diagnostics, depth = {}, {}, 0
        outcome, message = "error", str(err)
    return ResultRecord(
        config_echo=_sanitize(echo),
        command=config.command,
        values=_sanitize(values),
        diagnostics=_sanitize(diagnostics),
        outcome=outcome,
        message=message,
        refinement_depth=depth,
        wall_time_s=time.monotonic() - started,
    )


def _sweep_values(sweep):
    lo, hi, steps = float(sweep["min"]), float(sweep["max"]), int(sweep["steps"])
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def run(config: RunConfig):
    """Run a config; returns the list of result records."""
    if config.command == "check":
        return [run_self_check(config)]
    if config.command != "sweep":
        return [run_single(config)]
    values = _sweep_values(config.sweep)
    if config.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            records = list(pool.map(run_single, [config] * len(values), values))
    else:
        records = [run_single(config, v) for v in values]
    return records


# --------------------------------------------------------------------------
# emission


def _fmt17(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def emit_phase_diagram(records, out_dir, stem="sweep"):
    """CSV + JSON emission with bit-stable formatting (LF endings, .17g).

    Wall times are omitted so identical configs re-emit identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    json_path = os.path.join(out_dir, f"{stem}.json")

    header = ["sweep_value", "chern", "delta", "min_gap", "max_residual", "outcome"]
    lines = [",".join(header)]
    for rec in records:
        gap = rec.diagnostics.get("min_gap")
        residual_keys = [
            "intertwining_residual",
            "rounding_residual",
            "matching_unitarity",
        ]
        max_res = max(
            (rec.diagnostics.get(k) for k in residual_keys if rec.diagnostics.get(k) is not None),
            default=None,
        )
        chern_val = rec.values.get("chern")
        delta_val = rec.values.get("delta")
        lines.append(
            ",".join(
                [
                    _fmt17(rec.config_echo.get("sweep_value")),
                    "" if chern_val is None else str(int(chern_val)),
                    "" if delta_val is None else str(int(delta_val)),
                    _fmt17(gap),
                    _fmt17(max_res),
                    rec.outcome,
                ]
            )
        )
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    doc = [rec.to_dict(include_wall_time=False) for rec in records]
    with open(json_path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return csv_path, json_path


# --------------------------------------------------------------------------
# self-check suite


def run_self_check(config: RunConfig) -> ResultRecord:
    """Fast property battery; outcome is ok iff every check passes."""
    started = time.monotonic()
    checks = {}

    from . import linalg
    from .transport import kato_nagy

    rng = np.random.default_rng(7)

    k = linalg.grid_nodes(32)
    checks["winding_unit"] = linalg.winding(np.exp(1j * k)) == 1
    checks["winding_constant"] = linalg.winding(np.ones(16, dtype=complex)) == 0

    def rand_proj(d, r):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(z)
        return q[:, :r] @ q[:, :r].conj().T

    ok = True
    for _ in range(10):
        p, q = rand_proj(4, 2), rand_proj(4, 2)
        if np.linalg.norm(p - q, 2) < 1.0 - 1e-9:
            u = kato_nagy(p, q)
            ok = ok and linalg.op_norm(u @ p @ u.conj().T - q) < 1e-11
    checks["kato_nagy_intertwines"] = ok

    ok = True
    for _ in range(10):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        qm, _ = np.linalg.qr(z)
        l = linalg.unitary_log(qm)
        ok = ok and linalg.op_norm(linalg.expm_i_hermitian(l) - qm) < 1e-9
    checks["unitary_log_roundtrip"] = ok

    h_model = haldane(1.0, 0.1, np.pi / 2, 0.0)
    field, _ = spectral_projector(h_model, 1)
    g = Grid2(16, 16)
    checks["haldane_chern_vs_fhs"] = chern(field, g).value == fhs_chern(field, g)

    km_topo, _ = spectral_projector(kane_mele(1.0, 0.06, 0.05, 0.1), 2)
    km_triv, _ = spectral_projector(kane_mele(1.0, 0.06, 0.05, 0.5), 2)
    checks["kane_mele_topological_delta"] = delta(km_topo, g).value == -1
    checks["kane_mele_trivial_delta"] = delta(km_triv, g).value == 1

    failed = sorted(name for name, passed in checks.items() if not passed)
    return ResultRecord(
        config_echo={"command": "check"},
        command="check",
        values={"passed": len(checks) - len(failed), "failed": failed},
        diagnostics={},
        outcome="ok" if not failed else "error",
        message="" if not failed else f"failed: {', '.join(failed)}",
        wall_time_s=time.monotonic() - started,
    )


# --------------------------------------------------------------------------
# entry point


def _exit_code(records) -> int:
    outcomes = {rec.outcome for rec in records}
    if "error" in outcomes:
        return 5
    if "unresolved" in outcomes:
        return 3
    if "obstruction" in outcomes:
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bandtopo",
        description="Chern / Z2 invariants of Bloch projector fields over the torus.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", help="output directory (env BANDTOPO_OUT as default)")
    parser.add_argument("--workers", type=int, help="sweep worker processes")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--grid", help="grid override, e.g. 32x32")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.workers:
        overrides["workers"] = args.workers
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.grid:
        try:
            n1, n2 = (int(x) for x in args.grid.lower().split("x"))
        except ValueError:
            print(f"config error: --grid expects N1xN2, got {args.grid!r}", file=sys.stderr)
            return 4
        overrides["grid"] = (n1, n2)
    overrides["verbose"] = args.verbose

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 4

    try:
        config = RunConfig.from_dict(doc, overrides)
        records = run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 4
    except BandTopoError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 5

    for rec in records:
        line = {
            "outcome": rec.outcome,
            "values": rec.values,
        }
        if args.verbose:
            line["diagnostics"] = rec.diagnostics
            line["wall_time_s"] = round(rec.wall_time_s, 3)
        print(json.dumps(line, sort_keys=True))
        if rec.message and args.verbose:
            print(f"  note: {rec.message}")

    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        if config.command == "sweep":
            emit_phase_diagram(records, config.out_dir)
        path = os.path.join(config.out_dir, "records.json")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(
                [rec.to_dict(include_wall_time=False) for rec in records],
                fh,
                sort_keys=True,
                separators=(",", ":"),
            )
            fh.write("\n")
    return _exit_code(records)


if __name__ == "__main__":
    sys.exit(main())
