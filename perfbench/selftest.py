"""Self-test of the benchmark's checks, on tiny inputs.

    python3 perfbench/selftest.py

For each workload it feeds the workload's own check real program outputs on
small models and confirms that they pass, then hands it a wrong answer (a
flipped delta, a wrong factor Chern number, a frame with a wrong boundary
exponent, a unitary family that does not intertwine) and confirms that the
check rejects it and that the operation is counted as failed. Exits 0 when
every case behaves, 1 otherwise.
"""

import copy
import os
import sys
import tempfile
from dataclasses import replace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import bandtopo as bt  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES = []


def expect(label, ops, problems, failed):
    attempted, got = wl.tally(ops, problems)
    ok = got == failed
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} of {attempted} ops failed"
          + (f" ({'; '.join(m for ms in problems.values() for m in ms)})" if problems else ""))
    if not ok:
        FAILURES.append(label)


def z2_random():
    bloch = wl.km(0.1)
    field, _ = bt.spectral_projector(bloch, 2)
    draw = wl.Draw("odd", seed=0, dispersion=0.0, g_min=0.0, expected=-1)
    ops = []
    wl.call(ops, "odd.chern", "chern", bt.chern, field)
    wl.call(ops, "odd.delta", "delta", bt.delta, field)
    wl.call(ops, "odd.fhs_chern", "fhs_chern", bt.fhs_chern, field)
    wl.call(ops, "odd.wilson_z2", "wilson_z2", bt.wilson_z2, field, bt.Grid2(16, 64))
    check = wl.Z2Random().check
    expect("z2-random: Kane-Mele lambda_v=0.1", ops, check([draw], None, ops, {}), 0)

    flipped = [replace(op, value=bt.InvariantReport("delta", -op.value.value))
               if op.name == "odd.delta" else op for op in ops]
    expect("z2-random: flipped delta", flipped, check([draw], None, flipped, {}), 1)
    wrong = [replace(op, value=bt.InvariantReport("chern", 1)) if op.name == "odd.chern" else op
             for op in ops]
    expect("z2-random: nonzero chern", wrong, check([draw], None, wrong, {}), 1)
    expect("z2-random: draw selected odd but even",
           ops, check([replace(draw, expected=1)], None, ops, {}), 1)
    raised = ops[:-1] + [wl.Op("odd.wilson_z2", "wilson_z2", 0.0, error=bt.Unresolved("x"))]
    expect("z2-random: operation raising", raised, check([draw], None, raised, {}), 1)


def km_sweep():
    with tempfile.TemporaryDirectory(dir=HERE) as out_root:
        sweep = wl.KmSweep(os.path.join(out_root, "out"))
        sweep.steps, sweep.grid = 4, (16, 16)
        spec = sweep.generate(0)
        inputs = sweep.setup(spec)
        ops = sweep.run(inputs)
        oracles = sweep.oracles(spec, inputs, ops)
        expect("km-sweep: 4 points at 16x16", ops, sweep.check(spec, inputs, ops, oracles), 0)

        records = copy.deepcopy(ops[0].value)
        records[1].values["delta"] = -records[1].values["delta"]
        tampered = [replace(ops[0], value=records), ops[1]]
        expect("km-sweep: flipped delta at one point", tampered,
               sweep.check(spec, inputs, tampered, oracles), 2)
        expect("km-sweep: bracket disagrees with wilson_z2", ops,
               sweep.check(spec, inputs, ops, {k: -v for k, v in oracles.items()}), 1)
        sweep.cleanup(inputs)


def split_frame():
    stage = wl.SplitFrame()
    draw = wl.Model("random", seed=3, dim=4, rank=2, m_max=1, expected=1)
    spec = {
        "split": [("split_random", draw, 0)],
        "frame": [("symmetric_frame", draw), ("pseudo_periodic_frame", wl.Model("haldane"))],
        "equivalence": [("equivalence_mixed", draw, wl.Model("km", 0.1))],
    }
    inputs = stage.setup(spec)
    ops = stage.run(inputs)
    oracles = stage.oracles(spec, inputs, ops)
    expect("split-frame: 4-band draw, Haldane, mixed pair", ops,
           stage.check(spec, inputs, ops, oracles), 0)

    wrong_chern = {**oracles, "split_random": (1, -1)}
    expect("split-frame: wrong factor Chern number", ops,
           stage.check(spec, inputs, ops, wrong_chern), 1)
    odd = {**spec, "split": [("split_random", replace(draw, expected=-1), 0)]}
    expect("split-frame: flipped expected delta", ops, stage.check(odd, inputs, ops, oracles), 1)
    expect("split-frame: frame with a wrong Chern exponent", ops,
           stage.check(spec, inputs, ops, {**oracles, "pseudo_periodic_frame": 0}), 1)
    parity = [replace(op, value=None, error=None) if op.name == "split_parity" else op
              for op in ops]
    expect("split-frame: wrong parity not refused", parity,
           stage.check(spec, inputs, parity, oracles), 1)

    # the numpy intertwining check, on a family V = Id between a field and itself
    bloch, field = inputs["split"][0][1]
    n1p1, n2 = 9, 8
    identity = np.broadcast_to(np.eye(field.dim, dtype=complex), (n1p1, n2, field.dim, field.dim))
    res = bt.EquivalenceResult(False, 1, 1, unitary=identity.copy())
    good = wl.check_equivalence(res, bloch, bloch, field.rank, field.trs.j)
    other = wl.km(0.5)
    bad = wl.check_equivalence(res, bloch, other, field.rank, field.trs.j)
    for label, found, want in (("V = Id on (P, P)", good, False),
                               ("V = Id on (P, Q)", bad, True)):
        ok = bool(found) == want
        print(f"{'ok  ' if ok else 'FAIL'} split-frame: {label}: {found or 'passes'}")
        if not ok:
            FAILURES.append(label)


def main():
    z2_random()
    km_sweep()
    split_frame()
    if FAILURES:
        print(f"{len(FAILURES)} self-test case(s) failed: {FAILURES}")
        return 1
    print("every self-test case behaved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
