"""Per-layer tracing of bandtopo from outside the package.

``Tracer.install()`` wraps the package's functions and methods under every
name the package looks them up by (``invariants.transport_2d`` and
``decomposition.transport_2d`` are the same function), and replaces the
``np`` global of each package module by a copy of numpy whose ``linalg.eigh``
and ``linalg.svd`` are wrapped, so that only the package's own calls into
them are counted. Each wrapped name records its calls, its total time and
its self time (the total minus that of the wrapped calls it made).
``uninstall()`` puts every original back.

Nothing under ``src/`` is changed; the wrappers live only in the traced
process.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("models", "trs", "transport", "invariants", "linalg", "decomposition", "cli")

# module-level names wrapped as "<layer>.<name>"; chern is special-cased below
FUNCTIONS = {
    "models": ("spectral_projector",),
    "trs": ("quaternionic_basis",),
    "transport": ("transport_2d", "transport_1d", "kato_nagy"),
    "invariants": ("matching_family", "chern", "delta", "fhs_chern", "wilson_z2"),
    "linalg": (
        "op_norm",
        "unitary_log",
        "expm_i_hermitian",
        "inv_sqrt_psd",
        "contract_loop",
        "connect_loops",
    ),
    "decomposition": (
        "split",
        "pseudo_periodic_frame",
        "symmetric_frame",
        "symmetric_equivalence",
    ),
    "cli": ("build_field", "run_single", "run", "emit_phase_diagram"),
}


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class _Namespace:
    """Attribute copy of a module with some attributes replaced; any name
    not copied (a lazily loaded submodule) is looked up on the module."""

    def __init__(self, module, **overrides):
        self.__dict__.update(vars(module))
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self.__dict__["_module"], name)


class Tracer:
    def __init__(self):
        self.stats = {}
        self._children = []  # child-time accumulator per open span
        self._active = {}  # name -> open span count
        self.field_misses = 0
        self.memo_entries = 0
        self.ladder_runs = 0
        self.ladder_first_try = 0
        self.ladder_refinements = 0
        self.wilson_eigh_calls = 0
        self._undo = []

    # ------------------------------------------------------------------ spans

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _enter(self, name):
        self._children.append(0.0)
        self._active[name] = self._active.get(name, 0) + 1
        return time.perf_counter()

    def _leave(self, name, started):
        elapsed = time.perf_counter() - started
        child = self._children.pop()
        self._active[name] -= 1
        stat = self._stat(name)
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - child
        if self._children:
            self._children[-1] += elapsed

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            started = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, started)

        traced.__wrapped__ = fn
        return traced

    def calls(self, name):
        stat = self.stats.get(name)
        return stat.calls if stat else 0

    def self_s(self, name):
        stat = self.stats.get(name)
        return stat.self_s if stat else 0.0

    def total_s(self, name):
        stat = self.stats.get(name)
        return stat.total_s if stat else 0.0

    # ----------------------------------------------------------- installation

    def install(self):
        import numpy

        mods = {name: importlib.import_module(f"bandtopo.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("bandtopo"), *mods.values()]

        def replace_everywhere(original, replacement):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, attr, replacement)

        invariants, decomposition = mods["invariants"], mods["decomposition"]
        # inside split, chern runs on the sampled factors
        self._set(decomposition, "chern",
                  self.wrap("decomposition.factor_chern", decomposition.chern))
        for layer, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                replace_everywhere(original, self.wrap(f"{layer}.{fname}", original))
        replace_everywhere(invariants._run_ladder, self._tallied_ladder(invariants._run_ladder))

        models, trs = mods["models"], mods["trs"]
        self._set(models.BlochHamiltonian, "at",
                  self.wrap("models.hamiltonian_at", models.BlochHamiltonian.at))
        self._set(trs.SampledProjectionField, "_interpolate",
                  self.wrap("trs.sampled_at", trs.SampledProjectionField._interpolate))
        self._set(trs.ProjectionField, "at", self._memo_at(trs.ProjectionField.at))

        fake_linalg = _Namespace(
            numpy.linalg,
            eigh=self._counted_eigh(numpy.linalg.eigh),
            svd=self.wrap("linalg.np_svd", numpy.linalg.svd),
        )
        fake_np = _Namespace(numpy, linalg=fake_linalg)
        for mod in mods.values():
            if getattr(mod, "np", None) is numpy:
                self._set(mod, "np", fake_np)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _tallied_ladder(self, run_ladder):
        def ladder(*args, **kwargs):
            result, depth = run_ladder(*args, **kwargs)
            self.ladder_runs += 1
            self.ladder_first_try += depth == 0
            self.ladder_refinements += depth
            return result, depth

        return ladder

    def _counted_eigh(self, eigh):
        wrapped = self.wrap("linalg.np_eigh", eigh)

        def counted(*args, **kwargs):
            if self._active.get("invariants.wilson_z2"):
                self.wilson_eigh_calls += 1
            return wrapped(*args, **kwargs)

        return counted

    def _memo_at(self, at):
        """ProjectionField.at, counting memo misses and the largest memo."""
        traced = self.wrap("trs.field_at", at)

        def memo_at(field, k1, k2):
            before = len(field._cache)
            try:
                return traced(field, k1, k2)
            finally:
                size = len(field._cache)
                if size > before:
                    self.field_misses += 1
                    self.memo_entries = max(self.memo_entries, size)

        return memo_at

    # ---------------------------------------------------------------- metrics

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}

        def count(name, value):
            out[name] = (value, "count")

        def seconds(name, value):
            out[name] = (value, "s")

        def ratio(name, num, den):
            out[name] = (num / den if den else 0.0, "ratio")

        for name in ("models.hamiltonian_at", "models.spectral_projector",
                     "trs.sampled_at", "transport.transport_2d", "transport.kato_nagy",
                     "linalg.op_norm", "linalg.np_eigh", "linalg.np_svd",
                     "linalg.unitary_log", "linalg.expm_i_hermitian",
                     "linalg.inv_sqrt_psd", "linalg.contract_loop",
                     "linalg.connect_loops"):
            count(f"{name}.calls", self.calls(name))
            seconds(f"{name}.s", self.self_s(name))
        field_calls = self.calls("trs.field_at")
        count("trs.field_at.calls", field_calls)
        count("trs.field_at.misses", self.field_misses)
        ratio("trs.field_at.hit_ratio", field_calls - self.field_misses, field_calls)
        count("trs.memo_entries", self.memo_entries)
        count("trs.quaternionic_basis.calls", self.calls("trs.quaternionic_basis"))
        seconds("transport.transport_1d.s", self.self_s("transport.transport_1d"))
        seconds("invariants.matching_family.s", self.self_s("invariants.matching_family"))
        count("invariants.ladder.refinements", self.ladder_refinements)
        ratio("invariants.ladder.first_try_ratio", self.ladder_first_try, self.ladder_runs)
        seconds("invariants.fhs_chern.s", self.self_s("invariants.fhs_chern"))
        count("invariants.wilson_z2.eigh_calls", self.wilson_eigh_calls)
        count("decomposition.split.calls", self.calls("decomposition.split"))
        # entry points: the time of the whole call, wrapped children included
        for name in ("decomposition.factor_chern", "decomposition.pseudo_periodic_frame",
                     "cli.build_field", "cli.run_single", "cli.emit_phase_diagram"):
            seconds(f"{name}.s", self.total_s(name))
        return out
