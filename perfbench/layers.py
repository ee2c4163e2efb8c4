"""Per-layer timers installed around the public calls of each repro module.

The benchmark never edits the program: a traced run replaces module and
class attributes with timing wrappers, from the benchmark's own code.
Callers bind their ``from ... import`` names when they are imported, so
each wrapper goes where the caller looks the name up (for example
``repro.passivity.enforce.solve_block_qp``, not ``repro.passivity.qp``).

Campaign workers are forked from the benchmark process after the wrappers
are installed, so they inherit them.  The wrapper around
``execute_scenario`` ships each worker's per-scenario deltas back inside
the returned record, and the wrapper around
``CampaignRegistry.record_run`` removes them again in the parent before
anything is written, so the registry never sees them.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

#: Record key the worker-side deltas travel under (removed before storage).
_DELTA_KEY = "_perfbench_layers"


class LayerTrace:
    """Accumulated seconds and counts per layer metric, in one process.

    A metric counts only the outermost of nested calls that feed it, so a
    layer's seconds are inclusive wall time, never double counted.
    """

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._active: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    def snapshot(self) -> dict[str, float]:
        return dict(self.values)

    def merge(self, delta: dict[str, float]) -> None:
        for name, value in delta.items():
            self.values[name] += value

    def _wrap(self, fn, metrics: tuple[str, ...], counter):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fresh = [m for m in metrics if m not in trace._active]
            trace._active.update(fresh)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                for metric in fresh:
                    trace.values[metric] += elapsed
                trace._active.difference_update(fresh)
            if counter is not None:
                for name, value in counter(result).items():
                    trace.values[name] += value
            return result

        return wrapper

    def patch(self, owner, name: str, metrics, counter=None) -> None:
        """Replace ``owner.name`` with a timer feeding ``metrics``.

        ``counter(result)`` optionally returns count increments derived
        from the call's result.
        """
        if isinstance(metrics, str):
            metrics = (metrics,)
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, self._wrap(original, tuple(metrics), counter))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Campaign workers
    # ------------------------------------------------------------------
    def wrap_worker_entry(self, module) -> None:
        """Ship a forked worker's per-scenario deltas back in its record."""
        original = module.execute_scenario
        trace = self

        @functools.wraps(original)
        def execute_scenario(*args, **kwargs):
            if os.getpid() == trace._pid:
                return original(*args, **kwargs)
            before = trace.snapshot()
            record, model = original(*args, **kwargs)
            after = trace.snapshot()
            record[_DELTA_KEY] = {
                name: value - before.get(name, 0.0)
                for name, value in after.items()
                if value != before.get(name, 0.0)
            }
            return record, model

        self._patches.append((module, "execute_scenario", original))
        module.execute_scenario = execute_scenario

    def wrap_registry(self, registry_cls) -> None:
        """Time registry writes; pull worker deltas out of each record."""
        original = registry_cls.record_run
        trace = self

        @functools.wraps(original)
        def record_run(self, record, model=None):
            delta = record.pop(_DELTA_KEY, None)
            if delta:
                trace.merge(delta)
            start = time.perf_counter()
            try:
                return original(self, record, model)
            finally:
                trace.values["campaign.registry_s"] += (
                    time.perf_counter() - start
                )

        self._patches.append((registry_cls, "record_run", original))
        registry_cls.record_run = record_run
        self.patch(registry_cls, "write_manifest", "campaign.registry_s")


def _fit_counts(results) -> dict[str, float]:
    results = results if isinstance(results, list) else [results]
    return {
        "vectfit.fits": len(results),
        "vectfit.iterations": sum(r.iterations for r in results),
        "vectfit.converged_fits": sum(bool(r.converged) for r in results),
    }


def _one(name: str):
    return lambda _result: {name: 1}


def _hit(name: str):
    return lambda result: {name: 1} if result is not None else {}


def install(trace: LayerTrace) -> LayerTrace:
    """Install every layer timer of the per-layer metric table."""
    import repro.api.artifacts as artifacts
    import repro.api.stages as stages
    import repro.campaign.executor as executor
    import repro.campaign.scenario as scenario
    import repro.flow.macromodel as macromodel
    import repro.flow.metrics as flow_metrics
    import repro.passivity.check as check
    import repro.passivity.engine as engine
    import repro.passivity.enforce as enforce
    import repro.sensitivity.zpdn as zpdn
    import repro.statespace.hamiltonian as hamiltonian
    import repro.vectfit.order_selection as order_selection
    from repro.campaign.cache import FlowCache
    from repro.campaign.registry import CampaignRegistry

    for owner in (stages, macromodel, order_selection):
        trace.patch(owner, "vector_fit", "vectfit.fit_s", _fit_counts)
    trace.patch(
        executor, "fit_many", ("vectfit.fit_s", "campaign.prefit_s"),
        _fit_counts,
    )
    for owner in (stages, macromodel):
        trace.patch(owner, "build_weight_model", "vectfit.magnitude_s")
        trace.patch(owner, "sensitivity_analytic", "sensitivity.xi_s")
    for owner, names in (
        (stages, ("target_impedance", "target_impedance_of_model")),
        (flow_metrics, ("target_impedance_of_model",)),
        (zpdn, ("target_impedance", "target_impedance_of_model")),
    ):
        for name in names:
            trace.patch(owner, name, "sensitivity.zpdn_s")
    trace.patch(stages, "sensitivity_weighted_cost", "sensitivity.cost_s")
    trace.patch(
        stages, "enforce_passivity", "passivity.enforce_s",
        lambda r: {"passivity.enforce_iterations": r.iterations},
    )
    checker = engine.PassivityChecker
    trace.patch(checker, "check", "passivity.checker_s")
    trace.patch(
        checker, "check_exact", "passivity.checker_s",
        _one("passivity.exact_checks"),
    )
    trace.patch(
        checker, "check_sampling",
        ("passivity.checker_s", "passivity.sampling_s"),
        _one("passivity.sampling_checks"),
    )
    for owner in (engine, check):
        trace.patch(owner, "report_from_crossings", "passivity.report_s")
    for owner in (check, stages):
        trace.patch(
            owner, "check_passivity", "passivity.check_s",
            _one("passivity.check_calls"),
        )
    trace.patch(enforce, "build_constraints", "passivity.constraints_s")
    trace.patch(
        enforce, "solve_block_qp", "passivity.qp_s",
        _one("passivity.qp_calls"),
    )
    trace.patch(stages, "l2_gramian_cost", "passivity.cost_s")
    trace.patch(
        engine, "half_size_crossings", "statespace.hamiltonian_s",
        _one("statespace.half_size_calls"),
    )
    for owner in (engine, hamiltonian):
        trace.patch(
            owner, "imaginary_crossings", "statespace.hamiltonian_s",
            _one("statespace.full_size_calls"),
        )
    trace.patch(flow_metrics, "flow_accuracy_rows", "flow.validate_s")
    trace.patch(
        artifacts.ArtifactStore, "get", "api.store_get_s",
        _hit("api.store_hits"),
    )
    trace.patch(
        artifacts.ArtifactStore, "put", "api.store_put_s",
        _one("api.store_puts"),
    )
    trace.patch(stages, "artifact_digest", "api.digest_s")
    trace.patch(scenario, "make_variant_testcase", "pdn.variant_s")
    trace.patch(FlowCache, "get", "campaign.cache_get_s",
                _hit("campaign.cache_hits"))
    trace.patch(FlowCache, "put", "campaign.cache_put_s")
    trace.wrap_registry(CampaignRegistry)
    trace.wrap_worker_entry(executor)
    return trace
