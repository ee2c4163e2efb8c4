"""Benchmark of the sensitivity-weighted fit -> enforce -> validate chain.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow-large --seed 1 --seconds 10 --trace 0

Workloads (see README.md for the reasoning and reference figures):

* ``flow-large``: cold ``run_flow`` calls on the 20-port paper test case,
  in-process, with no store;
* ``campaign-cold``: ``run_campaign`` passes over a 12-scenario
  termination sweep of the 9-port case, each from an empty cache and
  registry;
* ``campaign-warm``: the same sweep against a cache filled during set-up,
  each pass with a fresh registry, so every scenario is a cache hit.

Every workload runs the program's shipped defaults.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (timers installed by :mod:`layers`) with ``--trace 1``.
The line before it is the host fingerprint.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The campaign sweep: 3 x 2 x 2 = 12 scenarios of the small (9-port) case.
SWEEP = {
    "decap_c_scale": (0.5, 1.0, 2.0),
    "vrm_resistance": (1e-4, 1e-3),
    "weight_mode": ("relative", "absolute"),
}
#: Campaign workers: one process, at most two workers.
JOBS = max(1, min(2, os.cpu_count() or 1))
#: Fresh-interpreter set-up samples per run; setup_s reports their median.
SETUP_REPEATS = 7
#: Relative agreement between a direct run_flow and its campaign record.
RECOMPUTE_RTOL = 1e-6

WORKLOADS = ("flow-large", "campaign-cold", "campaign-warm")
STAGES = ("standard_fit", "sensitivity", "weighting", "enforce", "validate")

#: Per-layer metrics: name -> unit.  Layer timers not reached on a
#: workload read 0.
LAYER_METRICS = {
    "setup.import_s": "s",
    "pdn.testcase_s": "s",
    "pdn.variant_s": "s",
    "vectfit.fit_s": "s",
    "vectfit.fits": "count",
    "vectfit.iterations": "count",
    "vectfit.converged_fits": "count",
    "vectfit.magnitude_s": "s",
    "sensitivity.xi_s": "s",
    "sensitivity.zpdn_s": "s",
    "sensitivity.cost_s": "s",
    "passivity.enforce_s": "s",
    "passivity.enforce_iterations": "count",
    "passivity.checker_s": "s",
    "passivity.exact_checks": "count",
    "passivity.sampling_checks": "count",
    "passivity.sampling_s": "s",
    "passivity.report_s": "s",
    "passivity.check_s": "s",
    "passivity.check_calls": "count",
    "passivity.constraints_s": "s",
    "passivity.qp_s": "s",
    "passivity.qp_calls": "count",
    "passivity.cost_s": "s",
    "statespace.hamiltonian_s": "s",
    "statespace.half_size_calls": "count",
    "statespace.full_size_calls": "count",
    "flow.validate_s": "s",
    **{f"api.stage.{stage}_s": "s" for stage in STAGES},
    "api.store_get_s": "s",
    "api.store_put_s": "s",
    "api.store_hits": "count",
    "api.store_puts": "count",
    "api.digest_s": "s",
    "campaign.prefit_s": "s",
    "campaign.cache_get_s": "s",
    "campaign.cache_put_s": "s",
    "campaign.cache_hits": "count",
    "campaign.registry_s": "s",
    "campaign.worker_busy_s": "s",
    "campaign.pool_util": "1",
}

_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
import repro
imported = time.perf_counter()
repro.make_paper_testcase(sys.argv[1])
print(json.dumps({"import_s": imported - start,
                  "testcase_s": time.perf_counter() - imported}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Processes, disk, host
# ----------------------------------------------------------------------
def reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every worker process this run started has ended."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            return
        time.sleep(0.01)


def tree_bytes(*paths: Path) -> int:
    return sum(
        f.stat().st_size for p in paths for f in p.rglob("*") if f.is_file()
    )


def measure_setup(size: str) -> list[dict]:
    """``import repro`` plus test-case generation in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, size], env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one."""
    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "*.libs" / "lib*openblas*.so*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def host_fingerprint(blas_threads: dict) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "blas": blas,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark run: options, scratch space, trace, checks."""

    def __init__(self, args, workdir: Path, trace) -> None:
        self.seconds = args.seconds
        self.rng = np.random.default_rng(args.seed)
        self.workdir = workdir
        self.trace = trace
        self.failures: list[str] = []
        self.blas_threads: dict = {"benchmark_process": openblas_threads()}

    def check(self, label: str, failures: list[str]) -> None:
        self.failures.extend(f"{label}: {failure}" for failure in failures)

    def guarded(self, label: str, fn, *args):
        """Run checks; an exception they raise is a failed check."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            self.failures.append(f"{label}: raised {exc!r}")
            return None

    def measure(self, op) -> list[dict]:
        """Repeat ``op`` until ``seconds`` have passed (at least once)."""
        ops: list[dict] = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < self.seconds:
            before = self.trace.snapshot() if self.trace else {}
            tic = time.perf_counter()
            entry = op(len(ops))
            entry["wall_s"] = time.perf_counter() - tic
            reap_children()
            if self.trace:
                after = self.trace.snapshot()
                entry["layers"] = {
                    k: v - before.get(k, 0.0) for k, v in after.items()
                }
            ops.append(entry)
        return ops


def flow_large(run: Run) -> dict:
    import oracles
    from repro import make_paper_testcase, run_flow
    from repro.api.config import ValidationOptions
    from repro.statespace.serialization import save_model

    case = make_paper_testcase("large")
    low_band = ValidationOptions().low_band_hz

    def op(index: int) -> dict:
        out = run.workdir / f"flow-{index}"
        out.mkdir()
        try:
            result = run_flow(case.data, case.termination, case.observe_port)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            return {"error": repr(exc), "dirs": [out]}
        # The artifacts `repro flow` leaves: passive model and summary.
        save_model(result.weighted_enforced.model, out / "passive_model.json")
        (out / "flow_summary.json").write_text(
            json.dumps(result.summary_dict(), indent=1), encoding="utf-8"
        )
        return {"result": result, "dirs": [out]}

    ops = run.measure(op)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    oracle = oracles.oracle_case(case.data, case.termination, case.observe_port)

    def self_test(result, rows) -> None:
        missing = oracles.self_test(
            result.weighted_enforced.model, result.weighted_fit.model,
            rows["passive, weighted cost"], oracle, low_band, run.rng,
        )
        run.check("check-test", [f"{m} not rejected" for m in missing])

    failed = 0
    z_err, s_rms = [], []
    for index, entry in enumerate(ops):
        entry["scenarios"] = 1
        entry["busy_s"] = 0.0
        if "error" in entry:
            failed += 1
            run.check(f"flow {index}", [entry["error"]])
            entry["stages"] = stage_seconds([])
            continue
        result = entry.pop("result")
        rows = {row.label: vars(row) for row in result.accuracy_rows}
        run.guarded(
            f"flow {index}", check_flow_result,
            run, f"flow {index}", result, rows, oracle, low_band,
        )
        if not z_err:  # the first flow that ran
            run.guarded("check-test", self_test, result, rows)
        z_err.append(result.headline_metrics["max_rel_impedance_weighted_cost"])
        s_rms.append(rows["passive, weighted cost"]["rms_scattering"])
        entry["stages"] = stage_seconds([result.stage_provenance])
    return {
        "ops": ops, "attempted": len(ops), "failed": failed,
        "z_err": worst(z_err), "s_rms": worst(s_rms), "extra_setup_s": 0.0,
        "rss_self": rss_self, "rss_children": 0,
    }


def worst(values: list[float]) -> float:
    """The largest value; NaN when every operation failed."""
    return max(values) if values else float("nan")


def check_flow_result(run: Run, label, result, rows, oracle, low_band) -> None:
    """Oracles on both enforced models of one flow result."""
    import oracles

    low_band_errors = []
    for row_label, model in (
        ("passive, weighted cost", result.weighted_enforced.model),
        ("passive, standard cost", result.standard_enforced.model),
    ):
        run.check(f"{label} [{row_label}]", oracles.check_model(model, run.rng))
        run.check(
            f"{label} [{row_label}]",
            oracles.check_row(model, rows[row_label], oracle, low_band),
        )
        low_band_errors.append(
            oracles.impedance_errors(model, oracle, low_band)[1]
        )
    run.check(label, oracles.check_weighting_gain(*low_band_errors))


def stage_seconds(provenances) -> dict[str, float]:
    totals = {stage: 0.0 for stage in STAGES}
    for provenance in provenances:
        for record in provenance:
            if record["stage"] in totals:
                totals[record["stage"]] += float(record["seconds"])
    return totals


def _campaign_spec():
    from repro.campaign import CampaignSpec, ScenarioSpec

    return CampaignSpec.from_axes(
        "perfbench-sweep", ScenarioSpec(name="sweep"), dict(SWEEP)
    )


def _numbers(record: dict) -> dict:
    """The program's result figures of a record, flattened."""
    flat = {f"metrics.{k}": v for k, v in (record.get("metrics") or {}).items()}
    for row in record.get("accuracy_table") or []:
        for key, value in row.items():
            flat[f"{row['label']}.{key}"] = value
    return flat


def compare_records(a: dict, b: dict, rtol: float = 0.0) -> list[str]:
    """Differences between the result figures of two records."""
    fa, fb = _numbers(a), _numbers(b)
    if fa.keys() != fb.keys():
        return [f"{a['run_id']}: figure sets differ"]
    diffs = []
    for key, va in fa.items():
        vb = fb[key]
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in (va, vb)
        )
        if not numeric or rtol == 0.0:
            same = va == vb
        else:
            same = abs(va - vb) <= rtol * max(abs(vb), 1e-300)
        if not same:
            diffs.append(f"{a['run_id']}: {key} {va!r} vs {vb!r}")
    return diffs


def compare_models(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("poles", "residues", "const")
    )


def all_ok(records: list[dict]) -> list[str]:
    return [
        f"{r['run_id']}: status {r['status']} ({r.get('error')})"
        for r in records if r.get("status") != "ok"
    ]


def campaign(run: Run, warm: bool) -> dict:
    import oracles
    from repro.api.config import ValidationOptions
    from repro.campaign import (
        CampaignRegistry,
        limit_blas_threads,
        run_campaign,
    )
    from repro.flow.macromodel import run_flow
    from repro.pdn.testcase import make_paper_testcase, perturb_termination

    spec = _campaign_spec()
    scenarios = spec.expand()
    nominal = make_paper_testcase("small")
    low_band = ValidationOptions().low_band_hz
    workdir = run.workdir

    def execute(cache: Path, registry: Path):
        result = run_campaign(
            spec, registry=CampaignRegistry(registry),
            cache=str(cache), jobs=JOBS,
        )
        return result.records

    fill_s = 0.0
    reference = None  # (records, registry dir) every later pass must equal
    if warm:
        tic = time.perf_counter()
        fill = execute(workdir / "cache", workdir / "fill-registry")
        fill_s = time.perf_counter() - tic
        reap_children()
        reference = (fill, workdir / "fill-registry")

    def op(index: int) -> dict:
        cache = workdir / ("cache" if warm else f"cache-{index}")
        registry = workdir / f"registry-{index}"
        records = execute(cache, registry)
        return {"records": records, "dirs": [cache, registry]}

    ops = run.measure(op)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def full_check(label: str, records: list[dict], registry: Path):
        store = CampaignRegistry(registry)
        for record in records:
            if record.get("status") != "ok":
                continue
            scenario = next(s for s in scenarios if s.run_id == record["run_id"])
            model, _ = store.load_model(record["run_id"])
            termination = perturb_termination(
                nominal.termination,
                decap_c_scale=scenario.decap_c_scale,
                decap_esr_scale=scenario.decap_esr_scale,
                vrm_resistance=scenario.vrm_resistance,
                total_die_current=scenario.total_die_current,
            )
            case = oracles.oracle_case(
                nominal.data, termination, nominal.observe_port
            )
            rows = {row["label"]: row for row in record["accuracy_table"]}
            weighted = rows["passive, weighted cost"]
            tag = f"{label} {record['run_id']}"
            run.check(tag, oracles.check_model(model, run.rng))
            run.check(tag, oracles.check_row(model, weighted, case, low_band))
            _, z_low = oracles.impedance_errors(model, case, low_band)
            run.check(tag, oracles.check_weighting_gain(
                z_low, rows["passive, standard cost"]["low_band_rel_impedance"]
            ))

    def same_as(label, records, registry, ref_records, ref_registry) -> bool:
        by_id = {r["run_id"]: r for r in ref_records}
        diffs = []
        for record in records:
            diffs += compare_records(record, by_id[record["run_id"]])
            mine, _ = CampaignRegistry(registry).load_model(record["run_id"])
            theirs, _ = CampaignRegistry(ref_registry).load_model(
                record["run_id"]
            )
            if not compare_models(mine, theirs):
                diffs.append(f"{record['run_id']}: stored models differ")
        if warm:
            run.check(label, diffs)
        return not diffs

    attempted = failed = 0
    z_err, s_rms = [], []
    for index, entry in enumerate(ops):
        records = entry.pop("records")
        registry = entry["dirs"][1]
        label = f"pass {index}"
        attempted += len(records)
        failed += len(all_ok(records))
        run.check(label, all_ok(records))
        if warm:
            misses = [r["run_id"] for r in records if not r.get("cache_hit")]
            run.check(label, [f"{m}: not a cache hit" for m in misses])
        if reference is None:
            run.guarded(label, full_check, label, records, registry)
            reference = (records, registry)
        elif not run.guarded(
            label, same_as, label, records, registry, *reference
        ):
            run.guarded(label, full_check, label, records, registry)
        entry["scenarios"] = len(records)
        entry["stages"] = stage_seconds(
            [r.get("timings", {}).get("stages", []) for r in records]
        )
        entry["busy_s"] = sum(float(r.get("duration_s") or 0.0) for r in records)
        for r in records:
            if r.get("status") == "ok":
                rows = {row["label"]: row for row in r["accuracy_table"]}
                z_err.append(r["metrics"]["max_rel_impedance_weighted_cost"])
                s_rms.append(rows["passive, weighted cost"]["rms_scattering"])
    if warm:
        run.guarded("fill", full_check, "fill", *reference)
    ref_records = reference[0]
    run.blas_threads["campaign_workers"] = sorted({
        f"{r['environment']['blas_thread_limit']} "
        f"({r['environment']['blas_limit_method']})"
        for r in ref_records if r.get("environment")
    })

    def recompute(picked) -> None:
        """One scenario recomputed directly, outside the campaign engine,
        with the workers' BLAS thread budget (the enforcement path depends
        on the rounding order, so other thread counts give other last
        digits), then the check-tests."""
        record = next(r for r in ref_records if r["run_id"] == picked.run_id)
        worker_threads = record["environment"]["blas_thread_limit"]
        if worker_threads is not None:
            limit_blas_threads(worker_threads)
        testcase = picked.build_testcase()
        result = run_flow(
            testcase.data, testcase.termination,
            picked.resolve_observe_port(testcase), picked.flow_options(),
        )
        direct = {
            "run_id": picked.run_id,
            "metrics": dict(result.headline_metrics),
            "accuracy_table": [vars(row) for row in result.accuracy_rows],
        }
        run.check("recompute", compare_records(direct, record, RECOMPUTE_RTOL))
        oracle = oracles.oracle_case(
            testcase.data, testcase.termination,
            picked.resolve_observe_port(testcase),
        )
        rows = {row["label"]: row for row in direct["accuracy_table"]}
        check_flow_result(run, "recompute", result, rows, oracle, low_band)

        # Check-tests: each check must reject a broken input.
        broken = json.loads(json.dumps(record))
        broken["metrics"]["max_rel_impedance_weighted_cost"] *= 1.01
        failed_record = dict(record, status="failed")
        weighted = rows["passive, weighted cost"]["low_band_rel_impedance"]
        standard = rows["passive, standard cost"]["low_band_rel_impedance"]
        probes = {
            "all-ok vs failed record": all_ok([failed_record]),
            "warm==cold vs perturbed record": compare_records(broken, record),
            "warm==cold vs perturbed model": not compare_models(
                oracles.asymmetric(result.weighted_enforced.model),
                result.weighted_enforced.model,
            ),
            "recompute vs perturbed record": compare_records(
                direct, broken, RECOMPUTE_RTOL
            ),
            "weighting gain vs swapped costs": oracles.check_weighting_gain(
                standard, weighted
            ),
        }
        missing = [name for name, found in probes.items() if not found]
        missing += oracles.self_test(
            result.weighted_enforced.model, result.weighted_fit.model,
            rows["passive, weighted cost"], oracle, low_band, run.rng,
        )
        run.check("check-test", [f"{m} not rejected" for m in missing])

    picked = scenarios[int(run.rng.integers(len(scenarios)))]
    run.guarded("recompute", recompute, picked)
    return {
        "ops": ops, "attempted": attempted, "failed": failed,
        "z_err": worst(z_err), "s_rms": worst(s_rms), "extra_setup_s": fill_s,
        "rss_self": rss_self, "rss_children": rss_children,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def end_to_end(outcome: dict, setup: list[dict]) -> dict:
    ops = outcome["ops"]
    base_setup = statistics.median(s["import_s"] + s["testcase_s"] for s in setup)
    peak_kb = outcome["rss_self"] + JOBS * outcome["rss_children"]
    disk = statistics.median(tree_bytes(*entry["dirs"]) for entry in ops)
    values = {
        "setup_s": (base_setup + outcome["extra_setup_s"], "s"),
        "scenarios_per_s": (
            statistics.median(e["scenarios"] / e["wall_s"] for e in ops), "1/s"
        ),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "disk_mb": (disk / 1e6, "MB"),
        "z_err_weighted": (outcome["z_err"], "1"),
        "s_rms_weighted": (outcome["s_rms"], "1"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(outcome: dict, setup: list[dict]) -> dict:
    ops = outcome["ops"]

    def median_of(fn) -> float:
        return float(statistics.median(fn(entry) for entry in ops))

    values = {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "pdn.testcase_s": statistics.median(s["testcase_s"] for s in setup),
        "campaign.worker_busy_s": median_of(lambda e: e["busy_s"]),
        "campaign.pool_util": median_of(
            lambda e: e["busy_s"] / (e["wall_s"] * JOBS)
        ),
    }
    for stage in STAGES:
        values[f"api.stage.{stage}_s"] = median_of(
            lambda e, stage=stage: e["stages"][stage]
        )
    for name in LAYER_METRICS:
        if name not in values:
            values[name] = median_of(lambda e, name=name: e["layers"].get(name, 0.0))
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = measure_setup("large" if args.workload == "flow-large" else "small")
    trace = None
    if args.trace:
        import layers

        trace = layers.install(layers.LayerTrace())
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(args, workdir, trace)
        if args.workload == "flow-large":
            outcome = flow_large(run)
        else:
            outcome = campaign(run, warm=args.workload == "campaign-warm")
        metrics = per_layer(outcome, setup) if trace else end_to_end(outcome, setup)
    finally:
        reap_children()
        if trace:
            trace.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("host " + json.dumps(host_fingerprint(run.blas_threads)))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
