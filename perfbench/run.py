"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_fullscale --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics (host time, tracing off); with ``--trace 1``
it carries the per-layer metrics of a separate traced run, and the
spans and a layer report are written under ``.perfbench-out/``.  The
exit code is 0 when a result was printed, 2 when the program cannot be
found or the arguments are wrong.  See ``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()
T0_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

#: The paper's average SHM performance overhead (abstract, Fig. 12).
PAPER_SHM_OVERHEAD_PCT = 8.09


def declared_metrics(kind: str) -> dict:
    """Metric name -> unit of ``end_to_end`` or ``per_layer``, in the
    order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished
    child (the campaign's pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(m) -> dict:
    wall = m.setup_s + statistics.median(m.pass_s)
    return {
        "setup_s": m.setup_s,
        "wall_s": wall,
        "sim_accesses_per_s": m.accesses / m.sim_s if m.sim_s else 0.0,
        "cells_per_s": m.cells_per_pass / wall,
        "cell_s_p50": statistics.median(m.cell_s) if m.cell_s else 0.0,
        "cell_s_p90": percentile(m.cell_s, 90) if m.cell_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_rate": (m.attempted - m.failed) / m.attempted
        if m.attempted else 0.0,
    }


def per_layer(m, inst) -> dict:
    from perfbench.spans import CTX_SIM

    agg = inst.tracer.agg
    passes = max(1, len(m.pass_s))
    setups = m.setups

    def calls(*names):
        return sum(agg.get((CTX_SIM, n), (0, 0, 0))[0] for n in names)

    def self_ns(*names):
        return sum(agg.get((CTX_SIM, n), (0, 0, 0))[2] for n in names)

    def per_call(*names):
        n = calls(*names)
        return self_ns(*names) / n if n else 0.0

    def per_setup_s(*names):
        """Inclusive seconds in every context, per set-up."""
        return sum(v[1] for (_, name), v in agg.items()
                   if name in names) / 1e9 / setups

    sims = inst.sims
    accesses = sum(s["accesses"] for s in sims)
    mdc = {k: [sum(s["mdc"][k][0] for s in sims),
               sum(s["mdc"][k][1] for s in sims)] for k in ("ctr", "mac", "bmt")}
    data = sum(s["data_bytes"] for s in sims)
    calibs = inst.calibrations
    return {
        "pipeline.translate_ns_per_access":
            self_ns("pipeline.translate_batch") / accesses if accesses else 0.0,
        "pipeline.batch_self_ns_per_access":
            self_ns("pipeline.run_batch") / accesses if accesses else 0.0,
        "pipeline.access_ns": per_call("pipeline.access"),
        "l2.range_calls": calls("l2.access_data_range") / passes,
        "l2.range_ns_per_call": per_call("l2.access_data_range"),
        "mee.read_miss_calls":
            calls("mee.on_read_miss", "mee.on_read_miss_direct") / passes,
        "mee.read_miss_self_ns":
            per_call("mee.on_read_miss", "mee.on_read_miss_direct"),
        "mee.writeback_self_ns":
            per_call("mee.on_writeback", "mee.on_writeback_direct"),
        "mdc.access_calls": calls("mdc.access") / passes,
        "mdc.access_ns": per_call("mdc.access"),
        "dram.service_ns": per_call("dram.service"),
        "dram.occupy_ns": per_call("dram.occupy"),
        "runner.calibrate_s": sum(c["seconds"] for c in calibs) / setups,
        "runner.calib_sims": sum(c["sims"] for c in calibs) / setups,
        "runner.calib_repeat_sims":
            sum(c["repeat_sims"] for c in calibs) / setups,
        "runner.calib_err_max": max((c["error"] for c in calibs), default=0.0),
        "runner.calib_out_of_tol":
            len({c["workload"] for c in calibs if not c["in_tolerance"]}),
        "workloads.build_s": per_setup_s("workloads.build"),
        "profiling.ingest_s": per_setup_s("profiling.ingest"),
        "campaign.cell_runtime_sum_s": m.extra.get("cell_runtime_sum_s", 0.0),
        "campaign.pool_overhead_s": m.extra.get("pool_overhead_s", 0.0),
        "campaign.serialize_s":
            per_setup_s("campaign.serialize", "results_io.store_put"),
        "campaign.retries": m.extra.get("retries", 0),
        "l2.miss_rate": (sum(s["l2_misses"] for s in sims) / accesses
                         if accesses else 0.0),
        "mdc.hit_ratio.ctr": mdc["ctr"][0] / mdc["ctr"][1] if mdc["ctr"][1] else 0.0,
        "mdc.hit_ratio.mac": mdc["mac"][0] / mdc["mac"][1] if mdc["mac"][1] else 0.0,
        "mdc.hit_ratio.bmt": mdc["bmt"][0] / mdc["bmt"][1] if mdc["bmt"][1] else 0.0,
        "dram.utilization": (statistics.fmean(s["dram_utilization"] for s in sims)
                             if sims else 0.0),
        "dram.meta_bytes_per_data_byte":
            sum(s["meta_bytes"] for s in sims) / data if data else 0.0,
        "model.shm_overhead_pct": (100 * statistics.fmean(m.shm_overheads)
                                   if m.shm_overheads else 0.0),
    }


def layer_table(inst) -> list:
    """Per-(context, layer) calls and self/inclusive milliseconds."""
    return [{"context": ctx, "layer": name, "calls": v[0],
             "inclusive_ms": v[1] / 1e6, "self_ms": v[2] / 1e6}
            for (ctx, name), v in sorted(inst.tracer.agg.items())]


def write_spans(path: Path, inst) -> None:
    tracer = inst.tracer
    with open(path, "w") as fh:
        fh.write(json.dumps({"columns": ["id", "name", "start_ns", "end_ns",
                                         "parent", "run"],
                             "dropped_fine_spans": tracer.dropped}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            t0: float = T0, t0_ns: int = T0_NS, inject_faults: int = 0,
            **sizes) -> dict:
    """Run one workload under the benchmark's instrumentation; returns
    the result object plus the detail the report prints."""
    from perfbench.spans import TRACE_ENV, Instrumentation
    from perfbench.workloads import WORKLOADS, campaign_cold

    inst = Instrumentation(trace, t0_ns).install()
    inst.inject_faults = inject_faults
    if trace:
        os.environ[TRACE_ENV] = str(t0_ns)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        run_workload = WORKLOADS[workload]
        if run_workload is campaign_cold:
            sizes["out_dir"] = OUT_DIR
        m = run_workload(seed, seconds, t0, inst, **sizes)
    finally:
        inst.uninstall()
        os.environ.pop(TRACE_ENV, None)

    errors = list(m.errors)
    if len(set(m.digests)) > 1:
        errors.append(f"passes disagree: digests {sorted(set(m.digests))}")
    if not m.pass_s:
        errors.append("no pass completed")
    e2e = end_to_end(m) if m.pass_s else {}
    result = {
        "correct": not errors and m.failed == 0,
        "attempted": max(1, m.attempted),
        "failed": m.failed if m.attempted else 1,
    }
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "config": m.config, "notes": m.notes, "errors": errors,
        "digest": m.digests[0] if m.digests else None,
        "passes": len(m.pass_s), "pass_s": m.pass_s,
        "cells_per_pass": m.cells_per_pass, "cell_s": m.cell_s,
        "calibrations": inst.calibrations,
        "end_to_end": e2e,
    }
    if trace:
        values = per_layer(m, inst)
        declared = declared_metrics("per_layer")
        detail["layers"] = layer_table(inst)
        detail["dropped_fine_spans"] = inst.tracer.dropped
    else:
        values = e2e
        declared = declared_metrics("end_to_end")
    result["metrics"] = {k: {"value": values.get(k, 0.0), "unit": u}
                         for k, u in declared.items()}
    return {"result": result, "detail": detail, "inst": inst,
            "measurement": m}


def report(out: dict) -> None:
    """Print the human-readable lines and write the record files."""
    result, detail = out["result"], out["detail"]
    workload, seed, trace = detail["workload"], detail["seed"], detail["trace"]
    stem = OUT_DIR / f"{workload}-seed{seed}"
    print(f"workload {workload} (trace {trace})")
    for note in detail["notes"]:
        print(f"  {note}")
    print(f"  passes {detail['passes']}: "
          + ", ".join(f"{s:.2f} s" for s in detail["pass_s"])
          + f"; {detail['cells_per_pass']} cells per pass; "
          f"result digest {detail['digest']}")
    by_workload = {}
    for c in detail["calibrations"]:
        by_workload.setdefault(c["workload"], []).append(c)
    for name, calibs in sorted(by_workload.items()):
        c = max(calibs, key=lambda c: c["error"])
        print(f"  calibration {name}: utilisation {c['achieved']:.3f} "
              f"vs target {c['target']:.3f} (error {c['error']:.1%}, "
              f"{'in tolerance' if c['in_tolerance'] else 'OUT OF TOLERANCE'}); "
              f"window {c['window']}, {c['rounds']} rounds, {c['sims']} sims, "
              f"{c['repeat_sims']} repeated"
              + (f"; calibrated {len(calibs)} times" if len(calibs) > 1 else ""))
    for err in detail["errors"]:
        print(f"  FAILED {err}")
    samples = {"cell_s_p50": len(detail["cell_s"]),
               "cell_s_p90": len(detail["cell_s"])}
    for name, metric in result["metrics"].items():
        extra = ""
        if name in samples:
            n = samples[name]
            beyond = n - math.ceil(0.9 * n) if name.endswith("p90") else None
            extra = f"  (n={n}" + (f", {beyond} beyond" if beyond is not None
                                  else "") + ")"
        if name == "model.shm_overhead_pct" and metric["value"]:
            extra = (f"  (paper {PAPER_SHM_OVERHEAD_PCT}%: error "
                     f"{metric['value'] - PAPER_SHM_OVERHEAD_PCT:+.2f} pp)")
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}{extra}")

    record = dict(detail, result=result)
    if trace:
        inst = out["inst"]
        spans_path = stem.with_name(stem.name + "-spans.jsonl")
        write_spans(spans_path, inst)
        base_path = stem.with_name(stem.name + "-trace0.json")
        rows = [row for row in detail["layers"] if row["context"] == "sim"]
        gpu_run = sum(r["inclusive_ms"] for r in rows if r["layer"] == "gpu.run")
        if gpu_run:
            print(f"  traced gpu.run {gpu_run / 1e3:.3f} s of scheme runs; "
                  f"self time by layer (sums to "
                  f"{sum(r['self_ms'] for r in rows) / gpu_run:.1%}):")
            for r in sorted(rows, key=lambda r: -r["self_ms"]):
                print(f"    {r['layer']:28s} {r['calls']:>10d} calls "
                      f"{r['self_ms'] / 1e3:9.3f} s self "
                      f"{r['self_ms'] / gpu_run:7.1%}")
        print(f"  spans: {spans_path.relative_to(ROOT)} "
              f"({len(inst.tracer.spans)} kept, "
              f"{inst.tracer.dropped} fine spans folded into aggregates)")
        base = (json.loads(base_path.read_text())
                if base_path.exists() else None)
        if base is not None and base.get("config") == detail["config"]:
            traced_wall = detail["end_to_end"]["wall_s"]
            base_wall = base["end_to_end"]["wall_s"]
            record["tracing_overhead"] = {
                "traced_wall_s": traced_wall, "untraced_wall_s": base_wall,
                "ratio": traced_wall / base_wall,
            }
            print(f"  tracing overhead: traced wall_s {traced_wall:.3f} s / "
                  f"untraced wall_s {base_wall:.3f} s = "
                  f"{traced_wall / base_wall:.3f}")
            if base["digest"] != detail["digest"]:
                result["correct"] = False
                print(f"  FAILED traced digest {detail['digest']} != "
                      f"untraced digest {base['digest']}")
        else:
            print("  tracing overhead: no untraced record of this "
                  "workload, seed and size yet")
    path = stem.with_name(stem.name + f"-trace{trace}.json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))


def selftest() -> int:
    """Tiny-scale check of the benchmark itself: every metric is printed
    by name with the unit BENCHMARK.json declares, traced and untraced
    digests agree, and an injected conservation mismatch is counted as
    a failed run rather than crashing."""
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    tiny = {
        "suite_fullscale": {"models": ("lbm",), "scale": 0.02},
        "campaign_cold": {"workloads": ["atax", "lbm"], "scale": 0.02},
        "tenants_observed": {"scale": 0.02},
    }
    for workload, sizes in tiny.items():
        digests = {}
        for trace in (False, True):
            out = measure(workload, 5, 0.0, trace, t0=time.perf_counter(),
                          **sizes)
            result = out["result"]
            computed = set(per_layer(out["measurement"], out["inst"]) if trace
                           else out["detail"]["end_to_end"])
            declared = declared_metrics("per_layer" if trace else "end_to_end")
            if computed != set(declared):
                problems.append(f"{workload} trace {int(trace)}: computed "
                                f"metrics {sorted(computed ^ set(declared))} "
                                f"are not the declared ones")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {int(trace)}: "
                                f"{out['detail']['errors']}")
            digests[trace] = out["detail"]["digest"]
        if digests[False] != digests[True] or digests[False] is None:
            problems.append(f"{workload}: traced digest {digests[True]} != "
                            f"untraced {digests[False]}")
        print(f"selftest {workload}: digest {digests[False]}")
    out = measure("suite_fullscale", 5, 0.0, False, t0=time.perf_counter(),
                  inject_faults=1, **tiny["suite_fullscale"])
    result = out["result"]
    if result["correct"] or result["failed"] != 1:
        problems.append(f"injected conservation mismatch not counted as one "
                        f"failed run: {result}")
    print(f"selftest injected fault: attempted {result['attempted']}, failed "
          f"{result['failed']}: {out['detail']['errors']}")
    for problem in problems:
        print(f"selftest FAILED: {problem}")
    print("selftest ok" if not problems else "selftest failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the simulator sources are missing under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.selftest:
        return selftest()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.print_usage(sys.stderr)
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
