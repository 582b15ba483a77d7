"""Benchmark of the supercongruences library, run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it repeats untraced passes of the workload for about S
seconds (at least one) and prints the end-to-end metrics; with
``--trace 1`` it runs one untraced pass, then traces the input generation
and one pass, then times two fixed probes, and prints the per-layer
metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and the run
context are written under ``bench/out/``.

Workloads and metrics are listed in BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import the package, make the inputs, print 'ready' and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being ready,
    once per run of SETUP_RUNS."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
            if not select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
                proc.kill()
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        times.append(elapsed)
    return times


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py"))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(w, inputs: dict, golden: dict, seconds: float) -> list:
    """Passes until the run ends as near ``seconds`` as whole passes allow:
    another starts while it would end less than half a pass late; at
    least one."""
    passes = []
    t_begin = perf_counter()
    while True:
        passes.append(w.run_pass(inputs, golden))
        if perf_counter() - t_begin + passes[-1].wall_s / 2 > seconds:
            return passes


def end_to_end(w, inputs: dict, golden: dict, seconds: float) -> tuple[dict, list, dict]:
    """Untraced passes: (metrics, passes, context)."""
    import workloads as wl

    passes = run_untraced(w, inputs, golden, seconds)
    # children at this point are pool workers only: the setup probes come after;
    # each worker is charged the largest worker's peak
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = measure_setup(w.name, inputs["seed"])
    latencies = [x for p in passes for x in p.latencies_ms]
    q = wl.tail_percentile(len(latencies))
    passed = sum(math.isfinite(x) for x in latencies)
    metrics = {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "check_ms_p50": metric(wl.percentile(latencies, 50), "ms"),
        "check_ms_p90": metric(wl.percentile(latencies, q), "ms"),
        "peak_rss_mb": metric((self_kib + w.pool_workers * child_kib) / 1024.0, "MiB"),
        "pass_frac": metric(passed / len(latencies), "ratio"),
    }
    context = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s_runs": setup,
        "checks_per_pass": passes[0].attempted,
        "p90_percentile": q,
        "p90_samples": len(latencies),
    }
    summary = (f"# passes={len(passes)}  checks/pass={passes[0].attempted}  "
               f"check_ms_p90 is p{q} of {len(latencies)} samples")
    return metrics, passes, context | {"summary": summary}


def per_layer(w, inputs: dict, golden: dict, spans_path: Path) -> tuple[dict, list, dict]:
    """One untraced pass, then input generation and one pass traced, then
    the probes: (metrics, [untraced, traced], context). The traced pass
    is the one counted in ``attempted`` and ``failed``."""
    import workloads as wl
    from tracing import Tracer, layer_metrics, layer_self_times

    untraced = w.run_pass(inputs, golden)
    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        # the trace covers what setup_s and wall_s cover: making the inputs
        # (check id 0), then one pass
        inputs = wl.make_inputs(w.name, inputs["seed"])
        traced = w.run_pass(inputs, golden, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path, t0)
    probe_times, probe_outputs = wl.run_probes()
    layer, bases = layer_metrics(tracer, traced.state_bytes)
    layer.update({name: (ms, "ms") for name, ms in probe_times.items()})
    layer["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
    self_s = layer_self_times(tracer)
    summary = (f"# untraced wall {untraced.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
               f"{len(tracer.spans)} spans; self time by layer: "
               + ", ".join(f"{k} {v:.3f} s" for k, v in self_s.items()))
    context = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": len(tracer.spans),
        "layer_self_s": self_s,
        "probes_match_golden": probe_outputs == golden.get("probes"),
        "bases": bases,
        "summary": summary,
    }
    return metrics, [untraced, traced], context


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "supercongruences").is_dir():
        print(f"error: no package source at {SRC / 'supercongruences'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import supercongruences.cli  # noqa: F401  (setup_s covers the CLI import too)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    inputs = wl.make_inputs(w.name, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    golden = wl.load_golden()
    wl.OUT_DIR.mkdir(exist_ok=True)
    tag = f"{w.name}-{args.seed}-trace{args.trace}"
    if args.trace == 0:
        metrics, checked, context = end_to_end(w, inputs, golden, args.seconds)
        counted = checked
    else:
        metrics, checked, context = per_layer(w, inputs, golden, wl.OUT_DIR / f"spans-{tag}.jsonl")
        counted = checked[-1:]

    latencies = [x for p in counted for x in p.latencies_ms]
    attempted = len(latencies)
    failed = sum(math.isinf(x) for x in latencies)
    failures = [f.__dict__ for p in counted for f in p.failures]
    golden_states = {p.golden_ok for p in checked}
    correct = (False not in golden_states and context.get("probes_match_golden", True)
               and not any(f.wrong for p in checked for f in p.failures))
    bases = context.pop("bases", {})
    context = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines(),
        **context,
        "correct": correct,
        "digest": counted[0].digest,
        "golden": "MISMATCH" if False in golden_states
        else ("none for this seed" if None in golden_states else "match"),
        "fail_frac": f"{failed}/{attempted}",
        "failures": failures,
        "metrics": metrics,
        "bases": bases,
    }
    (wl.OUT_DIR / f"context-{tag}.json").write_text(json.dumps(context, indent=2), encoding="utf-8")

    print(f"# {w.name}  seed={args.seed}  trace={args.trace}  nproc={context['nproc']}  "
          f"python={context['python']}  src_lines={context['src_lines']}")
    print(context["summary"])
    for name, m in metrics.items():
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}{base}")
    print(f"fail_frac {context['fail_frac']}  digest {context['digest']}  golden: {context['golden']}")
    for f in failures:
        print(f"failed check {f['check']}: {f['label']}: {f['error']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
