"""Cache-cold CLI benchmark of the villadsen engine.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Workloads (see `workloads.py`): `v2-stage-sweep`, `cfp-witness` and
`chern-expansion`.  The seed fixes the generated invocations.

One client runs the invocations of the seeded grid one after another (a
closed loop), in whole passes over the grid, until `--seconds` have passed
and at least 100 invocations have run, so that 10 or more samples lie
beyond the 90th percentile.  No new pass starts after 120 s, so that a
run ends within three minutes even if the engine gets much slower.  Each
invocation is `villadsen.cli.main(argv)` in a fresh fork of an engine host
that has only imported the engine (`engine_host.py`); only one engine
process computes at a time.  Every report is checked against the
independent oracle (`oracle.py`) outside the timed region.

The environment of each invocation is pinned: ENGINE_GENERATOR_BUDGET=100000
and PYTHONHASHSEED=0.  The last line of stdout is the result; the line
before it records the Python version, git SHA, nproc and seed, which are
also written with the full result under `.bench_out/`.

--trace 0 reports the end-to-end metrics:
  setup_s            median time from a fresh interpreter to `villadsen.cli`
                     imported and the report schema loaded, over 5 starts
  verify_p50_s       median time of one invocation, argv to flushed report
  verify_p90_s       90th percentile of the same
  invocations_per_s  verified invocations per second of engine time
  peak_rss_mb        largest peak RSS of any invocation's process
  verified_ratio     verified invocations / attempted; the failures
                     themselves are the `failed` count of the result line
--trace 1 runs every invocation untraced and traced, and reports the
per-layer metrics of `tracer.METRICS` per grid pass, the longest decimal
integer in any report, and the traced / untraced time ratio.

All times are scaled to a reference machine speed (see PROBE_REF_S); the
line before the result also gives the unscaled end-to-end values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SCHEMA = ROOT / "src" / "villadsen" / "schemas" / "report.schema.json"
ENGINE_ENV = {"ENGINE_GENERATOR_BUDGET": "100000", "PYTHONHASHSEED": "0"}
SETUP_SAMPLES = 5
MIN_SAMPLES = 100
LAST_PASS_START_S = 120
# A fork of the host times the fixed reference work of `engine_host._probe`
# at least every PROBE_INTERVAL_S.  Reported times are scaled by
# PROBE_REF_S / (mean probe time of the run): seconds on a machine where the
# probe takes PROBE_REF_S.  That removes most of the drift in machine speed
# between runs, which on a shared host is larger than any bound worth having.
PROBE_INTERVAL_S = 0.25
PROBE_REF_S = 0.02


class EngineHost:
    """A started `engine_host.py`; its start-up time is one set-up sample."""

    def __init__(self):
        env = dict(os.environ, **ENGINE_ENV)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "engine_host.py"), str(ROOT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.close()
            raise RuntimeError("the engine host did not start")

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the engine host exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _validator():
    import jsonschema
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def measure(invocations: list, seconds: float, trace: bool, workdir: Path,
            min_samples: int = MIN_SAMPLES, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run whole passes over `invocations` and collect every measurement."""
    validator = _validator()
    setups, host = [], None
    for _ in range(setup_samples):
        if host is not None:
            host.close()
        host = EngineHost()
        setups.append(host.setup_s)

    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    untraced, traced = [], []          # (elapsed_s, maxrss_kb)
    calls, self_s, counts = defaultdict(int), defaultdict(float), defaultdict(int)
    spans, failures, probes = [], [], []
    attempted = failed = passes = max_digits = 0
    started = last_probe = time.perf_counter()
    try:
        probes.append(host.run({"probe": True})["probe_s"])
        while True:
            for inv in invocations:
                if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
                    probes.append(host.run({"probe": True})["probe_s"])
                    last_probe = time.perf_counter()
                # traced and untraced runs take turns going first
                modes = ((False, True) if passes % 2 == 0 else (True, False)) if trace else (False,)
                for traced_run in modes:
                    result = host.run({"argv": inv.argv, "stdout": str(out_path),
                                       "stderr": str(err_path), "trace": traced_run})
                    attempted += 1
                    if result.get("code") is None:
                        text, problems = "", [result.get("error", "no result")]
                    else:
                        (traced if traced_run else untraced).append(
                            (result["elapsed_s"], result["maxrss_kb"]))
                        text = out_path.read_text(encoding="utf-8")
                        problems = oracle.compare_report(inv.expect(), result["code"],
                                                         text, validator)
                    if problems:
                        failed += 1
                        failures.append({"invocation": inv.index, "argv": inv.argv,
                                         "traced": traced_run, "problems": problems[:5],
                                         "stderr": err_path.read_text()[-500:]})
                    summary = result.get("trace")
                    if not summary:
                        continue
                    for key, value in summary["calls"].items():
                        calls[key] += value
                    for key, value in summary["self_s"].items():
                        self_s[key] += value
                    for key, value in summary["counts"].items():
                        counts[key] += value
                    if passes == 0:
                        spans.append({"invocation": inv.index, "dropped": summary["dropped"],
                                      "spans": summary["spans"]})
                    max_digits = max(max_digits, max(map(len, re.findall(r"\d+", text)),
                                                     default=0))
            passes += 1
            elapsed = time.perf_counter() - started
            enough = trace or len(untraced) >= min_samples
            if (elapsed >= seconds and enough) or elapsed >= max(seconds, LAST_PASS_START_S):
                break
        probes.append(host.run({"probe": True})["probe_s"])
    finally:
        host.close()
    return {"setups": setups, "untraced": untraced, "traced": traced, "passes": passes,
            "attempted": attempted, "failed": failed, "failures": failures,
            "calls": calls, "self_s": self_s, "counts": counts, "spans": spans,
            "max_int_digits": max_digits, "probes": probes,
            "scale": PROBE_REF_S / statistics.mean(probes),
            "measured_s": time.perf_counter() - started}


def end_to_end_metrics(m: dict, scale: float | None = None) -> dict:
    """The end-to-end metrics; times are multiplied by `scale` (default:
    the run's probe scale, see PROBE_REF_S)."""
    scale = m["scale"] if scale is None else scale
    times = [t * scale for t, _ in m["untraced"]] or [0.0]
    verified = m["attempted"] - m["failed"]
    busy = sum(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    values = {
        "setup_s": (statistics.median(m["setups"]) * scale, "s"),
        "verify_p50_s": (statistics.median(times), "s"),
        "verify_p90_s": (p90, "s"),
        "invocations_per_s": (verified / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (max((kb for _, kb in m["untraced"]), default=0) / 1024, "MB"),
        "verified_ratio": (verified / m["attempted"], "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer_metrics(m: dict) -> dict:
    out = tracer.layer_metrics(m["calls"], m["self_s"], m["counts"], 1 / max(m["passes"], 1),
                               m["scale"])
    out["reports.max_int_digits"] = {"value": m["max_int_digits"], "unit": "digits"}
    base = sum(t for t, _ in m["untraced"])
    ratio = sum(t for t, _ in m["traced"]) / base if base else 0.0
    out["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return out


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(), "git_sha": _git_sha(),
            "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            **{key.lower(): value for key, value in ENGINE_ENV.items()}}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap invocations, one set-up, no sample minimum")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "villadsen" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no villadsen engine under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        invocations = workloads.generate(args.workload, args.seed, str(workdir), args.tiny)
        m = measure(invocations, args.seconds, bool(args.trace), workdir,
                    min_samples=0 if args.tiny else MIN_SAMPLES,
                    setup_samples=1 if args.tiny or args.trace else SETUP_SAMPLES)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer_metrics(m) if args.trace else end_to_end_metrics(m)
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
              "failed": m["failed"], "metrics": metrics}
    env = environment(args)
    record = {"env": env, "grid_size": len(invocations), "passes": m["passes"],
              "samples": len(m["untraced"]), "measured_s": m["measured_s"],
              "probe_mean_s": statistics.mean(m["probes"]), "time_scale": m["scale"],
              "failures": m["failures"][:20]}
    if not args.trace:
        record["unscaled"] = {name: metric["value"]
                              for name, metric in end_to_end_metrics(m, 1.0).items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "id", "parent"], "invocations": m["spans"]}))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
