"""Engine host: imports the engine once, then forks one child per invocation.

Run as `python3 bench/engine_host.py <checkout root>`.  The host puts the
checkout's `src` first on the path, imports `villadsen.cli`, loads the
report schema, and writes `ready` on stdout; that is where the benchmark's
set-up time ends.  It then reads one JSON request per line on stdin:

    {"argv": [...], "stdout": path, "stderr": path, "trace": bool}

and answers each with one JSON line.  Every request runs in a fresh fork of
the host, so each invocation starts with the engine imported and no state
left by an earlier one, like a new `villadsen` process.  Only one child
exists at a time.  The child times `main(argv)` up to the flushed report;
the host adds the child's peak resident set size from `wait4`.

A request {"probe": true} instead times a fixed piece of reference work in
a fork, which tells how fast the machine runs at that moment.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback


PROBE_SIZE = 15_000


def _probe() -> dict:
    """Fixed reference work much like the engine's own: build a dict with
    tuple keys and list values, then sum over it.  Never changes."""
    gc.collect()
    started = time.perf_counter()
    table = {}
    for i in range(PROBE_SIZE):
        table[(i, i * 7, str(i))] = [i, (i, i + 1)]
    sum(value[0] for value in table.values())
    return {"probe_s": time.perf_counter() - started}


def _child(cli, request: dict) -> dict:
    if request.get("probe"):
        return _probe()
    sys.stdout = open(request["stdout"], "w", encoding="utf-8")
    sys.stderr = open(request["stderr"], "w", encoding="utf-8")
    tracer = None
    if request["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    # A fresh process owns its imported objects; a fork shares them copy-on-
    # write.  A collection touches them all, so their page copies are made
    # here and not inside the timed call.
    gc.collect()
    started = time.perf_counter()
    try:
        code = cli.main(request["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    elapsed = time.perf_counter() - started
    sys.stderr.flush()
    return {"code": code, "elapsed_s": elapsed,
            "trace": tracer.summary() if tracer is not None else None}


def _run(cli, request: dict) -> dict:
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            data = json.dumps(_child(cli, request)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        except BaseException:
            status = 70
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        return {"code": None, "error": f"invocation child ended with status {status}"}
    result = json.loads(data)
    result["maxrss_kb"] = usage.ru_maxrss
    return result


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import villadsen.cli as cli
    from villadsen import reports

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"villadsen was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    reports.load_schema()
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(_run(cli, json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
