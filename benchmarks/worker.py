"""Run one discrimopt command in a fresh interpreter, as a user of the CLI does.

    python3 benchmarks/worker.py '<job as JSON>'

The job names the command (``solve`` or ``verify``), the config, the
output directory or design file, and whether to count model
evaluations (``count``) or trace every layer (``trace``). Set-up is the
import of the CLI module and one ``load_config``; the run script takes its
start time just before it starts this process, so set-up covers
interpreter start as well. The command itself runs through
``discrimopt.cli.main``, timed apart from set-up. The worker prints one
JSON line with its measurements and, when tracing, writes its spans to
``job["spans"]``.
"""
import json
import sys
import time

job = json.loads(sys.argv[1])

import discrimopt.cli  # noqa: E402  (set-up is measured from here on)

load_start = time.perf_counter()
discrimopt.cli.load_config(job["config"])
setup_end = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402

from instruments import Instruments  # noqa: E402


def argv_for(job: dict) -> list:
    if job["op"] == "solve":
        return ["solve", "--config", job["config"], "--out", job["out"]]
    return ["verify", "--design", job["design"], "--config", job["config"]]


instruments = None
main = discrimopt.cli.main
if job.get("count") or job.get("trace"):
    instruments = Instruments(trace=bool(job.get("trace")))
    instruments.install()
    if instruments.trace:
        main = instruments.root(main)

captured = io.StringIO()
cpu_start = time.process_time()
start = time.perf_counter()
with contextlib.redirect_stdout(captured):
    code = main(argv_for(job))
wall = time.perf_counter() - start
cpu = time.process_time() - cpu_start

result = {
    "setup_end": setup_end,
    "load_s": setup_end - load_start,
    "code": code,
    "wall_s": wall,
    "cpu_s": cpu,
    "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "stdout": captured.getvalue(),
}
if instruments is not None:
    result["alt_evals"] = instruments.alt_evals
    if instruments.trace:
        result["per_layer"] = instruments.per_layer()
        with open(job["spans"], "w") as fh:
            json.dump([span for span in instruments.spans if span is not None], fh)
print(json.dumps(result))
