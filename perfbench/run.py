"""The repository benchmark: one command, seeded workloads.

    python3 perfbench/run.py --workload serve-batch --seed 1 --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` gives the reason for each):

* ``serve-batch`` -- closed loop: two clients send 1000-URL
  ``classify``/``score`` requests of never-repeating URLs over the Unix
  socket to a 2-worker daemon;
* ``bulk-index``  -- a 100k-URL gzipped corpus through ``repro bulk``
  with the TSV sink and the SQLite sink, then seeded reads of the index.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it records spans and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
Every answer of the program is checked against in-process
``repro.api.open_model`` on the same model artifact; a wrong answer
counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run still going after this many seconds stops without a result.
RUN_TIMEOUT_S = 170

#: (name, unit) of the end-to-end metrics, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("urls_per_s", "1/s"),
    ("rss_mb", "MB"),
)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: Path) -> None:
        from harness import Tally, Tracer

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.model: Path | None = None
        self.tracer = Tracer(trace)
        self.tally = Tally()
        self.setup_samples: list[float] = []
        self.end_to_end: dict[str, float] = {}
        self.layer_values: dict[str, list[float]] = {}
        self.lines: list[str] = []
        self.notes: list[str] = []
        self.daemons: list = []
        #: ``batch.request_p50_ms`` of a traced serve-batch run, which
        #: the self-time accounting is set against.
        self.request_p50_ms: float | None = None
        self.probe_batches: list[list[str]] = []
        self.retries_observed = 0
        self._oracle = None

    # -- the in-process oracle ------------------------------------------------------

    @property
    def oracle(self):
        """``open_model`` on the same artifact, in this process."""
        if self._oracle is None:
            from repro.api import open_model

            self._oracle = open_model(str(self.model))
        return self._oracle

    def expect_classify(self, phase: str, urls: list[str], rows) -> bool:
        """Daemon ``classify`` rows must equal in-process ``predict``."""
        got = [row.tsv() for row in rows]
        want = [prediction.tsv() for prediction in self.oracle.predict(urls)]
        return self.tally.check(f"{phase}-check", got == want,
                                "classify rows differ from in-process predict")

    def expect_scores(self, phase: str, urls: list[str], scores: dict) -> bool:
        """Daemon ``score`` values must be bit-identical."""
        want = {language.value: values
                for language, values in self.oracle.scores_many(urls).items()}
        return self.tally.check(f"{phase}-check", scores == want,
                                "scores differ from in-process scores_many")

    # -- reporting ------------------------------------------------------------------

    def report(self, name: str, value: float, unit: str) -> None:
        self.lines.append(f"{name:<34} {value:14.4f} {unit}")

    def daemon_counters(self, status: dict) -> None:
        """Retries the daemon observed (fork-shared, so any worker's
        status block covers all of them)."""
        retries = status["robustness"]["retries_observed"]
        self.retries_observed = max(self.retries_observed, retries)
        self.layer_values["client.retries"] = [float(self.retries_observed)]

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.stop()
        if self._oracle is not None:
            self._oracle.close()


def host_facts() -> str:
    import numpy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def execute(run: Run) -> dict:
    """Run the workload; returns the result object."""
    from bulkindex import bulk_index, bulk_workload
    from harness import BUILD_DIR, build_model, median
    from serving import BATCH_SCORE_EVERY, batch_sources, serve_batch

    import layers

    run.model = build_model(run.workdir)
    if run.workload == "serve-batch":
        serve_batch(run)
        if run.trace:
            source = batch_sources(run.seed, 1)[0]
            run.probe_batches = [[next(source) for _ in range(1000)]
                                 for _ in range(30)]
    else:
        bulk_workload(run)
    if run.trace:
        probe_ops = [
            "score" if i % BATCH_SCORE_EVERY == BATCH_SCORE_EVERY - 1
            else "classify" for i in range(len(run.probe_batches))
        ]
        layers.direct_calls(run, run.probe_batches, probe_ops)
        if run.workload == "serve-batch":
            # Bulk and query layers, on this workload's own URLs.
            urls = [url for batch in run.probe_batches for url in batch]
            bulk_index(run, urls[:20000], 4, 1, 1.0, primary=False)
        values = layers.collect(run)
        metrics = {}
        for name, unit, _ in layers.PER_LAYER:
            if name in values:
                metrics[name] = {"value": values[name], "unit": unit}
            else:
                run.notes.append(f"per-layer metric {name} not measured")
        run.lines.extend(layers.accounting(run))
        run.tracer.write(BUILD_DIR / "traces"
                         / f"{run.workload}-seed{run.seed}.jsonl")
    else:
        run.end_to_end["setup_s"] = median(run.setup_samples)
        metrics = {name: {"value": run.end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {
        "correct": run.tally.failed == 0 and not run.tally.problems,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-batch", "bulk-index"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the working paths are relative to the checkout
    from harness import BUILD_DIR

    workdir = BUILD_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)  # unwind through the cleanup below

    # Unwind on SIGTERM here; processes forked from here (bulk workers,
    # the daemon) keep the default action, which a pool's terminate()
    # relies on to end a worker whatever it is blocked in.
    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGALRM, on_term)
    signal.alarm(RUN_TIMEOUT_S)
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              workdir)
    try:
        result = execute(run)
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} {host_facts()}")
    for line in run.lines:
        print(line)
    print(f"{'phase':<24} {'attempted':>10} {'succeeded':>10} {'failed':>8}")
    for phase, (attempted, failed) in run.tally.phases.items():
        print(f"{phase:<24} {attempted:>10} {attempted - failed:>10} "
              f"{failed:>8}")
    print(f"daemon retries_observed: {run.retries_observed}")
    for note in run.notes:
        print(f"note: {note}")
    for problem in run.tally.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
