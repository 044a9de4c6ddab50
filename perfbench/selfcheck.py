"""Sensitivity self-check: does the benchmark see a slower layer?

    python3 perfbench/selfcheck.py

Wraps :func:`repro.query.ingest.ingest_shard` (the SQLite sink's
per-shard ingest) with a fixed busy delay -- in the program processes
the benchmark launches, through a launcher of its own; nothing under
``src/`` changes -- and runs ``bulk-index`` and ``serve-batch`` with and
without it, alternating, on the same seeds.

Passes when the delay moves ``urls_per_s`` of ``bulk-index`` (the SQLite
pass) past its bound in ``BENCHMARK.json``, and leaves every end-to-end
metric of ``serve-batch``, which never ingests, within its bound.
The TSV pass of ``bulk-index`` bypasses ingest too; its rate is printed
as the control.  Exits 0 on pass, 1 on fail.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds added to every ``ingest_shard`` call.  The engine calls it
#: once per committed shard and once more per shard when it reconciles
#: the index at the end, so a 10-shard pass gains 20 delays.
INGEST_DELAY_S = 0.2
#: Seeds each workload runs on, with and without the delay.
SEEDS = 3
#: ``--seconds`` of every run.
SECONDS = "15"


def child(argv: list[str]) -> int:
    """Run the benchmark in this process, launching the program through
    ``program`` below."""
    sys.path.insert(0, str(HERE))
    import harness

    harness.PROGRAM[:] = [sys.executable, str(HERE / "selfcheck.py"),
                          "--program"]
    import run

    return run.main(argv)


def program(argv: list[str]) -> int:
    """The program's command line with the delay in place."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.query.ingest as ingest

    original = ingest.ingest_shard

    def delayed(*args, **kwargs):
        # Busy, as slower ingest code would be: a sleep idles the
        # virtual CPUs, and on a shared host the passes after an idle
        # spell run measurably slower, TSV ones included.
        until = time.perf_counter() + INGEST_DELAY_S
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    ingest.ingest_shard = delayed
    from repro.cli import main

    return main(argv)


def measure(workload: str, seed: int, seconds: str, delayed: bool) -> tuple:
    command = [sys.executable, str(HERE / "selfcheck.py" if delayed
                                   else HERE / "run.py")]
    if delayed:
        command.append("--child")
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs were wrong")
    tsv = [float(line.split()[1]) for line in lines
           if line.startswith("bulk.tsv_urls_per_s")]
    return result["metrics"], tsv


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return child(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "--program":
        return program(sys.argv[2:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload, moved in (("bulk-index", "urls_per_s"),
                            ("serve-batch", None)):
        runs: dict[bool, list] = {False: [], True: []}
        controls: dict[bool, list] = {False: [], True: []}
        for seed in range(1, SEEDS + 1):
            for delayed in (False, True):
                values, tsv = measure(workload, seed, SECONDS, delayed)
                runs[delayed].append(values)
                controls[delayed].extend(tsv)
        print(f"{workload}: ingest_shard delayed by {INGEST_DELAY_S}s a call")
        for name, metric in metrics.items():
            if moved is not None and name != moved:
                continue
            base = statistics.median(r[name]["value"] for r in runs[False])
            slow = statistics.median(r[name]["value"] for r in runs[True])
            change = slow / base - 1.0
            worse = -change if metric["better"] == "higher" else change
            if name == moved:
                verdict = worse > metric["bound"]
                expect = "moves past"
            else:
                verdict = worse <= metric["bound"]
                expect = "stays within"
            ok = ok and verdict
            print(f"  {name:16} {base:12.4f} -> {slow:12.4f} "
                  f"({change:+.1%}; {expect} bound {metric['bound']}): "
                  f"{'ok' if verdict else 'FAIL'}")
        if controls[False] and controls[True]:
            base = statistics.median(controls[False])
            slow = statistics.median(controls[True])
            print(f"  control bulk.tsv_urls_per_s {base:.1f} -> {slow:.1f} "
                  f"({slow / base - 1.0:+.1%}; TSV pass bypasses ingest)")
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
