"""Shared plumbing of the benchmark: spans, statistics, processes, inputs.

Everything the workloads have in common lives here: the span recorder
of the traced run, percentile helpers, peak-memory readings from
``/proc``, how the program's command line is run, the fixed model the
program serves, the seeded URL inputs (always from
:mod:`repro.corpus.generator`), and the tally of attempted and failed
operations.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Repository root (the checkout the benchmark runs in).
ROOT = Path(__file__).resolve().parent.parent

#: Working space inside the checkout, relative to it so the daemon's
#: Unix socket path stays short; ``.gitignore`` names it.
BUILD_DIR = Path(".bench_build") / "perfbench"

#: The model every workload serves: NB over word features, trained on
#: the full-scale synthetic bundle.  It is the program's fixed model,
#: not a workload input, so it does not depend on ``--seed``.
MODEL_SCALE = "1.0"

#: Load generated from one process uses at most this many connections,
#: threads and bulk workers.
LOAD_PARALLELISM = max(1, min(2, os.cpu_count() or 1))

#: The serving daemon's worker count.
DAEMON_WORKERS = 2

#: How the program's command line is run.  The daemon and the bulk
#: passes run as their own processes, so the memory they report is
#: theirs alone; the self-check swaps in a launcher that slows one
#: layer down.
PROGRAM = [sys.executable, "-m", "repro.cli"]


# -- statistics -----------------------------------------------------------------


def quantile(values, q: float) -> float:
    """The ``q`` quantile by linear interpolation (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


median = statistics.median


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``name, start, end, parent, rid`` (times in seconds on
    the wall clock, so spans read back from the daemon line up with
    the benchmark's own).  Spans of one request share ``rid``.  A
    disabled tracer records nothing and costs one attribute test.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, rid: int | None = None,
            **attrs) -> int:
        """Record a finished span; returns its id."""
        sid = len(self.spans)
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "rid": rid, **attrs,
        })
        return sid

    @contextmanager
    def span(self, name: str):
        """Time the body as one root span (nothing when off)."""
        if not self.enabled:
            yield
            return
        sid = self.add(name, time.time(), 0.0)
        try:
            yield
        finally:
            self.spans[sid]["end"] = time.time()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, list[float]]:
        """Each span's duration minus the part its children cover,
        grouped by span name."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        result: dict[str, list[float]] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for child in sorted(children.get(span["id"], ()),
                                key=lambda c: c["start"]):
                start = max(child["start"], cursor)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            result.setdefault(span["name"], []).append(
                span["end"] - span["start"] - covered
            )
        return result

    def write(self, path: Path) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            for span in self.spans:
                stream.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- operation accounting -------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, per phase."""

    phases: dict[str, list[int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def count(self, phase: str, attempted: int = 1, failed: int = 0) -> None:
        entry = self.phases.setdefault(phase, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def check(self, phase: str, ok: bool, problem: str) -> bool:
        """One output check: counted as an operation, failed when wrong."""
        self.count(phase, 1, 0 if ok else 1)
        if not ok:
            self.problems.append(f"{phase}: {problem}")
        return ok

    @property
    def attempted(self) -> int:
        return sum(entry[0] for entry in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(entry[1] for entry in self.phases.values())


# -- processes and memory -------------------------------------------------------


def _status_kb(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as stream:
            for line in stream:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one live process, in KiB."""
    return _status_kb(pid, "VmHWM")


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (all its threads)."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as stream:
                found.extend(int(child) for child in stream.read().split())
        except OSError:
            continue
    return found


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``."""
    found, frontier = [], [pid]
    while frontier:
        children = child_pids(frontier.pop())
        found.extend(children)
        frontier.extend(children)
    return found


class PeakWatch:
    """Peak resident memory of a process tree, sampled while it runs.

    Each member's VmHWM is its peak so far, so a sample taken any time
    before the member ends holds its peak up to then; the total sums
    the peaks of every member ever seen.
    """

    def __init__(self) -> None:
        self.peaks: dict[int, int] = {}

    def sample(self, root: int) -> None:
        for pid in (root, *descendants(root)):
            kb = peak_rss_kb(pid)
            if kb > self.peaks.get(pid, 0):
                self.peaks[pid] = kb

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


def is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stream:
            return stream.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def wait_gone(pids, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(is_running(pid) for pid in pids):
            return True
        time.sleep(0.02)
    return not any(is_running(pid) for pid in pids)


# -- the program's model and the workload inputs --------------------------------


def program_env() -> dict:
    """Environment for running the program's CLI from the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def build_model(workdir: Path) -> Path:
    """Train the fixed model with ``repro train`` into an artifact.

    A separate process, so the benchmark's own heap (which the daemon
    would inherit through ``fork``) holds no training data.
    """
    path = workdir / "model.urlmodel"
    subprocess.run(
        [*PROGRAM, "train", "--out", str(path),
         "--scale", MODEL_SCALE, "--seed", "0"],
        check=True, env=program_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, timeout=120,
    )
    return path


def generate_urls(seed: int, count: int, offset: int = 0) -> list[str]:
    """``count`` URLs of the web-crawl profile from the generator.

    Exactly the generator ``repro generate`` uses; ``offset`` selects an
    independent stream of the same seed.
    """
    from repro.corpus.generator import UrlCorpusGenerator
    from repro.languages import LANGUAGES

    per_language = -(-count // len(LANGUAGES))
    corpus = UrlCorpusGenerator(seed=seed).generate_corpus(
        "wc", {language: per_language for language in LANGUAGES},
        seed_offset=offset,
    )
    return [record.url for record in corpus][:count]


def unique_urls(seed: int, count: int, offset: int = 0) -> list[str]:
    """``count`` pairwise-distinct generator URLs.

    Generator URLs repeat (popular domains are Zipf-reused), so each
    repeat gets a ``#<n>`` fragment, which the generator never emits.
    The tokenizer drops digits and punctuation, so the suffix leaves
    the URL's features unchanged and only defeats the per-URL memos.
    """
    seen: dict[str, int] = {}
    out = []
    for url in generate_urls(seed, count, offset=offset):
        n = seen.get(url, 0)
        seen[url] = n + 1
        out.append(url if n == 0 else f"{url}#{n}")
    return out


def endless_unique(base: list[str]):
    """Pairwise-distinct URLs without end: ``base`` (distinct URLs),
    then ``base`` again with a ``#p<pass>`` fragment per pass."""
    yield from base
    rounds = 1
    while True:
        for url in base:
            yield f"{url}#p{rounds}"
        rounds += 1


def settle() -> None:
    """Move the benchmark's own long-lived objects (inputs, expected
    answers) out of the garbage collector's reach, so collections
    during a measurement scan no more than the program's objects."""
    gc.collect()
    gc.freeze()


def rng_for(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{stream}")
