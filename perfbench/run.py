"""teammine benchmark: seeded synthetic corpora, timed ``teammine all``, gated outputs.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 22 --trace 0

Set-up generates the workload's corpus from the seed (and, on ``restage``,
primes an out dir with one cold ``all``); SETUP_REPEATS independent set-ups
run side by side and ``setup_s`` is the median of their wall times. The
measured command is ``teammine all`` in a fresh child process, repeated in a
closed loop (one command at a time) until ``--seconds`` have passed and each
configuration ran at least twice. Every command goes through the correctness
gate in ``gate.py``; failed commands are left out of the medians.

With ``--trace 0`` the result line holds the end-to-end metrics. With
``--trace 1`` the loop alternates untraced commands with commands run under
``tracer.py``, and the result line holds the per-layer metrics, medians over
the traced commands. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch files live under ``.perfbench_work/`` in
the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from gate import rate_failures, result_digest
from tracer import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 2
END_TO_END = {"setup_s": "s", "run_s": "s", "pubs_per_s": "1/s", "peak_rss_mb": "MB"}
_STAGE_LINE = re.compile(r"^(\w+): (ran|cached)\b", re.MULTILINE)


class BenchError(Exception):
    """Set-up failed, or no measured command passed the gate."""


@dataclass
class Setup:
    """One generated corpus, ready for measured commands."""
    wall_s: float
    corpus: Path
    primed: Path | None     # out dir primed by set-up (restage), else None
    truth: dict
    spans: list[dict]       # generator spans when traced


@dataclass
class Rep:
    """One measured command and its gate verdict."""
    traced: bool
    wall_s: float
    rss_mb: float
    failure: str = ""
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    """Runs one workload at one seed inside its own scratch directory."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        self.digests: dict[str, str] = {}    # configuration -> result digest
        self.reps: list[Rep] = []
        self.live: set[subprocess.Popen] = set()

    def child(self, argv: list, log: Path) -> tuple[float, float, int]:
        """Run argv to completion; returns wall seconds, peak RSS in MB of
        that child alone (from its own rusage) and the exit code."""
        with open(log, "w", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=fh,
                                    stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            self.live.add(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.discard(proc)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def stop_children(self):
        for proc in list(self.live):
            proc.kill()
            proc.wait()
        self.live.clear()

    @staticmethod
    def teammine_args(setup: Setup, out: Path, margin: int) -> list:
        return ["all", "--pubs", setup.corpus / "publications.jsonl",
                "--citations", setup.corpus / "citations.csv", "--out", out,
                "--set", f"year_min={setup.truth['year_min']}",
                "--set", f"year_max={setup.truth['year_max']}",
                "--set", f"margin_years={margin}"]

    def setup(self, index: int, traced: bool = False) -> Setup:
        """Generate the corpus, and prime an out dir on restage."""
        corpus = self.work / f"corpus{index}"
        spans = self.work / f"setup{index}.spans.json"
        argv = [sys.executable, HERE / "workloads.py", "--workload", self.workload.name,
                "--seed", self.seed, "--dir", corpus]
        if traced:
            argv += ["--spans", spans]
        start = time.perf_counter()
        log = self.work / f"setup{index}.log"
        if self.child(argv, log)[2] != 0:
            raise BenchError("corpus generation failed:\n" + log.read_text()[-2000:])
        with open(corpus / "truth.json", encoding="utf-8") as fh:
            setup = Setup(0.0, corpus, None, json.load(fh), [])
        if self.workload.prime_margin is not None:
            setup.primed = corpus / "out"
            argv = [sys.executable, "-m", "teammine.cli",
                    *self.teammine_args(setup, setup.primed, self.workload.prime_margin)]
            log = self.work / f"prime{index}.log"
            if self.child(argv, log)[2] != 0:
                raise BenchError("priming all failed:\n" + log.read_text()[-2000:])
        setup.wall_s = time.perf_counter() - start
        if traced:
            with open(spans, encoding="utf-8") as fh:
                setup.spans = json.load(fh)
        return setup

    def rep(self, setup: Setup, traced: bool):
        """One measured command, gated; traced ones also get layer metrics."""
        k = len(self.reps)
        margins = self.workload.margins
        margin = margins[k % len(margins)]
        out = setup.primed or self.work / f"out{k}"
        args = self.teammine_args(setup, out, margin)
        log = self.work / f"run{k}.log"
        spans = self.work / f"run{k}.spans.json"
        if traced:
            argv = [sys.executable, HERE / "tracer.py", "--spans", spans, "--", *args]
        else:
            argv = [sys.executable, "-m", "teammine.cli", *args]
        if k == 0:
            print("command: teammine " + " ".join(str(a) for a in args))
        os.sync()  # so writeback of earlier artifacts does not overlap the timing
        wall, rss, code = self.child(argv, log)
        rep = Rep(traced, wall, rss)
        if code != 0:
            rep.failure = f"exit {code}"
        else:
            verify_log = self.work / f"verify{k}.log"
            vcode = self.child([sys.executable, "-m", "teammine.cli", "verify", "--out", out,
                                "--truth", setup.corpus / "truth.json"], verify_log)[2]
            bad = (rate_failures(verify_log.read_text(encoding="utf-8")) if vcode == 0
                   else [f"verify exit {vcode}"])
            try:
                digest = result_digest(out)
            except FileNotFoundError as exc:
                bad.append(f"missing {Path(exc.filename).name}")
            else:
                if self.digests.setdefault(f"margin_years={margin}", digest) != digest:
                    bad.append("digest differs from an earlier repetition")
            rep.failure = "; ".join(bad)
        if traced and not rep.failure:
            with open(out / "manifest.json", encoding="utf-8") as fh:
                manifest = json.load(fh)
            with open(spans, encoding="utf-8") as fh:
                run_spans = json.load(fh)
            states = dict(_STAGE_LINE.findall(log.read_text(encoding="utf-8")))
            rep.layers = layer_metrics(setup.spans, run_spans, manifest, states)
        if setup.primed is None:
            shutil.rmtree(out, ignore_errors=True)
        self.reps.append(rep)
        status = "ok" if not rep.failure else f"FAILED ({rep.failure})"
        print(f"  command {k + 1} {'traced' if traced else 'untraced'}: "
              f"margin_years={margin} {wall:.3f} s {rss:.1f} MB {status}", flush=True)

    def measure(self, seconds: float, setup: Setup, trace: bool):
        """Closed loop: the next command starts when the previous one ends.

        With ``trace`` every other round of configurations runs traced, so
        both kinds see the same machine conditions."""
        rounds = 2 * (2 if trace else 1)
        minimum = rounds * len(self.workload.margins)
        start = time.perf_counter()
        while len(self.reps) < minimum or time.perf_counter() - start < seconds:
            round_no = len(self.reps) // len(self.workload.margins)
            self.rep(setup, traced=trace and round_no % 2 == 1)


def _median(values):
    return statistics.median(values) if values else None


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload at one seed; returns the result object."""
    work = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, work)
    try:
        if trace:
            setups = [bench.setup(0, traced=True)]
        else:
            with ThreadPoolExecutor(SETUP_REPEATS) as pool:
                try:
                    setups = list(pool.map(bench.setup, range(SETUP_REPEATS)))
                except BaseException:
                    bench.stop_children()  # before the pool waits for its threads
                    raise
        setup = setups[0]
        truth = setup.truth
        print(f"workload {workload.name} seed {seed}: {truth['n_publications']} publications, "
              f"{truth['n_authors']} authors, {len(truth['teams'])} planted teams; "
              f"set-up {', '.join(f'{s.wall_s:.3f}' for s in setups)} s", flush=True)
        print(f"why: {workload.why}")
        bench.measure(seconds, setup, trace)
    finally:
        bench.stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    good = [r for r in bench.reps if not r.failure and not r.traced]
    run_s = _median([r.wall_s for r in good])
    if run_s is None:
        raise BenchError("every untraced command failed")
    attempted = len(bench.reps)
    failed = sum(1 for r in bench.reps if r.failure)
    for config, digest in sorted(bench.digests.items()):
        print(f"digest {config}: {digest}")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} commands)")

    if not trace:
        metrics = {
            "setup_s": _median([s.wall_s for s in setups]),
            "run_s": run_s,
            "pubs_per_s": truth["n_publications"] / run_s,
            "peak_rss_mb": _median([r.rss_mb for r in good]),
        }
        units = END_TO_END
        notes = {"setup_s": f"median of {len(setups)} set-ups",
                 "run_s": f"median of {len(good)} commands",
                 "pubs_per_s": f"{truth['n_publications']} publications / run_s",
                 "peak_rss_mb": f"median of {len(good)} commands"}
    else:
        layered = [r for r in bench.reps if not r.failure and r.traced]
        if not layered:
            raise BenchError("every traced command failed")
        traced_s = _median([r.wall_s for r in layered])
        metrics = {name: _median([r.layers[name] for r in layered])
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = traced_s - run_s
        units = PER_LAYER
        notes = {name: f"{100 * metrics[name] / traced_s:5.1f}% of traced run_s"
                 for name, unit in PER_LAYER.items()
                 if unit == "s" and not name.startswith(("synthgen.", "trace."))}
        notes["trace.overhead_s"] = (f"traced {traced_s:.3f} s ({len(layered)}) - "
                                     f"untraced {run_s:.3f} s ({len(good)})")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6f} {unit:<6} {notes.get(name, '')}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "teammine" / "__init__.py").is_file():
        print(f"error: no teammine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import teammine
    from workloads import WORKLOADS
    if Path(teammine.__file__).resolve().parent != SRC / "teammine":
        print(f"error: imported teammine from {teammine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
