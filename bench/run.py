"""domstab benchmark: ``report-all`` end to end, and per layer when traced.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 bench/run.py --workload cohort --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

``--trace 0`` times ``python -m domstab report-all`` child processes, one
per CPU on up to two CPUs, and prints the end-to-end metrics.  The times are
scaled to a reference host speed: a fixed host-speed probe (``probe.py``)
runs before each timed child on the same CPU, and times are multiplied by
``probe_reference_s`` (``design.json``) over the mean probe time, which
takes the shared host's drifting speed out of them.  ``--trace 1`` runs
``report_all`` in process with spans around the calls into each layer
(``traced_run.py``) and prints the per-layer metrics.  Either way the
outputs of the workload's reference input are checked against the stored
golden (``golden/<workload>.json``), in an extra untimed run when the seeded
input differs from it, and every run on the seeded input must be
byte-identical to the first.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads, tolerance and the design record are
in ``design.json``; metric names and units in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import outputs
import spans
from workloads import BENCH_DIR, Workload, load_design, workloads

MIN_RUNS = 3          # timed report-all runs per workload, even past --seconds
SETUP_IMPORTS_PER_RUN = 1   # fresh-interpreter imports of domstab.cli per timed run
WALL_CAP_S = 150.0    # start no further run once a workload has taken this long
# Timed children run on this many CPUs at once, one child per CPU: the
# host's short-range speed drift is independent on each CPU, so two CPUs
# give twice the samples of it in one window.
PARALLEL = 2


class HarnessError(Exception):
    """The benchmark cannot run here (no program, no golden): no result."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    host: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str, run: bool = True) -> None:
        self.failed += run
        self.problems.append(problem)


@dataclass
class Job:
    """One running child: what it is, where its outputs go, when it started."""
    proc: subprocess.Popen
    kind: str                  # "setup", "probe", "report" or "reference"
    tag: str
    start: float
    out_dir: Path | None = None
    slot: int = 0


class Bench:
    def __init__(self, root: Path, workload: Workload, design: dict, seed: int):
        if not (root / "src" / "domstab" / "__init__.py").is_file():
            raise HarnessError(f"no domstab sources under {root / 'src'}")
        self.root = root
        self.w = workload
        self.seed = seed
        self.rtol = float(design["float_rtol"])
        self.probe_ref_s = float(design["probe_reference_s"])
        self.golden_path = BENCH_DIR / "golden" / f"{workload.name}.json"
        self.work = BENCH_DIR / "_work" / workload.name
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.begin = time.perf_counter()
        self.out = Outcome()
        if workload.fixture is not None:
            self.ref_input = self.input = workload.fixture
            if not (root / self.input).is_file():
                raise HarnessError(f"no input fixture at {self.input}")
        else:
            # Fixed paths: run_config.json records the input path string.
            self.ref_input = (self.work / "input.csv").relative_to(root).as_posix()
            self.input = self.ref_input if seed == workload.reference_seed else (
                self.work / "seeded.csv").relative_to(root).as_posix()

    # ------------------------------------------------------------ children

    def _spawn(self, cmd: list[str], kind: str, tag: str, cpu: int | None = None,
               out_dir: Path | None = None, slot: int = 0) -> Job:
        with open(self.work / f"{tag}.stdout", "wb") as out, \
                open(self.work / f"{tag}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
        if cpu is not None:
            try:
                os.sched_setaffinity(proc.pid, {cpu})
            except ProcessLookupError:   # it has already exited
                pass
        return Job(proc, kind, tag, start, out_dir, slot)

    def _reaped(self, job: Job, status: int, usage) -> tuple[int, float, int, str]:
        """A child ``os.wait4`` returned: exit code, wall s, peak RSS KiB, stderr."""
        wall = time.perf_counter() - job.start
        job.proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (self.work / f"{job.tag}.stderr").read_text(errors="replace")
        return job.proc.returncode, wall, usage.ru_maxrss, stderr

    def _child(self, cmd: list[str], tag: str) -> tuple[int, float, int, str]:
        """Run one child to completion: exit code, wall s, peak RSS KiB, stderr."""
        job = self._spawn(cmd, "child", tag)
        try:
            _, status, usage = os.wait4(job.proc.pid, 0)   # this child's own rusage
        except BaseException:
            job.proc.kill()
            job.proc.wait()
            raise
        return self._reaped(job, status, usage)

    def _report_cmd(self, input_path: str, out_dir: Path) -> list[str]:
        """Command line of one report-all child; ``out_dir`` is emptied first."""
        shutil.rmtree(out_dir, ignore_errors=True)
        return [sys.executable, "-m", "domstab", "report-all", "--input", input_path,
                "--out", out_dir.relative_to(self.root).as_posix(), *self.w.args]

    def _report_problems(self, tag: str, code: int, stderr: str) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"{tag}: exit code {code}: {stderr.strip()[-400:]}")
        if outputs.TRACEBACK in stderr:
            problems.append(f"{tag}: traceback on stderr")
        return problems

    def _report_all(self, out_dir: Path, tag: str) -> list[str]:
        """One ``domstab report-all`` child on the reference input: problems."""
        code, _, _, stderr = self._child(self._report_cmd(self.ref_input, out_dir), tag)
        return self._report_problems(tag, code, stderr)

    def _write_inputs(self, reference: bool) -> None:
        """Generate the seeded input, and the reference input when it is used."""
        if self.w.fixture is None:
            if reference:
                (self.root / self.ref_input).write_text(
                    self.w.input_text(self.w.reference_seed), encoding="utf-8")
            if self.input != self.ref_input:
                (self.root / self.input).write_text(self.w.input_text(self.seed), encoding="utf-8")

    def _check_roster(self, roster: int) -> None:
        if not self.w.roster_ok(roster):
            self.out.fail(f"roster guard: {roster} species kept of {self.w.species} "
                          "generated (below 90%)", run=False)

    # ------------------------------------------------------------ phases

    def _same_input_as_reference(self) -> bool:
        return self.input == self.ref_input

    def _golden_problems(self, out_dir: Path) -> list[str]:
        """Check outputs of the reference input against the golden."""
        problems, identical = outputs.check_golden(out_dir, self.golden, self.rtol)
        self._check_roster(outputs.roster_species(out_dir))
        self.out.metrics["report.files_identical"] = identical
        return problems

    def _reference_done(self, problems: list[str], out_dir: Path) -> dict[str, str]:
        self.out.attempted += 1
        problems += self._golden_problems(out_dir)
        if problems:
            self.out.fail("; ".join(problems))
        ref = outputs.digests(out_dir)
        shutil.rmtree(out_dir)
        return ref

    def reference(self) -> dict[str, str]:
        """Untimed run on the reference input, checked against the golden."""
        out_dir = self.work / "reference"
        return self._reference_done(self._report_all(out_dir, "reference"), out_dir)

    def _setup_import(self) -> float:
        code, wall, _, stderr = self._child([sys.executable, "-c", "import domstab.cli"], "setup")
        return self._setup_checked(code, wall, stderr)

    @staticmethod
    def _setup_checked(code: int, wall: float, stderr: str) -> float:
        if code != 0:
            raise HarnessError(f"cannot import domstab.cli: {stderr.strip()[-400:]}")
        return wall

    def _check_timed(self, tag: str, out_dir: Path, problems: list[str],
                     state: dict) -> None:
        """The first timed run's outputs are checked; every later run must
        match them byte for byte."""
        got = outputs.digests(out_dir)
        expected = state.get("expected")
        if expected is None:
            state["expected"] = got
            if self._same_input_as_reference():
                problems += self._golden_problems(out_dir)
            else:
                if set(got) != set(self.golden["files"]):
                    problems.append(f"{tag}: file set differs from golden")
                self._check_roster(outputs.roster_species(out_dir))
            state["first_failed"] = bool(problems)
        elif got == expected:
            if state["first_failed"]:
                problems.append(f"{tag}: same outputs as the first run, which failed the output check")
        else:
            changed = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
            problems.append(f"{tag}: outputs not byte-identical to the first run "
                            f"(non-deterministic): {changed[:5]}")
        if problems:
            self.out.fail("; ".join(problems))

    def timed(self, seconds: float, reference: bool) -> None:
        """Timed report-all runs for ``seconds``, each after a set-up import
        and a host-speed probe on the same CPU, one child per CPU slot; an
        untimed reference run, when there is one, takes the first turn of
        slot 0.  Times are scaled by ``probe_reference_s`` over the median
        probe time, which takes the host's drifting speed out of them."""
        self._setup_import()   # warm-up: bytecode and page caches
        cpus = sorted(os.sched_getaffinity(0))[:PARALLEL]
        turns = ["setup"] * SETUP_IMPORTS_PER_RUN + ["probe", "report"]
        queues = [(["reference"] if reference and slot == 0 else []) for slot in range(len(cpus))]
        walls: list[float] = []
        rss: list[float] = []
        setups: list[float] = []
        probes: list[float] = []
        running: dict[int, Job] = {}
        done = [False] * len(cpus)
        state: dict = {}
        started = 0
        start = time.perf_counter()

        def launch(slot: int) -> None:
            nonlocal started
            if not queues[slot]:
                queues[slot] = list(turns)
            kind = queues[slot][0]
            elapsed = time.perf_counter() - start
            report_s = statistics.median(walls) if walls else 0.0
            setup_s = statistics.median(setups) if setups else 0.0
            probe_s = statistics.median(probes) if probes else 0.0
            left = (queues[slot].count("setup") * setup_s
                    + queues[slot].count("probe") * probe_s + report_s)
            if kind != "reference" and (
                    time.perf_counter() - self.begin > WALL_CAP_S
                    or (started >= MIN_RUNS and elapsed + left > seconds)):
                done[slot] = True
                return
            queues[slot].pop(0)
            cpu = cpus[slot]
            if kind == "setup":
                job = self._spawn([sys.executable, "-c", "import domstab.cli"], kind,
                                  f"setup{slot}", cpu, slot=slot)
            elif kind == "probe":
                job = self._spawn([sys.executable, str(BENCH_DIR / "probe.py")], kind,
                                  f"probe{slot}", cpu, slot=slot)
            elif kind == "reference":
                out_dir = self.work / "reference"
                job = self._spawn(self._report_cmd(self.ref_input, out_dir), kind,
                                  "reference", cpu, out_dir, slot)
            else:
                out_dir = self.work / f"out{slot}"
                job = self._spawn(self._report_cmd(self.input, out_dir), kind,
                                  f"run{started}", cpu, out_dir, slot)
                started += 1
            running[job.proc.pid] = job

        try:
            while True:
                for slot in range(len(cpus)):
                    if not done[slot] and not any(j.slot == slot for j in running.values()):
                        launch(slot)
                if not running:
                    break
                pid, status, usage = os.wait4(-1, 0)   # this child's own rusage
                job = running.pop(pid)
                code, wall, peak, stderr = self._reaped(job, status, usage)
                if job.kind == "setup":
                    setups.append(self._setup_checked(code, wall, stderr))
                    continue
                if job.kind == "probe":
                    if code != 0:
                        raise HarnessError(f"host-speed probe failed: {stderr.strip()[-400:]}")
                    probes.append(wall)
                    continue
                problems = self._report_problems(job.tag, code, stderr)
                if job.kind == "reference":
                    self._reference_done(problems, job.out_dir)
                    continue
                self.out.attempted += 1
                walls.append(wall)
                rss.append(peak / 1024.0)
                self._check_timed(job.tag, job.out_dir, problems, state)
        finally:
            for job in running.values():
                job.proc.kill()
            for job in running.values():
                job.proc.wait()
        for slot in range(len(cpus)):
            shutil.rmtree(self.work / f"out{slot}", ignore_errors=True)
        # Mean report-all time over mean probe time: the probes ran beside the
        # report-all children all through the window, so the host's drift,
        # weighted by time as it was, cancels out of the ratio.
        probe_s = statistics.fmean(probes)
        scale = self.probe_ref_s / probe_s
        report_s = statistics.fmean(walls) * scale
        self.out.host = {"probe_s": probe_s, "scale": scale,
                         "unscaled_report_all_s": statistics.fmean(walls)}
        self.out.metrics["report_all_s"] = report_s
        self.out.metrics["cells_per_s"] = self.w.cells / report_s
        self.out.samples["setup_s"] = [t * scale for t in setups]
        self.out.samples["report_all_s"] = [t * scale for t in walls]
        self.out.samples["peak_rss_mb"] = rss
        self.out.samples["cells_per_s"] = [self.w.cells / (t * scale) for t in walls]

    def traced(self, ref: dict[str, str], seconds: float) -> None:
        result_path = self.work / "traced.json"
        out_dir = (self.work / "traced_out").relative_to(self.root).as_posix()
        cmd = [sys.executable, str(BENCH_DIR / "traced_run.py"), "--result", str(result_path),
               "--seconds", str(seconds), "--", "report-all", "--input", self.input,
               "--out", out_dir, *self.w.args]
        code, _, _, stderr = self._child(cmd, "traced")
        if code != 0:
            self.out.attempted += 1
            self.out.fail(f"traced run: exit code {code}: {stderr.strip()[-400:]}")
            return
        data = json.loads(result_path.read_text(encoding="utf-8"))
        calls = [c for mode in ("warm-up", "untraced", "traced") for c in data["calls"][mode]]
        self.out.attempted += len(calls)
        expected = ref if self._same_input_as_reference() else calls[0]["digests"]
        for i, call in enumerate(calls):
            if call["exit"] != 0:
                self.out.fail(f"in-process call {i}: exit code {call['exit']}")
            elif call["digests"] != expected:
                self.out.fail(f"in-process call {i}: outputs differ from the untraced outputs")
        runs = spans.by_run([spans.Span(**s) for s in data["spans"]])
        per_run: list[dict[str, float]] = []
        for run, run_spans in sorted(runs.items()):
            m = spans.layer_metrics(run_spans, data["counts"].get(str(run), {}))
            m["report.bytes_written"] = data["calls"]["traced"][run]["bytes"]
            per_run.append(m)
        counts = {k: v for k, v in per_run[0].items() if spans.is_count(k)}
        for i, m in enumerate(per_run[1:], start=1):
            diff = sorted(k for k in counts if m[k] != counts[k])
            if diff:
                self.out.fail(f"traced run {i}: counts differ from run 0 (non-deterministic): {diff}",
                              run=False)
        self._check_roster(int(counts["ingest.roster_species"]))
        self.out.metrics.update(counts)
        for name in per_run[0]:
            if name not in counts:
                self.out.samples[name] = [m[name] for m in per_run]
        untraced = statistics.median(c["wall_s"] for c in data["calls"]["untraced"])
        traced = statistics.median(c["wall_s"] for c in data["calls"]["traced"])
        self.out.metrics["trace.overhead_ratio"] = traced / untraced

    def fresh_work_dir(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def write_golden(self) -> Path:
        """Store the golden copy from a run on the reference input."""
        self.fresh_work_dir()
        self._write_inputs(reference=True)
        out_dir = self.work / "reference"
        problems = self._report_all(out_dir, "reference")
        roster = outputs.roster_species(out_dir)
        if problems or not self.w.roster_ok(roster):
            raise HarnessError(f"reference run unusable (roster {roster}): {problems}")
        golden = {"workload": self.w.name, "input": self.ref_input, "seed": self.w.reference_seed,
                  "args": list(self.w.args), **outputs.make_golden(out_dir)}
        self.golden_path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
        shutil.rmtree(self.work)
        return self.golden_path

    def run(self, trace: bool, seconds: float) -> Outcome:
        if not self.golden_path.is_file():
            raise HarnessError(f"no golden copy at {self.golden_path}")
        self.golden = json.loads(self.golden_path.read_text(encoding="utf-8"))
        self.fresh_work_dir()
        # The program must reproduce the golden on the reference input; a
        # seeded input that differs from it is checked for determinism.
        reference = trace or not self._same_input_as_reference()
        self._write_inputs(reference)
        if trace:
            self.traced(self.reference(), seconds)
        else:
            self.timed(seconds, reference)
        for name, values in self.out.samples.items():
            self.out.metrics.setdefault(name, statistics.median(values))
        if not self.out.failed and not self.out.problems:
            shutil.rmtree(self.work, ignore_errors=True)
        return self.out


def _print_summary(w: Workload, out: Outcome, specs: list[dict], trace: bool) -> None:
    print(f"== {w.name}: {w.why}")
    for spec in specs:
        name = spec["name"]
        values = out.samples.get(name)
        if values is not None and len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            extra = f"  (n={len(values)}; q1 {q1:.6g}, q3 {q3:.6g})"
        else:
            extra = ""
        value = out.metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name} = {shown} {spec['unit']}{extra}")
    share = out.failed / out.attempted if out.attempted else 1.0
    print(f"  failed_run_share = {share:.6g} ratio  ({out.failed} of {out.attempted} runs)")
    if out.host:
        print(f"  host probe = {out.host['probe_s']:.6g} s mean: times scaled by "
              f"{out.host['scale']:.6g}; unscaled mean report-all {out.host['unscaled_report_all_s']:.6g} s")
    if trace and "trace.report_all_s" in out.metrics:
        m, total = out.metrics, out.metrics["trace.report_all_s"]
        logistic = m["fitting.logistic.s"] + m["fitting.logistic-sine.s"]
        fitting = sum(m[f"fitting.{k}.s"] for k in spans.KINDS)
        core = m["report.self_s"] + sum(
            v for k, v in m.items()
            if spans.is_time(k) and k.split(".")[0] in ("ingest", "metrics", "stability"))
        print(f"  share of traced report_all: logistic family {logistic / total:.3f}, "
              f"all fitting {fitting / total:.3f}, ingest+metrics+stability+report "
              f"{core / total:.3f}; logistic spans {m['fitting.logistic.calls'] + m['fitting.logistic-sine.calls']}")
    for problem in out.problems:
        print(f"  FAIL {problem}")


def _terminated(signum, frame):
    """SIGTERM unwinds like an exception, so running children are stopped."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description="domstab report-all benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        design = load_design()
        known = workloads(design)
        names = list(known) if args.workload == "all" else [args.workload]
        if any(name not in known for name in names):
            raise HarnessError(f"unknown workload {args.workload!r}; choose from {sorted(known)}")
        specs = spec["per_layer"] if args.trace else spec["end_to_end"]
        total = Outcome()
        results = {}
        for name in names:
            out = Bench(root, known[name], design, args.seed).run(bool(args.trace), args.seconds)
            _print_summary(known[name], out, specs, bool(args.trace))
            missing = [s["name"] for s in specs if s["name"] not in out.metrics]
            if missing and not out.failed:
                raise HarnessError(f"{name}: metrics not produced: {missing}")
            total.attempted += out.attempted
            total.failed += out.failed
            total.problems += out.problems
            results[name] = {
                s["name"]: {"value": out.metrics[s["name"]], "unit": s["unit"]}
                for s in specs if s["name"] in out.metrics
            }
    except (HarnessError, OSError, json.JSONDecodeError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    metrics = results[names[0]] if len(names) == 1 else {
        f"{w}.{k}": v for w, ms in results.items() for k, v in ms.items()
    }
    print(json.dumps({
        "correct": not total.problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
