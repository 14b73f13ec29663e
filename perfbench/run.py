#!/usr/bin/env python3
"""CLI-level benchmark of markov-poisson, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 25 --trace 0

The run generates the workload's spec files from ``--seed`` (numpy only),
measures set-up time in fresh interpreters, then drives
``markov_poisson.cli.main`` in this process: one warm-up op per command,
then complete passes over the workload's ops, back to back, for about
``--seconds``. Every report is checked from outside (``workloads.check``).
Human-readable lines come first; the last line of standard output is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with every layer wrapped (``layertrace``), and
reports the per-layer metrics per pass plus the tracing overhead.
``--root`` points at another checkout's program, which is how
``compare.py`` runs one benchmark against two commits.

Exit status is 0 whenever a result line was printed (``correct`` carries
the verdict) and 2 when the program's source is missing.
"""

from __future__ import annotations

import os

#: BLAS threads of the workload process. The largest matrices are 500 x 500,
#: where a second thread gains little and adds noise from a shared host.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("dense-exact", "small-chains", "queue")
COMMANDS = ("verify", "solve", "potential", "simulate", "gig1")


@dataclass
class OpRecord:
    label: str
    command: str
    start: float
    seconds: float
    passed: bool
    expected: bool
    detail: str
    #: (reported SE of g*(x0) / target SE)^2 for simulate ops with a target
    se_ratio: float | None = None

    @property
    def mid(self) -> float:
        return self.start + self.seconds / 2


@dataclass
class Recorder:
    """Outcomes of every timed op, plus what must repeat between passes."""

    records: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)

    def add(self, op, code, start, seconds, text):
        passed, expected, detail, rep = workloads.check(op, code, text)
        if rep is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(op.label, digest) != digest:
                passed = expected = False
                detail = "report bytes differ from the previous pass"
        se_ratio = None
        if passed and op.command == "simulate":
            self.estimates[op.label] = rep["estimates"]
            ref = op.same_estimates_as
            if ref is not None and self.estimates.get(ref) != rep["estimates"]:
                passed = expected = False
                detail = f"estimates differ from those of {ref}"
            if op.target_se is not None:
                se_ratio = (workloads.gstar_se(rep) / op.target_se) ** 2
        if not expected:
            self.problems.append(f"{op.label}: {detail}")
        self.records.append(OpRecord(op.label, op.command, start, seconds, passed, expected,
                                     detail, se_ratio))


def invoke(cli, argv):
    """One in-process CLI invocation: (exit code, start, seconds, report text)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed op, not the end of the run
        traceback.print_exc(file=sys.stderr)
        code = -1
    return code, t0, time.perf_counter() - t0, buf.getvalue()


class Calibration:
    """A fixed piece of interpreter and BLAS work, timed between ops.

    The CPU speed of a shared host drifts. On a 2-core virtual machine
    shared with other tenants a fixed pure-Python loop switched between
    about 0.45 and 0.75 s every few seconds, and whole runs minutes apart
    differed by 30%. Each time is
    therefore reported at a reference speed: multiplied by ``speed(t)``,
    the ratio of ``REFERENCE_S`` to the mean duration of the rounds just
    before and just after it. The round calls nothing of the program, but
    it is a correction for interpreter-bound work only: it runs on the
    caches the op before it left, and numpy-bound work (the ``gig1``
    quadrature) slowed less than the round in slow phases, so a change
    that moves Python loops into numpy reads faster scaled than raw.
    ``compare.py`` therefore judges raw and scaled times both.
    """

    #: seconds one round takes at the reference speed
    REFERENCE_S = 0.02
    #: op time between two rounds
    EVERY_S = 0.25

    def __init__(self):
        import numpy as np

        n = 120
        self._a = (np.add.outer(np.arange(n), 3 * np.arange(n)) % 11) + n * np.eye(n)
        self._b = np.ones(n)
        self._solve = np.linalg.solve
        self.stamps = []  # mid times, increasing
        self.times = []
        self._since = 0.0

    def round(self, record: bool = True):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(9000):
            acc += float(format(i * 0.37, ".17g"))
        for _ in range(15):
            acc += float(self._solve(self._a, self._b)[0])
        t1 = time.perf_counter()
        if record:
            self.stamps.append((t0 + t1) / 2)
            self.times.append(t1 - t0)
        self._since = 0.0

    def after_op(self, seconds: float):
        self._since += seconds
        if self._since >= self.EVERY_S:
            self.round()

    def speed(self, t: float) -> float:
        i = bisect.bisect(self.stamps, t)
        near = [self.times[j] for j in (i - 1, i) if 0 <= j < len(self.times)]
        return self.REFERENCE_S / statistics.fmean(near)


def raw_speed(t: float) -> float:
    return 1.0


class SetupTimer:
    """Fresh ``python -m markov_poisson.cli`` runs of the workload's cheapest op.

    One run goes before each pass and one after the last, so that the runs
    meet the host's phases as the ops do. The calibration round right
    after a run is thrown away: it runs on the caches the fresh interpreter
    evicted (up to 3x slow) and measures that, not the host.
    """

    def __init__(self, op, root: Path, cal: Calibration):
        self.argv = [sys.executable, "-m", "markov_poisson.cli", *op.argv]
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p)
        self.cal = cal
        self.runs = []  # (midpoint, seconds)
        self.ok = True

    def __call__(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=self.root, env=self.env, timeout=120,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        self.runs.append((t0 + dt / 2, dt))
        self.ok &= proc.returncode == 0
        self.cal.round(record=False)
        self.cal.round()
        return time.perf_counter() - t0


def run_passes(cli, ops, seconds, rec, cal, setup=None) -> list:
    """Complete passes for about ``seconds``; returns each pass's op time.

    A further pass starts only while at least half of it would fit, so a
    run overshoots ``seconds`` by at most half a pass. ``setup``, if
    given, runs before each pass and after the last; its time is not
    counted against ``seconds``.
    """
    pass_times = []
    start = time.perf_counter()
    while not pass_times or (time.perf_counter() - start
                             + statistics.fmean(pass_times) / 2 < seconds):
        if setup is not None:
            start += setup()
        busy = 0.0
        for op in ops:
            code, t0, dt, text = invoke(cli, op.argv)
            busy += dt
            rec.add(op, code, t0, dt, text)
            cal.after_op(dt)
        pass_times.append(busy)
    if setup is not None:
        setup()
    return pass_times


def mean_of_medians(pairs) -> float | None:
    """Mean over distinct ops of each op's median, from (label, value) pairs.

    An op's median damps bursts of host noise; the mean over ops keeps
    every op of the mix in the figure, where one median over all of them
    would jump between op sizes. None when there are no pairs.
    """
    by_op = {}
    for label, value in pairs:
        by_op.setdefault(label, []).append(value)
    if not by_op:
        return None
    return statistics.fmean(statistics.median(v) for v in by_op.values())


def end_to_end(rec: Recorder, setup_runs, speed) -> dict:
    """{name: (value, unit)}, times multiplied by ``speed`` at their midpoint.

    A latency with no samples has the value None. ``peak_rss_mb`` is this
    process's peak: the worker processes of a ``--workers 2`` op and the
    fresh set-up interpreters are not counted.
    """
    recs = rec.records
    scaled = [r.seconds * speed(r.mid) for r in recs]
    passed = [r.passed for r in recs]
    m = {
        "setup_s": (statistics.median(dt * speed(mid) for mid, dt in setup_runs), "s"),
        "ops_per_s": (sum(passed) / sum(scaled), "1/s"),
        "passed_frac": (sum(passed) / len(recs), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for cmd in COMMANDS:
        m[f"{cmd}_s"] = (mean_of_medians(
            (r.label, s) for r, s in zip(recs, scaled) if r.command == cmd), "s")
    m["time_to_se_s"] = (mean_of_medians(
        (r.label, s * r.se_ratio) for r, s in zip(recs, scaled) if r.se_ratio), "s")
    return m


def tail(values) -> str:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    values = sorted(values)
    n = len(values)
    if not n:
        return "no samples"
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            qv = values[min(n - 1, int(n * q / 100))]
            return f"median {statistics.median(values):.4g}, p{q} {qv:.4g}, n={n}"
    return f"median {statistics.median(values):.4g}, max {values[-1]:.4g}, n={n}"


def latency_lines(rec: Recorder) -> list:
    lines = []
    for cmd in COMMANDS:
        lat = [r.seconds for r in rec.records if r.command == cmd]
        lines.append(f"  {cmd} op latency, raw s: {tail(lat)}")
    return lines


def src_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    """HEAD of ``root`` when it is itself a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "blas": blas, "blas_threads": int(BLAS_THREADS),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "commit": git_commit(root),
        "src_digest": src_digest(root / "src" / "markov_poisson"),
        "bench_digest": src_digest(HERE), "seed": seed,
    }


def check_across_runs(rec: Recorder, key: str) -> None:
    """Reports must be byte-identical to an earlier run on the same inputs."""
    path = HERE / ".work" / "digests" / f"{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        for label, digest in rec.digests.items():
            if before.get(label, digest) != digest:
                rec.problems.append(f"{label}: report bytes differ from an earlier run")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rec.digests, indent=0))


def trace_lines(tracer, plain, traced, by_code) -> list:
    own = tracer.self_times()
    root = tracer.root_of()
    per_root = {}
    for s in tracer.spans:
        r = root[s[layertrace.ID]]
        per_root[r] = per_root.get(r, 0.0) + own[s[layertrace.ID]]
    worst = max(abs(per_root[r[layertrace.ID]] - (r[layertrace.T1] - r[layertrace.T0]))
                for r in tracer.roots())
    in_spans = sum(r[layertrace.T1] - r[layertrace.T0] for r in tracer.roots())
    return [
        f"  {len(plain)} untraced passes ({statistics.median(plain):.3f} s median), "
        f"{len(traced)} traced ({statistics.median(traced):.3f} s median), "
        f"{len(tracer.spans)} spans",
        f"  layer self times add up to each op's span within {worst:.2e} s; "
        f"op spans cover {in_spans / sum(traced):.4f} of the traced op time",
        "  errors by layer and code: " + (json.dumps(by_code) if by_code else "none"),
    ]


def run(args, root: Path, workdir: Path) -> tuple:
    from markov_poisson import cli

    env = environment(root, args.seed)
    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, workdir)
    lines = [f"workload {wl.name} (seed {args.seed}): {workloads.WHY[wl.name]}",
             f"  inputs generated in {time.perf_counter() - t0:.2f} s, "
             f"{len(wl.ops)} ops per pass",
             "  environment " + json.dumps(env)]
    rec = Recorder()
    for op in workloads.warmup_ops(workdir):
        code, _, _, text = invoke(cli, op.argv)
        if code != 0:
            rec.problems.append(f"warm-up op {op.label}: exit {code}: {text[:200]}")
    cal = Calibration()
    cal.round()
    if not args.trace:
        setup = SetupTimer(wl.setup_op, root, cal)
        pass_times = run_passes(cli, wl.ops, args.seconds, rec, cal, setup)
        if not setup.ok:
            rec.problems.append(f"set-up op {wl.setup_op.label} did not exit 0")
        metrics = end_to_end(rec, setup.runs, cal.speed)
        raw = end_to_end(rec, setup.runs, raw_speed)
        lines.append(f"  {len(pass_times)} passes, raw op time per pass "
                     + ", ".join(f"{t:.3f}" for t in pass_times) + " s")
        lines += latency_lines(rec)
    else:
        plain = run_passes(cli, wl.ops, args.seconds / 2, rec, cal)
        tracer = layertrace.Tracer()
        with tracer:
            traced = run_passes(cli, wl.ops, args.seconds / 2, rec, cal)
        traced_recs = rec.records[-len(tracer.roots()):]
        metrics, by_code = layertrace.layer_metrics(tracer, len(traced),
                                                    [cal.speed(r.mid) for r in traced_recs])
        raw, _ = layertrace.layer_metrics(tracer, len(traced), [1.0] * len(traced_recs))
        overhead = (statistics.median(traced) / statistics.median(plain) - 1.0, "fraction")
        metrics["trace.overhead_frac"] = raw["trace.overhead_frac"] = overhead
        lines += trace_lines(tracer, plain, traced, by_code)
        results = HERE / ".work" / "results"
        results.mkdir(parents=True, exist_ok=True)
        labels = [op.label for _ in traced for op in wl.ops]
        op_of_root = {s[layertrace.ID]: label for s, label in zip(tracer.roots(), labels)}
        tracer.dump(results / f"{wl.name}-seed{args.seed}-spans.jsonl", op_of_root)

    # the same inputs need the same generator too, hence the bench digest
    check_across_runs(
        rec, f"{wl.name}-seed{args.seed}-{env['src_digest']}-{env['bench_digest']}")
    recs = rec.records
    failed = [r for r in recs if not r.passed]
    known = [r for r in failed if r.expected]
    lines.append(f"  {len(recs)} ops attempted, {len(failed)} failed "
                 f"({len(known)} known-red), failed_frac {len(failed) / len(recs):.4f}")
    for label in sorted({r.label for r in known}):
        lines.append(f"  known-red {label}: "
                     + next(r.detail for r in known if r.label == label))
    for name in [k for k, (v, _) in metrics.items() if v is None]:
        rec.problems.append(f"{name}: no samples, metric missing")
        del metrics[name]
    for p in rec.problems[:20]:
        lines.append(f"  UNEXPECTED {p}")
    speeds = [cal.speed(r.mid) for r in recs]
    lines.append(f"  {len(cal.times)} calibration rounds, median "
                 f"{statistics.median(cal.times) * 1e3:.2f} ms against "
                 f"{cal.REFERENCE_S * 1e3:.0f} ms at reference speed; "
                 f"op speed factors {min(speeds):.3f}..{max(speeds):.3f}")
    lines.append(f"  {'metric':32s} {'at reference':>14s} {'raw':>14s} unit")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32s} {value:14.6g} {raw[name][0]:14.6g} {unit}")
    result = {
        "correct": not rec.problems,
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = HERE / ".work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{wl.name}-seed{args.seed}-trace{int(args.trace)}.json").write_text(json.dumps({
        "environment": env, "workload": wl.name, "why": workloads.WHY[wl.name],
        "seconds": args.seconds, "result": result, "problems": rec.problems,
        "raw_metrics": {k: v for k, (v, _) in raw.items()},
        "calibration": {"stamps": cal.stamps, "times": cal.times},
        "ops": [vars(r) for r in recs],
    }, indent=1))
    return lines, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", default=".", help="checkout whose src/ is measured")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    if not (root / "src" / "markov_poisson" / "cli.py").is_file():
        print(f"no markov_poisson source under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lines, result = run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
