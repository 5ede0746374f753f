"""The hermlab benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-n2 --seed 1 --seconds 30 --trace 0

Every operation is a fresh ``python3 -m hermlab.cli`` process, because the
``q_poly`` cache and the Monte-Carlo histograms live for one process and a
user refills them on every CLI call.  Load is a closed loop with one client:
the next operation starts when the previous one has exited.  With
``--trace 0`` the end-to-end metrics are measured untraced and reported at
the speed of a reference machine, measured by a probe that times a fixed
loop on every core while the operations run; with
``--trace 1`` each operation is run untraced at ``--workers 1``, untraced at
its own worker count, and traced at ``--workers 1`` (see ``tracer.py``), and
the per-layer metrics are read from the spans.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads, the metric definitions and
the span file format.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # not used while tuning; reserved for checking later claims

OP_TIMEOUT_S = 150.0  # per-operation limit; a killed operation counts as failed
RUN_BUDGET_S = 170.0  # no operation may run past this point of the whole run
SETUP_MIN = 8  # cold starts measured for setup_s at least, however few operations fit
IMPORT_REPEATS = 5  # fresh interpreters measured for cli.import_s
SETUP_ARGV = ("padic", "count-norm", "--p", "3", "--xi", "1", "--r", "1")
SETUP_OUTPUT = b"8/27\n"  # pinned in the README
# The speed probe (see SpeedProbe): a sample is the CPU time of PROBE_ROUNDS
# loop turns, taken every PROBE_GAP_S on each core.  PROBE_NOMINAL_S is the
# median sample on the machine the benchmark was tuned on (2-vCPU Intel
# Xeon, Python 3.11, at rest); end-to-end times are reported at that
# machine's speed (see README.md).
PROBE_ROUNDS = 3000
PROBE_GAP_S = 0.02
PROBE_NOMINAL_S = 0.00028
PROBE_MAX_THREADS = 8

CHECK_IDS = (
    "norm-volume", "cartan-membership", "rank1-closed-form", "rank1-closed-form-sign",
    "defining-integral-mc", "functional-equation", "tau-functional-equation",
    "gamma-cocycle", "macdonald-constant", "stabilizer-closed-form", "identity-value",
    "measure-total-mass", "gram-orthogonality", "plancherel-diagonal", "inversion",
    "volume-prefactor-power", "basis-rank", "parity-sign", "height-phase",
    "orbit-classification", "k1-cell-counts", "diagonalization-roundtrip",
)
# The n=3 checks whose cost is the exact core (one q_poly build) and the
# 64^3 grid and that finish in a few seconds, so that a run holds several
# operations; the others take 8-48 s each, and basis-rank fails at n=3
# (recorded by --baseline instead; see README.md).
N3_CHECKS = (
    "norm-volume", "rank1-closed-form", "rank1-closed-form-sign", "gamma-cocycle",
    "stabilizer-closed-form", "measure-total-mass", "volume-prefactor-power", "height-phase",
)
MC_ELLS = (0, 1, 2)
MC_EXPONENTS = (1, 2)
MC_SAMPLES = 2000
MC_PREC = 8
WORKLOADS = ("verify-n2", "verify-n3", "mc-rank1")


def derive_seed(seed: int, label: str) -> int:
    """A program seed made from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()
    return int(digest[:8], 16) % 1_000_000


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    argv: tuple[str, ...]
    kind: str  # "verify" or "mc"
    ids: tuple[str, ...] = ()  # the checks a verify report must hold, in order

    @property
    def expect(self) -> int:
        """Checks or agreements the operation makes."""
        return len(self.ids) if self.kind == "verify" else 1

    @property
    def serial(self) -> "Op":
        """The same command at ``--workers 1``."""
        if "--workers" not in self.argv:
            return self
        i = self.argv.index("--workers")
        return Op(self.argv[: i + 1] + ("1",) + self.argv[i + 2 :], self.kind, self.ids)


def _verify_op(ids: tuple[str, ...], n: int, seed: int) -> Op:
    checks = "all" if ids == CHECK_IDS else ",".join(ids)
    argv = ("verify", checks, "--n", str(n), "--workers", "2", "--format", "json")
    return Op(argv + ("--seed", str(derive_seed(seed, "verify"))), "verify", ids)


def workload_ops(name: str, seed: int, smoke: bool) -> list[Op]:
    """The operations one round of a workload runs, in order."""
    if name == "verify-n2":
        return [_verify_op(CHECK_IDS, 1 if smoke else 2, seed)]
    if name == "verify-n3":
        return [_verify_op(N3_CHECKS, 1 if smoke else 3, seed)]
    if name == "mc-rank1":
        samples = 200 if smoke else MC_SAMPLES
        return [
            Op(
                (
                    "padic", "mc-omega", "--ell", str(ell), "--s", str(s),
                    "--samples", str(samples), "--prec", str(MC_PREC),
                    "--seed", str(derive_seed(seed, f"mc:{ell}")),
                ),
                "mc",
            )
            for ell in MC_ELLS
            for s in MC_EXPONENTS
        ]
    raise ValueError(f"unknown workload {name!r}")


# -- running one process ------------------------------------------------------------


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int | None  # None when killed at the time limit
    stdout: bytes
    start: float  # time.perf_counter() at spawn
    steal: float  # share of all CPU time the hypervisor took while it ran


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) clock ticks of all CPUs since boot, from the first
    line of /proc/stat; (0, 0) where there is none."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) == 8 else 0), sum(fields)


def spawn(cmd: list[str], timeout: float, out_prefix: Path) -> Proc:
    """Run ``cmd`` to completion; wall time from spawn to exit, CPU and peak
    RSS of the process and every child it waited for (``os.wait4``).  The
    whole process group is killed at ``timeout``."""
    env = {k: v for k, v in os.environ.items() if k != "HERMLAB_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    out_path = out_prefix.with_suffix(".out")
    with open(out_path, "wb") as out, open(out_prefix.with_suffix(".err"), "wb") as err:
        ticks0 = cpu_ticks()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT, env=env,
            start_new_session=True,
        )
        killed = threading.Event()

        def kill():
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        ticks1 = cpu_ticks()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set():
        kill()  # pool workers of the killed leader are still in its group
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=None if killed.is_set() else proc.returncode,
        stdout=out_path.read_bytes(),
        start=t0,
        steal=(ticks1[0] - ticks0[0]) / max(ticks1[1] - ticks0[1], 1),
    )


def hermlab_cmd(op: Op | tuple[str, ...]) -> list[str]:
    argv = op.argv if isinstance(op, Op) else op
    return [sys.executable, "-m", "hermlab.cli", *argv]


def traced_cmd(op: Op, spans: Path, run_id: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), run_id, "--", *op.argv]


# -- output checks ------------------------------------------------------------------


def closed_form_rank1(ell: int, s: float, q: float) -> float:
    """Rank-one closed form of the defining integral, written out here
    independently of the package so that the printed target is checked."""
    u = q**-s
    u2 = u * u
    front = (1 + q**-3 * u2) / ((1 + q**-3) * (1 - q**-4 * u2 * u2))
    sign = -1.0 if ell % 2 == 0 else 1.0
    return front * (u**-ell * (1 - q**-4 * u2) + sign * q ** (-2 * (ell + 1)) * u**ell * (1 - u2))


def judge(op: Op, proc: Proc) -> tuple[bool, int, int]:
    """(output well formed, attempted, failed) for one finished operation.

    An operation killed at the time limit or stopped at a resource limit
    (exit code 3) counts every check it was to make as failed; any other
    exit code than 0 or 1 is a crash and makes the output malformed."""
    if proc.code not in (0, 1):
        return proc.code in (None, 3), op.expect, op.expect
    text = proc.stdout.decode(errors="replace")
    if op.kind == "verify":
        try:
            results = json.loads(text)["results"]
            failed = sum(not r["passed"] for r in results)
            ids = tuple(r["id"] for r in results)
        except (ValueError, KeyError, TypeError):
            return False, op.expect, op.expect
        return ids == op.ids and proc.code == (1 if failed else 0), len(results), failed
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    try:
        est, err, target = (float(fields[k]) for k in ("estimate", "stderr", "closed form"))
    except (KeyError, ValueError):
        return False, 1, 1
    ell = int(op.argv[op.argv.index("--ell") + 1])
    s = float(op.argv[op.argv.index("--s") + 1])
    agree = fields.get("agreement") == "pass"
    # the printed numbers carry six decimals; judge the verdict only outside that rounding
    margin = abs(est - target) - 3 * err
    ok = (
        abs(target - closed_form_rank1(ell, s, 3.0)) < 1e-6
        and (margin < 1e-5 if agree else margin > -1e-5)
        and proc.code == (0 if agree else 1)
    )
    return ok, 1, 0 if agree else 1


@dataclass
class Session:
    """One benchmark run: its output directory, its time budget and the
    correctness tally of everything it ran."""

    work: Path
    deadline: float
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)  # argv -> first stdout
    notes: list = field(default_factory=list)

    def spawn(self, cmd: list[str], tag: str) -> Proc:
        timeout = min(OP_TIMEOUT_S, self.deadline - time.perf_counter())
        return spawn(cmd, timeout, self.work / tag)

    def cold_start(self, tag: str = "setup") -> Proc:
        """One cold start of the small CLI verb that setup_s times."""
        proc = self.spawn(hermlab_cmd(SETUP_ARGV), tag)
        if proc.code != 0 or proc.stdout != SETUP_OUTPUT:
            self.fault(f"count-norm printed {proc.stdout!r} with exit code {proc.code}")
        return proc

    def fault(self, note: str) -> None:
        self.correct = False
        self.notes.append(note)

    def add(self, op: Op, proc: Proc, same_as: Op | None = None) -> None:
        """Tally one operation; its stdout must equal that of every earlier
        run of ``same_as`` (default: the operation itself)."""
        ok, attempted, failed = judge(op, proc)
        self.attempted += attempted
        self.failed += failed
        command = " ".join(op.argv)
        if proc.code is None:
            self.notes.append(f"killed at the time limit: {command}")
        if not ok:
            self.fault(f"malformed output or exit code {proc.code}: {command}")
        if proc.code is not None:
            first = self.outputs.setdefault((same_as or op).argv, proc.stdout)
            if first != proc.stdout:
                self.fault(f"stdout bytes differ between runs: {command}")


# -- set-up ---------------------------------------------------------------------------


def require_source() -> None:
    if not (SRC / "hermlab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no hermlab source under {SRC}\n")
        sys.exit(2)


def measure_import(session: Session) -> float:
    """Median time to import ``hermlab.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import hermlab.cli; print(time.perf_counter() - t)"
    times = []
    for i in range(IMPORT_REPEATS):
        proc = session.spawn([sys.executable, "-c", code], f"import{i}")
        if proc.code != 0:
            session.fault(f"importing hermlab.cli exited with {proc.code}")
            return float("nan")
        times.append(float(proc.stdout))
    return statistics.median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_worker_bytes(name: str, ops: list[Op], session: Session) -> None:
    """Once per source tree and workload, whatever the seed: the
    ``--workers 1`` report must equal the parallel one byte for byte.  Untimed."""
    stamp = WORK / f"workers-{source_digest()}-{name}"
    if stamp.exists():
        return
    for op in ops:
        if op.serial == op:
            continue
        pair = [session.spawn(hermlab_cmd(o), f"bytes{i}") for i, o in enumerate((op, op.serial))]
        if any(p.code not in (0, 1) for p in pair) or pair[0].stdout != pair[1].stdout:
            session.fault(f"--workers 1 and 2 reports differ: {' '.join(op.argv)}")
            return
    stamp.write_text("identical\n")


def machine_record() -> dict:
    # read numpy's version without importing it: a child's ru_maxrss starts
    # from this process's resident size, so this process stays small
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model
            )
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,  # None outside a git checkout; source_digest still names the code
        "source_digest": source_digest(),
    }


# -- spans ----------------------------------------------------------------------------


def read_spans(path: Path) -> tuple[list[dict], dict]:
    spans, counters = [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters = rec["counters"]
            else:
                spans.append(rec)
    return spans, counters


def span_totals(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Per span name: calls and inclusive seconds, counting a span nested in
    one of the same name only once; per module: self seconds."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] >= 0:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, rec in enumerate(spans):
        name, dur = rec["name"], rec["end"] - rec["start"]
        module = name.split(".", 1)[0]
        self_s[module] = self_s.get(module, 0.0) + dur - child_time[i]
        parent = rec["parent"]
        while parent >= 0 and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent < 0:
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + dur
    return calls, secs, self_s


MODULES = (
    "scalars", "weyl", "torus", "hall_littlewood", "spherical", "plancherel", "padic",
    "report", "cli",
)
# per-layer metric -> (span name, "calls" or "s")
SPAN_METRICS = {
    f"{name}.{kind}": (name, kind)
    for name, kinds in (
        ("hall_littlewood.q_poly", ("calls", "s")),
        ("torus.binomial_div_exact", ("calls", "s")),
        ("torus.eval_exact", ("calls", "s")),
        ("weyl.enumerate_group", ("calls", "s")),
        ("spherical.eval_at_base_point", ("s",)),
        ("spherical.check_functional_equation", ("s",)),
        ("spherical.parity_sign_relation", ("s",)),
        ("plancherel.gram_matrix", ("s",)),
        ("plancherel.poly_values", ("calls", "s")),
        ("plancherel.basis_rank_check", ("s",)),
        ("padic.sample_k1_haar", ("calls", "s")),
        ("padic.monte_carlo_omega1", ("s",)),
        ("padic.k1_cell_counts", ("s",)),
        ("padic.is_member_X", ("s",)),
        ("padic.diagonalize_x1", ("s",)),
    )
    for kind in kinds
}
# per-layer metric -> counter written by tracer.py
COUNTER_METRICS = {
    "hall_littlewood.q_poly.builds": "hall_littlewood.q_poly.builds",
    "scalars.qlaurent_mul.calls": "scalars.qlaurent_mul",
    "scalars.qlaurent_divexact.calls": "scalars.qlaurent_divexact",
    "scalars.qfraction_mul.calls": "scalars.qfraction_mul",
    "scalars.qfraction_add.calls": "scalars.qfraction_add",
    "padic.draws_accepted": "padic.draws_accepted",  # turned into padic.draw_yield
}


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer numbers of one traced process."""
    calls, secs, self_s = span_totals(spans)
    out = {
        metric: float(calls.get(name, 0) if kind == "calls" else secs.get(name, 0.0))
        for metric, (name, kind) in SPAN_METRICS.items()
    }
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = float(counters.get(counter, 0))
    checks = {cid: secs.get(f"report.check.{cid}", 0.0) for cid in CHECK_IDS}
    for cid, s in checks.items():
        out[f"report.check_s.{cid}"] = s
    out["report.serial_s"] = sum(checks.values())
    out["report.critical_check_s"] = max(checks.values())
    for module in MODULES:
        out[f"{module}.self_s"] = self_s.get(module, 0.0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".builds")):
        return "count"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "s"


# -- the two kinds of run -------------------------------------------------------------


def probe_work() -> int:
    x = 0
    for i in range(PROBE_ROUNDS):
        x += i * i % 7
    return x


class SpeedProbe:
    """The speed of the cores while the benchmark runs: one thread per core,
    pinned to it, times ``probe_work`` in its own CPU time every
    ``PROBE_GAP_S``.  A shared machine's cores change speed within seconds
    (the host's other tenants, its clock); a sample taken while an
    operation runs slows with it.  CPU time leaves out the time the thread
    waits for the core, so the operation sharing the core does not slow the
    probe, and the probe takes under 2 % of each core."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._stop = threading.Event()
        cores = sorted(os.sched_getaffinity(0))[:PROBE_MAX_THREADS]
        self._threads = [threading.Thread(target=self._run, args=(c,), daemon=True) for c in cores]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _run(self, core: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {core})
        while not self._stop.wait(PROBE_GAP_S):
            t0 = time.thread_time()
            probe_work()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def during(self, proc: Proc) -> float:
        """Median probe sample while ``proc`` ran (the latest ones if none)."""
        end = proc.start + proc.wall
        inside = [d for t, d in self.samples if proc.start <= t <= end]
        latest = [d for _, d in self.samples[-2 * len(self._threads) :]]
        return statistics.median(inside or latest or [PROBE_NOMINAL_S])


def run_untraced(ops: list[Op], seconds: float, session: Session, probe: SpeedProbe) -> dict:
    """Whole rounds of the workload's operations in a closed loop until about
    ``seconds`` have passed, each operation preceded by a cold start of the
    set-up verb; then more cold starts up to ``SETUP_MIN``.  Returns the raw
    samples with the steal share and the probe's median during each."""
    keys = ("report_s", "cpu_s", "peak_rss_mb", "op_steal", "op_probe_s")
    raw = {k: [] for k in keys + ("setup_s", "setup_steal", "setup_probe_s")}

    def cold_start() -> None:
        proc = session.cold_start()
        raw["setup_s"].append(proc.wall)
        raw["setup_steal"].append(proc.steal)
        raw["setup_probe_s"].append(probe.during(proc))

    stop = time.perf_counter() + seconds
    round_s = 0.0
    # stop at the round boundary nearest to ``stop``, so that every
    # operation of the workload weighs the same in the means
    while not raw["report_s"] or time.perf_counter() + round_s / 2 < stop:
        t0 = time.perf_counter()
        for op in ops:
            cold_start()
            proc = session.spawn(hermlab_cmd(op), "op")
            session.add(op, proc)
            for key, value in zip(keys, (proc.wall, proc.cpu, proc.rss_mb, proc.steal, probe.during(proc))):
                raw[key].append(value)
        round_s = time.perf_counter() - t0
    while len(raw["setup_s"]) < SETUP_MIN:
        cold_start()
    return raw


def normalise(raw: dict) -> dict[str, float]:
    """End-to-end times at the reference machine's speed, means over the run.

    A wall time first loses the share of it in which the hypervisor took
    the CPUs away (steal); then each time is scaled by ``PROBE_NOMINAL_S``
    over the probe's median sample while that process ran."""

    def scaled(values: list[float], probe_s: list[float], steal: list[float]) -> float:
        return statistics.fmean(
            v * (1 - f) * PROBE_NOMINAL_S / p for v, f, p in zip(values, steal, probe_s)
        )

    return {
        "report_s": scaled(raw["report_s"], raw["op_probe_s"], raw["op_steal"]),
        "cpu_s": scaled(raw["cpu_s"], raw["op_probe_s"], [0.0] * len(raw["cpu_s"])),
        "setup_s": scaled(raw["setup_s"], raw["setup_probe_s"], raw["setup_steal"]),
    }


def run_traced(ops: list[Op], seconds: float, session: Session) -> list[dict[str, float]]:
    """Rounds of (untraced serial, untraced parallel, traced serial) per op
    until ``seconds`` have passed; per-layer numbers summed over a round."""
    rounds: list[dict[str, float]] = []
    stop = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < stop:
        total = dict.fromkeys(layer_metrics([], {}), 0.0)
        plain_wall = traced_wall = dup_cpu = 0.0
        for j, op in enumerate(ops):
            plain = session.spawn(hermlab_cmd(op.serial), "plain")
            session.add(op.serial, plain, same_as=op)
            if op.serial != op:
                parallel = session.spawn(hermlab_cmd(op), "parallel")
                session.add(op, parallel)
                dup_cpu += parallel.cpu - plain.cpu
            run_id = f"{len(rounds)}.{j}"
            spans_path = session.work / f"spans-{len(rounds)}-{j}.jsonl"
            traced = session.spawn(traced_cmd(op.serial, spans_path, run_id), "traced")
            session.add(op.serial, traced, same_as=op)
            plain_wall += plain.wall
            traced_wall += traced.wall
            if traced.code is not None and spans_path.exists():
                for key, value in layer_metrics(*read_spans(spans_path)).items():
                    total[key] += value
        draws = total["padic.sample_k1_haar.calls"]
        accepted = total.pop("padic.draws_accepted")
        total["padic.draw_yield"] = accepted / draws if draws else 0.0
        total["report.worker_dup_cpu_s"] = dup_cpu
        total["trace.overhead_ratio"] = traced_wall / plain_wall
        rounds.append(total)
    return rounds


def run_dir(workload: str, seed: int, trace: bool, smoke: bool = False) -> Path:
    """Where a run leaves its process outputs, span files and result.json."""
    return WORK / f"{workload}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}"


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    require_source()
    t_start = time.perf_counter()
    name = f"{workload}{'-smoke' if smoke else ''}"
    work = run_dir(workload, seed, trace, smoke)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(work, t_start + RUN_BUDGET_S)
    ops = workload_ops(workload, seed, smoke)
    load_before = os.getloadavg()
    if trace:
        import_s = measure_import(session)
        rounds = run_traced(ops, seconds, session)
        values = {"cli.import_s": import_s}
        values.update({k: statistics.median(r[k] for r in rounds) for k in rounds[0]})
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        extra = {"rounds": len(rounds)}
    else:
        check_worker_bytes(name, ops, session)
        with SpeedProbe() as probe:
            session.cold_start("warm-up")  # untimed: the first cold start reads the files in
            raw = run_untraced(ops, seconds, session, probe)
        times = normalise(raw)
        metrics = {
            "report_s": {"value": times["report_s"], "unit": "s"},
            "cpu_s": {"value": times["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(raw["peak_rss_mb"]), "unit": "MB"},
            "setup_s": {"value": times["setup_s"], "unit": "s"},
        }
        extra = {
            "operations": len(raw["report_s"]),
            "samples": raw,
            "raw_means": {k: statistics.fmean(v) for k, v in raw.items()},
        }
    fail_ratio = session.failed / session.attempted if session.attempted else 1.0
    metrics["fail_ratio"] = {"value": fail_ratio, "unit": "ratio"}
    result = {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "commands": [" ".join(["hermlab", *op.argv]) for op in ops],
        **extra,
        "wall_s": time.perf_counter() - t_start,
        "machine": {
            **machine_record(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "notes": session.notes,
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def summary_line(result: dict, names: list[str]) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: result["metrics"][k] for k in names},
        }
    )


def known_failures() -> dict:
    """Run the check known to fail at n=3 once, so that its failure stays
    visible in the baseline although no workload may contain it."""
    argv = ("verify", "basis-rank", "--n", "3", "--workers", "1", "--format", "json")
    proc = spawn(hermlab_cmd(argv), OP_TIMEOUT_S, WORK / "known-failure")
    try:
        failing = [r["id"] for r in json.loads(proc.stdout)["results"] if not r["passed"]]
    except (ValueError, KeyError):
        failing = ["<no report>"]
    return {"command": " ".join(["hermlab", *argv]), "exit_code": proc.code, "failing": failing}


def write_baseline(seconds: float) -> None:
    """Run every workload at the default seed, both modes, each as its own
    benchmark process exactly as a comparison would, and write the baseline."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, __file__, "--workload", workload, "--seed", str(DEFAULT_SEED),
                "--seconds", str(seconds), "--trace", str(trace),
            ]
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            result = json.loads((run_dir(workload, DEFAULT_SEED, trace) / "result.json").read_text())
            runs[f"{workload}/trace{trace}"] = result
            print(f"{workload} trace={trace}: {summary_line(result, declared_metrics(trace))}")
    baseline = {
        "seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "known_failures": [known_failures()],
        "runs": runs,
    }
    (BENCH_DIR / "baseline.json").write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="verify at n=1 and 200 Monte-Carlo samples")
    ap.add_argument("--baseline", action="store_true", help="write perfbench/baseline.json")
    args = ap.parse_args(argv)
    require_source()
    if args.baseline:
        write_baseline(args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for note in result["notes"]:
        print(f"note: {note}")
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    for name, m in sorted(result["metrics"].items()):
        print(f"{args.workload}  {name:42s} {m['value']:.6g} {m['unit']}")
    for name, value in sorted(result.get("raw_means", {}).items()):
        unit = "MB" if name == "peak_rss_mb" else "ratio" if name.endswith("_steal") else "s"
        print(f"{args.workload}  {'raw.' + name:42s} {value:.6g} {unit}")
    print(summary_line(result, declared_metrics(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
