"""The parallel runner of ``report.run_checks``: the calling process and
forked children take the checks from one pipe.  No test here starts more
than three processes."""

import os
import subprocess
import sys
import time

import pytest

from hermlab import report
from hermlab.errors import ResourceLimit
from hermlab.report import RunConfig, run_checks

CFG = RunConfig()


def passing(label, delay=0.0):
    def check(cfg):
        time.sleep(delay)
        return True, f"{label} at n={cfg.n}", {"label": label}

    return check


def raising(label, delay=0.0):
    def check(cfg):
        time.sleep(delay)
        raise ValueError(label)

    return check


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_exception_in_id_order_is_raised(monkeypatch, workers):
    # index 3 raises at once and index 1 after a pause, so the index-1
    # exception is not the first one raised in time
    checks = {"a": passing("a"), "b": raising("b", 0.1), "c": passing("c"), "d": raising("d")}
    monkeypatch.setattr(report, "CHECKS", checks)
    with pytest.raises(ValueError, match="^b$"):
        run_checks(list(checks), CFG, workers=workers)


def test_a_worker_that_dies_is_an_error_and_is_reaped(monkeypatch):
    parent = os.getpid()

    def dies_in_a_child(cfg):
        if os.getpid() != parent:
            os._exit(7)
        time.sleep(0.2)  # the child takes the next check meanwhile
        return True, "ran in the parent"

    monkeypatch.setattr(report, "CHECKS", dict.fromkeys("abc", dies_in_a_child))
    with pytest.raises(RuntimeError, match="exited with code 7"):
        run_checks(list("abc"), CFG, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_text_printed_before_the_fork_appears_once():
    # stdout is a pipe, so the text waits in the buffer when the workers fork
    code = (
        "from hermlab.report import RunConfig, run_checks\n"
        "print('before', end=' ')\n"
        "ids = ['norm-volume', 'parity-sign', 'height-phase', 'k1-cell-counts']\n"
        "print(run_checks(ids, RunConfig(), workers=3).passed)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "before True\n"


@pytest.mark.parametrize(
    "ids, workers",
    [(["c3", "c0", "c4", "c1", "c3"], 2), (["c3", "c0", "c4", "c1", "c3"], 3), (["c2", "c0"], 3)],
    ids=["2-workers", "3-workers", "more-workers-than-ids"],
)
def test_results_do_not_depend_on_the_worker_count(monkeypatch, ids, workers):
    # each check pauses, so that every worker takes some of them
    monkeypatch.setattr(report, "CHECKS", {f"c{i}": passing(f"c{i}", 0.02) for i in range(5)})
    serial = run_checks(ids, CFG, workers=1).results
    assert [r.check_id for r in serial] == ids
    assert run_checks(ids, CFG, workers=workers).results == serial


def test_the_caller_is_one_of_the_workers(monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(report, "CHECKS", {c: passing(c) for c in "abcd"})
    run_checks(list("abcd"), CFG, workers=3)
    assert forks == [os.getpid()] * 2


def test_more_checks_than_the_task_pipe_holds_are_refused_before_the_fork(monkeypatch):
    # 20,000 five-byte tokens exceed the 64 KiB a new Linux pipe holds
    monkeypatch.setattr(report, "CHECKS", {"a": passing("a")})
    with pytest.raises(ResourceLimit, match="20000 checks do not fit"):
        run_checks(["a"] * 20_000, CFG, workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
