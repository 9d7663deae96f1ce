"""A walk split over forked processes against the walk in one process.

`scenario.evaluate_scenario` splits a large grid over the usable cores. The
walker count is forced here by replacing `scenario._usable_cores`, so each
test runs 1, 2 and 3 walkers whatever machine it runs on. A split walk must
print, exit and write byte for byte what the walk in one process does, raise
its errors at the same point, and leave no file and no process behind.
"""

import errno
import json
import os
import threading
from pathlib import Path

import pytest

import dlw.scenario
from dlw.cli import main
from dlw.errors import EvaluationError
from dlw.residual import GridSpec, fd_residual_dlw
from dlw.scenario import evaluate_grid, scenario_from_dict

WALKERS = (1, 2, 3)
GRID = {"x": [-3.0, 3.0, 21], "y": [-3.0, 3.0, 21], "t": [0.0, 1.0, 5]}  # 2,205 points
THREE_KERNELS = {
    "branch": "minus",
    "solution_path": "transform",
    "seed": {"kind": "kernels", "constant": 1.0, "kernels": [
        {"amplitude": 1.0, "a": "1 + 0.2*tanh(y)", "b": "0.3*y"},
        {"amplitude": 0.5, "a": "0.8 - 0.1*sech(y)", "b": "0.2*sin(y)"},
        {"amplitude": 1.5, "a": "0.7*exp(0.05*y)", "b": "0.4*cos(y)"},
    ]},
    "grid": GRID,
    "thresholds": {"max_residual": 1e-4},
}
EXACT = {
    "branch": "plus",
    "solution_path": "exact",
    "seed": {"kind": "kernels", "constant": 1.0,
             "kernels": [{"amplitude": 1.0, "a": "1 + 0.2*tanh(y)", "b": "0.3*y"}]},
    "grid": GRID,
}
# phi = (x - 0.3)^2 + 2t vanishes at t = 0, x = 0.3 only: one skipped point
# for each y, in the first two blocks of the walk
POLE = {
    "branch": "minus",
    "solution_path": "transform",
    "seed": {"kind": "poly",
             "poly": {"c2": "1 + 0.1*sin(y)", "c1": "-0.6*(1 + 0.1*sin(y))",
                      "c0": "0.09*(1 + 0.1*sin(y))"}},
    "grid": {"x": [-1.5, 1.5, 21], "y": [-2.0, 2.0, 21], "t": [0.0, 1.0, 5]},
}
DOCUMENTS = {
    "three-kernels": THREE_KERNELS,
    "exact": EXACT,
    "perturb-h": {**THREE_KERNELS, "debug": {"perturb_h": 1e-3}},
    "pole": POLE,
}
# the kernel exponent passes the float range from the y = 0.9 row on: the
# first failing point is number 273 of the walk, in block 1, a worker's block
OVERFLOW = {**EXACT, "solution_path": "transform", "seed": {
    "kind": "kernels", "constant": 1.0,
    "kernels": [{"amplitude": 1.0, "a": "1", "b": "exp(10*y)"}]}}


@pytest.fixture
def walkers(monkeypatch):
    """Set the usable core count, and count the workers forked."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def use(count):
        monkeypatch.setattr(dlw.scenario, "_usable_cores", lambda: count)
        forks.clear()
        return forks

    return use


def assert_no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run(tmp_path, capsys, monkeypatch, name, document):
    """main's exit code and output, and every file of a run of `document`
    in a directory of its own."""
    workdir = tmp_path / name
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    outputs = [{"format": "csv", "path": "out.csv"},
               {"format": "report", "path": "report.json"}]
    Path("scenario.json").write_text(json.dumps({**document, "outputs": outputs}))
    code = main(["run", "scenario.json"])
    out, err = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return code, out, err, files


@pytest.mark.parametrize("name", DOCUMENTS)
def test_a_split_walk_prints_and_writes_the_serial_walks_bytes(
    tmp_path, capsys, monkeypatch, walkers, name
):
    results = {}
    for count in WALKERS:
        forks = walkers(count)
        results[count] = run(tmp_path, capsys, monkeypatch, f"{name}-{count}", DOCUMENTS[name])
        assert len(forks) == count - 1
        assert_no_process_left()
    code, out, err, files = results[1]
    assert code == (1 if name == "perturb-h" else 0)
    assert sorted(files) == ["out.csv", "report.json", "scenario.json"]
    assert files["out.csv"].count(b"\n") == 1 + 2205
    skipped = json.loads(files["report.json"])["report"]["skipped"]
    assert skipped == (21 if name == "pole" else 0)
    for count in WALKERS[1:]:
        assert results[count] == results[1]


def test_a_direct_walk_records_every_sample_in_this_process(monkeypatch):
    # tools/ab.py --replay records a walk through evaluate_grid's sampler
    monkeypatch.setattr(dlw.scenario, "_usable_cores", lambda: 3)
    monkeypatch.delattr(os, "fork")  # a split walk would fail here
    sc = scenario_from_dict(THREE_KERNELS)
    sampler, phi_value = dlw.scenario.build_sampler(sc)
    samples = []

    def recorded(x, y, t):
        samples.append((x, y, t))
        return sampler(x, y, t)

    report = evaluate_grid(sc.grid, sc.stencil, fd_residual_dlw, recorded, phi_value)
    assert report.evaluated == sc.grid.size == 2205
    assert len(samples) == 2205 * 16  # 15 stencil samples and the centre


@pytest.mark.parametrize("count", WALKERS)
def test_an_error_in_a_workers_block_is_the_serial_walks_error(
    tmp_path, capsys, monkeypatch, walkers, count
):
    sc = scenario_from_dict(OVERFLOW)
    rows = []
    with pytest.raises(EvaluationError) as serial:
        evaluate_grid(sc.grid, sc.stencil, fd_residual_dlw,
                      *dlw.scenario.build_sampler(sc), rows.append)
    assert len(rows) == 273  # point 273 fails, in block 1
    forks = walkers(count)
    code, out, err, files = run(tmp_path, capsys, monkeypatch, "overflow", OVERFLOW)
    assert len(forks) == count - 1
    assert (code, out) == (2, "")
    assert err == f"error: field evaluation failed: config.{serial.value}\n"
    assert list(files) == ["scenario.json"]  # no output and no sibling
    assert_no_process_left()


class FullDisk:
    """A CSV file that takes `room` rows, then raises `error` on the next."""

    def __init__(self, handle, room, error):
        self.handle, self.room, self.error = handle, room, error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        if self.room == 0:
            raise self.error
        self.room -= 1
        return self.handle.write(text)


@pytest.mark.parametrize("count", WALKERS)
@pytest.mark.parametrize("error", (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                   KeyboardInterrupt()), ids=("OSError", "KeyboardInterrupt"))
def test_a_row_that_raises_mid_walk_leaves_no_file_and_no_process(
    tmp_path, capsys, monkeypatch, walkers, count, error
):
    real_open = Path.open

    def full_disk_open(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        # the header and 300 rows: the walk stops in block 1, a worker's block
        return handle if "w" not in mode else FullDisk(handle, 301, error)

    monkeypatch.setattr(Path, "open", full_disk_open)
    forks = walkers(count)
    if isinstance(error, OSError):
        code, out, err, files = run(tmp_path, capsys, monkeypatch, "full", THREE_KERNELS)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write out.csv: {error.strerror}\n"
    else:
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path, capsys, monkeypatch, "full", THREE_KERNELS)
    assert len(forks) == count - 1
    assert os.listdir(tmp_path / "full") == ["scenario.json"]
    assert_no_process_left()


def test_the_blocks_of_a_worker_that_dies_or_raises_are_walked_here():
    sc = scenario_from_dict(THREE_KERNELS)
    sampler, phi_value = dlw.scenario.build_sampler(sc)
    parent = os.getpid()

    def serial_rows():
        rows = []
        report = evaluate_grid(sc.grid, sc.stencil, fd_residual_dlw, sampler, phi_value,
                               rows.append)
        return report, rows

    def dying(x, y, t):  # a worker dies at its first point of the y = 0.9 row
        if y > 0.8 and os.getpid() != parent:
            os._exit(1)
        return sampler(x, y, t)

    def raising(x, y, t):  # only in a worker, so this process walks on
        if y > 0.8 and os.getpid() != parent:
            raise MemoryError
        return sampler(x, y, t)

    expected = serial_rows()
    for worker_sampler in (dying, raising):
        for count in (2, 3):
            rows = []
            report = evaluate_grid(sc.grid, sc.stencil, fd_residual_dlw, worker_sampler,
                                   phi_value, rows.append, count)
            assert (report, rows) == expected
            assert_no_process_left()


def test_the_blocks_of_a_worker_that_cannot_be_forked_are_walked_here(monkeypatch):
    # a process limit makes fork raise: the walk goes on with the walkers it has
    sc = scenario_from_dict(THREE_KERNELS)
    sampler, phi_value = dlw.scenario.build_sampler(sc)
    rows = []
    expected = evaluate_grid(sc.grid, sc.stencil, fd_residual_dlw, sampler, phi_value,
                             rows.append), rows
    fork = os.fork
    forks = []

    def second_fork_fails():
        if forks:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", second_fork_fails)
    rows = []
    report = evaluate_grid(sc.grid, sc.stencil, fd_residual_dlw, sampler, phi_value,
                           rows.append, 3)
    assert len(forks) == 1
    assert (report, rows) == expected
    assert_no_process_left()


def test_a_walk_stays_in_this_process_where_it_cannot_split(monkeypatch):
    monkeypatch.setattr(dlw.scenario, "_usable_cores", lambda: 3)
    size = GridSpec(*GRID.values()).size
    assert dlw.scenario._walkers(size) == 3
    # each walker takes at least MIN_SPLIT points: the benchmark's
    # closed_form walks (363 points at most) stay in one process
    assert dlw.scenario._walkers(2 * dlw.scenario.MIN_SPLIT - 1) == 1
    assert dlw.scenario._walkers(11 * 11 * 3) == 1
    # another thread would not run in a forked worker
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert dlw.scenario._walkers(size) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert dlw.scenario._walkers(size) == 3
    monkeypatch.delattr(os, "fork")
    assert dlw.scenario._walkers(size) == 1

