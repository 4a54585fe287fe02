"""Benchmark of the bibclass CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload classify-10x --seed 9731 --seconds 36 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``classify-10x``,
``sweep-1x`` and ``train-prose-10x``.  Inputs are generated from ``--seed``
with ``tests/synth.py``; the default seed is synth's own, at which replica
0 is the frozen benchmark corpus.

With ``--trace 0`` the CLI runs as a fresh ``python -m bibclass.cli``
process, one at a time, as often as fits in ``--seconds`` and at least
``Prepared.min_samples`` times.  Each run gets a fresh working directory, an
environment without ``BIBCLASS_CONFIG``, the absolute package directory
on ``PYTHONPATH`` and an explicit ``--workers``; its CPU time and peak
RSS come from ``os.wait4``, so pool workers are counted.  Every output
is compared byte for byte with the independent reference in
``reference.py``; a run that exits non-zero, times out or produces a
wrong output counts as failed.  Set-up time is a separate fresh process
that imports the package and runs the public loaders on the same inputs.

With ``--trace 1`` one in-process replay of the CLI's call sequence is
traced instead (``replay.py``) and the per-layer metrics are reported.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a full
report (provenance, input sizes, every run, output hashes), which is also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"

# Set-up is probed this often, after one untimed probe, and the median taken.
SETUP_PROBES = 5
UNITS = {"wall_s": "s", "records_per_s": "1/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Every run must finish well inside three minutes.
DEADLINE_S = 170.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import the checkout's package; the benchmark cannot run without it."""
    if not (SRC / "bibclass" / "__init__.py").is_file() or not (TESTS / "synth.py").is_file():
        _fail(f"no bibclass source tree or tests/synth.py under {ROOT}")
    sys.path.insert(0, str(SRC))
    import bibclass
    from bibclass import bayes, citegraph, cli, corpus, evalhub, textpipe

    package_dir = Path(bibclass.__file__).resolve().parent
    if package_dir != (SRC / "bibclass").resolve():
        _fail(f"imported bibclass from {package_dir}, not from {SRC}")
    return package_dir, types.SimpleNamespace(
        bayes=bayes, citegraph=citegraph, cli=cli, corpus=corpus, evalhub=evalhub,
        textpipe=textpipe,
    )


def _child_env(package_dir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BIBCLASS_CONFIG"}
    env["PYTHONPATH"] = str(package_dir.parent)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(argv: list[str], cwd: Path, env: dict[str, str], timeout: float) -> dict:
    """Run one process to completion; wall time, rusage and exit status."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(max(timeout, 0.1), _kill_group, args=(proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM or Ctrl-C): leave no process behind.
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Kill whatever of the group a killed run left behind (its pool workers).
    _kill_group(proc.pid)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def _stats(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256(package_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(str(path.relative_to(package_dir)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(package_dir: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(package_dir),
        "seed": seed,
    }


def attempt(command: list[str], env: dict[str, str], work: Path, timeout: float, prep=None):
    """Run one process in a fresh directory; with ``prep``, gate its output."""
    cwd = Path(tempfile.mkdtemp(prefix="run", dir=work))
    try:
        result = run_child(command, cwd, env, timeout)
        out = cwd / prep.output if prep else None
        produced = out.read_bytes() if out and out.is_file() else None
    finally:
        shutil.rmtree(cwd)
    if result["wall_s"] >= timeout:
        result["failure"] = "timed out"
    elif result["exit"] != 0:
        result["failure"] = f"exit {result['exit']}"
    else:
        result["failure"] = prep.gate(produced) if prep else None
    if prep:
        result["output_sha256"] = hashlib.sha256(produced).hexdigest() if produced else None
    return result


def timed_runs(prep, env: dict[str, str], seconds: float, deadline: float, work: Path):
    """Set-up probes, then CLI runs; returns (metrics, attempted, failed, report fields)."""

    def remaining() -> float:
        return deadline - time.perf_counter()

    probe = [sys.executable, str(HERE / "setup_probe.py"), *prep.probe_args]
    # The first probe also compiles the package's bytecode; it is not timed.
    probes = [dict(attempt(probe, env, work, remaining()), kind="setup")]
    while len(probes) <= SETUP_PROBES and remaining() > 0:
        probes.append(dict(attempt(probe, env, work, remaining()), kind="setup"))
    setup_walls = [p["wall_s"] for p in probes[1:] if p["failure"] is None]

    cli = [sys.executable, "-m", "bibclass.cli", *prep.argv]
    runs = []
    start = time.perf_counter()
    # At least one run, even past the deadline (it is then killed at once).
    # Past the minimum, a run starts only if a run of average length would
    # end within ``seconds``, so every timed run spans about the same time.
    while not runs or (
        (
            len(runs) < prep.min_samples
            or time.perf_counter() - start + statistics.mean(r["wall_s"] for r in runs)
            <= seconds
        )
        and remaining() > 0
    ):
        runs.append(dict(attempt(cli, env, work, remaining(), prep), kind="cli"))

    attempts = probes + runs
    good = [r for r in runs if r["failure"] is None] or runs
    walls = [r["wall_s"] for r in good]
    series = {
        "wall_s": walls,
        "records_per_s": [prep.records / w for w in walls],
        "setup_s": setup_walls or [p["wall_s"] for p in probes],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    metrics = {
        name: {"value": statistics.median(values), "unit": UNITS[name]}
        for name, values in series.items()
    }
    if prep.grid_points > 1:
        series["grid_points_per_s"] = [prep.grid_points / w for w in walls]
    failed = sum(1 for a in attempts if a["failure"] is not None)
    metrics["pass_ratio"] = {"value": (len(attempts) - failed) / len(attempts), "unit": "ratio"}
    report = {
        "stats": {name: _stats(values) for name, values in series.items()},
        "failed_ratio": failed / len(attempts),
        "attempts": attempts,
    }
    return metrics, len(attempts), failed, report


def traced_run(prep, bc, work: Path):
    """One traced in-process replay; returns (metrics, attempted, failed, report)."""
    from replay import LAYER_UNITS, replay

    try:
        tracer, values, out = replay(prep, bc, work)
    except Exception:
        # A program that raises is a failed attempt, reported, not a crash.
        failure = traceback.format_exc()
        metrics = {name: {"value": 0, "unit": unit} for name, unit in LAYER_UNITS.items()}
        return metrics, 1, 1, {"failure": failure}
    produced = out.read_bytes() if out.is_file() else None
    failure = prep.gate(produced)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{prep.name}-seed{prep.seed}.json"
    tracer.write(spans_path)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    report = {
        "failure": failure,
        "output_sha256": hashlib.sha256(produced).hexdigest() if produced else None,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, 1, int(failure is not None), report


def main(argv: list[str] | None = None) -> None:
    from workloads import PREPARE

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE))
    parser.add_argument("--seed", type=int, default=None, help="default: synth's frozen seed")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    package_dir, bc = _import_program()
    import inputs

    synth = inputs.load_synth(TESTS)
    seed = synth.SEED if args.seed is None else args.seed
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup_start = time.perf_counter()
        prep = PREPARE[args.workload](synth, SRC, seed, work / "inputs")
        prepare_s = time.perf_counter() - setup_start
        if args.trace:
            metrics, attempted, failed, details = traced_run(prep, bc, work)
        else:
            metrics, attempted, failed, details = timed_runs(
                prep, _child_env(package_dir), args.seconds, deadline, work
            )
        report = {
            "workload": prep.name,
            "trace": args.trace,
            "seconds": args.seconds,
            "provenance": _provenance(package_dir, seed),
            "inputs": dict(
                prep.sizes,
                generate_and_reference_s=prepare_s,
                sha256={k: inputs.sha256_file(p) for k, p in sorted(prep.paths.items())},
            ),
            "expected_output_sha256": hashlib.sha256(prep.expected).hexdigest(),
            **details,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{prep.name}-seed{seed}-trace{args.trace}"
    (RESULTS / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


if __name__ == "__main__":
    main()
