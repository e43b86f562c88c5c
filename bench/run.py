"""hypkob benchmark: CLI sessions on three workloads, timed and checked.

Usage::

    python3 bench/run.py --workload collar --seed 1 --seconds 30 --trace 0

A session is the workload's fixed sequence of ``hypkob`` commands, driven
in this process through ``hypkob.cli.main`` on inputs written from the
seed (see ``workloads.py``). With ``--trace 0`` the run first measures
set-up cold in fresh processes, then repeats whole sessions while the
next one still fits in ``--seconds``, checks every output, and reports
the end-to-end metrics as medians over its sessions. With ``--trace 1``
it runs one untraced and one traced session and reports per-layer
metrics. The last line of stdout is the JSON result.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

# (metric, unit, better); all seven are reported on every workload
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("session_s", "s", "lower"),
    ("dist_s", "s", "lower"),
    ("delta_s", "s", "lower"),
    ("qi_s", "s", "lower"),
    ("orbit_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


def _import_program():
    """hypkob from this checkout's ``src``, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "hypkob", "cli.py")):
        raise ImportError(f"no hypkob sources under {SRC}")
    sys.path.insert(0, SRC)
    from hypkob import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hypkob imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(config: str) -> float:
    """Median cold ``load_config`` + ``build_workspace`` over fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, probe, config], check=True,
                             capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S)
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Session:
    """Runs a workload's command sequence and checks its outputs."""

    def __init__(self, cli, wl):
        self.cli = cli
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.unexpected = []        # failures other than the known ones

    def run(self, recorder=None) -> dict:
        """One timed session; returns wall seconds per timer and in total."""
        wl = self.wl
        if wl.graph_cache and os.path.exists(wl.graph_cache):
            os.remove(wl.graph_cache)
        shutil.rmtree(os.path.join(os.path.dirname(wl.config), "out"),
                      ignore_errors=True)
        times = {"session_s": 0.0, "dist_s": 0.0, "delta_s": 0.0,
                 "qi_s": 0.0, "orbit_s": 0.0}
        codes = []
        sink = io.StringIO()
        t_start = time.perf_counter()
        for cmd in wl.commands:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                if recorder is None:
                    code = self.cli.main(cmd.argv)
                else:
                    with recorder.span("cli"):
                        code = self.cli.main(cmd.argv)
            if cmd.timer:
                times[cmd.timer] += time.perf_counter() - t0
            codes.append(code)
        times["session_s"] = time.perf_counter() - t_start
        for cmd, code in zip(wl.commands, codes):
            self._check(cmd, code)
        return times

    def _check(self, cmd, code: int) -> None:
        problems, row_problems = checks.check_command(self.wl, cmd, code)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.unexpected.append((cmd.name, problems))
        if cmd.name != "dist":
            return
        self.attempted += len(self.wl.rows)
        if problems:
            self.failed += len(self.wl.rows)
            return
        for i, msgs in sorted(row_problems.items()):
            self.failed += 1
            if self.wl.rows[i].kind != "near_centre":
                self.unexpected.append((f"dist row {i}", msgs))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, cli) -> dict:
    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.make_workload(args.workload, args.seed, run_dir)
        sess = Session(cli, wl)
        if args.trace:
            metrics = _traced(sess, args)
        else:
            metrics = _untraced(sess, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, msgs in sess.unexpected:
        print(f"FAILED {name}: {'; '.join(msgs)}", file=sys.stderr)
    return {"correct": not sess.unexpected, "attempted": sess.attempted,
            "failed": sess.failed, "metrics": metrics}


def _untraced(sess: Session, args) -> dict:
    setup_s = measure_setup(sess.wl.config)
    per_session = []
    t_start = time.perf_counter()
    while True:
        per_session.append(sess.run())
        elapsed = time.perf_counter() - t_start
        if elapsed + per_session[-1]["session_s"] > args.seconds:
            break
    values = {k: statistics.median(s[k] for s in per_session)
              for k in per_session[0]}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = _peak_rss_mb()
    print(f"{args.workload}: {len(per_session)} sessions, "
          f"{sess.attempted} operations, {sess.failed} failed")
    return {m: {"value": float(values[m]), "unit": u} for m, u, _ in END_TO_END}


def _traced(sess: Session, args) -> dict:
    untraced_s = sess.run()["session_s"]
    rec = spans.Recorder()
    with spans.traced(rec):
        traced_s = sess.run(recorder=rec)["session_s"]
    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, f"spans-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec.dump(), fh)
    print(f"{args.workload}: traced session {traced_s:.3f} s, untraced "
          f"{untraced_s:.3f} s; spans in {os.path.relpath(path, ROOT)}")
    return spans.layer_metrics(rec, traced_s, untraced_s)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result = run(args, cli)
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
