"""Run one workload of the isocenter benchmark and print its metrics.

    python3 perfbench/run.py --workload resonance_deep --seed 1 --seconds 12 --trace 0

Run from the root of a checkout that holds src/isocenter.  The run makes
its field files from --seed (perfbench/fixtures.py), times the set-up in
fresh interpreters, then runs whole rounds of the workload's operations,
one after the other, until --seconds have passed, and checks the outputs
(perfbench/checks.py).  With --trace 1 the rounds run under the tracer
(perfbench/tracing.py) after as many untraced ones, and the per-layer metrics
are printed instead of the end-to-end ones.  Every reported time is scaled
to the reference host speed by the probes of perfbench/speed.py.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

import fixtures  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
IMPORT_PROBES = 3
DEPTH_BUDGET_S = 4.0
DEPTH_CAP = 10
TAIL_PERCENTILES = (99, 90, 75)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="isocenter benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_setup(args, manifest) -> None:
    """Fresh-interpreter side of the set-up timing: import and load, timed."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    workloads.WORKLOADS[args.workload](manifest, ROOT, WORK)
    print(perf_counter() - t0)


def fresh(cmd) -> tuple:
    """Run one fresh interpreter, which must succeed.  Return its wall
    seconds and the start-up probe taken just before it."""
    before = speed.startup_probe()
    t0 = perf_counter()
    code, _ = workloads.run_child(cmd, child_env(), ROOT, WORK / "probe.out", WORK / "probe.err")
    wall = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{cmd} exited {code}: {(WORK / 'probe.err').read_text()[-300:]}")
    return wall, before


def setup_time(args) -> float:
    """One set-up timing: import of the package and loading of the
    workload's fixtures, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    _, before = fresh(cmd)
    return speed.scale(float((WORK / "probe.out").read_text().split()[-1]), before, before)


def import_times() -> dict:
    """Fresh-interpreter start-up: bare, numverify and cli imports, minus bare."""
    med = {}
    for name, code in (("bare", "pass"), ("numverify", "import isocenter.numverify"),
                       ("cli", "import isocenter.cli")):
        med[name] = statistics.median(speed.scale(wall, before, before) for wall, before in
                                      (fresh([sys.executable, "-c", code]) for _ in range(IMPORT_PROBES)))
    return med


def run_rounds(wl, seconds: float, between=None) -> dict:
    """Whole rounds of the workload's ops until the rounds have taken
    ``seconds``.  ``between`` runs after each round, off the clock.

    The workload's speed probe runs before the first op and after every
    op, and each op's latency is scaled by the probes on either side."""
    lat, wall_lat, samples, faults, first, prints, repeats = [], [], {}, {}, {}, {}, set()
    attempted = failed = rounds = 0
    busy = clock = 0.0
    while not rounds or clock < seconds:
        round_start = perf_counter()
        before = wl.probe()
        for name, fn in wl.ops:
            t0 = perf_counter()
            ok, out, fingerprint = fn()
            wall = perf_counter() - t0
            after = wl.probe()
            dt = speed.scale(wall, before, after)
            before = after
            busy += wall
            attempted += 1
            samples.setdefault(name, []).append(dt)
            if not ok:
                failed += 1
                faults.setdefault(name, out)
                continue
            lat.append(dt)
            wall_lat.append(wall)
            if name not in prints:
                first[name], prints[name] = out, fingerprint
            elif prints[name] != fingerprint:
                repeats.add(name)
        rounds += 1
        clock += perf_counter() - round_start
        if between:
            between()
    op_s = {name: statistics.median(ts) for name, ts in samples.items()}
    return {"lat": lat, "wall_lat": wall_lat, "op_s": op_s, "total_s": sum(map(sum, samples.values())),
            "faults": faults, "first": first, "repeats": sorted(repeats), "attempted": attempted,
            "failed": failed, "rounds": rounds, "busy": busy}


def tail(lat):
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(lat) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(lat, n=100)[pct - 1] * 1000
    return None, None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isocenter" / "__init__.py").is_file():
        print(f"perfbench: no isocenter package under {SRC}", file=sys.stderr)
        return 2
    fixture_dir = WORK / f"fixtures-{args.seed}"
    if args.probe_setup:
        probe_setup(args, json.loads((fixture_dir / "manifest.json").read_text()))
        return 0
    WORK.mkdir(parents=True, exist_ok=True)
    manifest = fixtures.write_all(args.seed, fixture_dir)
    setup = []

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(setup_time(args))

    if not args.trace:
        probe()
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload](manifest, ROOT, WORK)

    tracer = None
    if args.trace:
        base = run_rounds(wl, args.seconds)
        tracer = tracing.Tracer()
        wl.start_trace(tracer)
    try:
        res = run_rounds(wl, args.seconds, between=None if args.trace else probe)
    finally:
        if tracer:
            tracer.uninstall()
    rss_kb = wl.peak_rss_kb()

    while not args.trace and len(setup) < SETUP_PROBES:
        probe()
    problems = [f"{name}: output differs between rounds" for name in res["repeats"]]
    problems += wl.check(res["first"])
    lat = res["lat"]
    pct, tail_ms = tail(lat)
    op_ms = {name: t * 1000 for name, t in res["op_s"].items() if name not in res["faults"]}
    detail = {"workload": args.workload, "seed": args.seed, "setup_samples_s": setup, "rounds": res["rounds"],
              "samples": len(lat), "busy_s": res["busy"], "op_tail_pct": pct, "op_tail_ms": tail_ms,
              "op_p50_ms_wall": statistics.median(res["wall_lat"]) * 1000 if lat else None,
              "median_ms_by_op": op_ms, "faults": res["faults"], "problems": problems}

    if args.trace:
        state = wl.trace_state(tracer)
        starts = import_times()
        extra = {"numverify.import_s": starts["numverify"] - starts["bare"],
                 "cli.import_s": starts["cli"] - starts["bare"],
                 "cli.report_bytes": wl.report_bytes / res["rounds"]}
        metrics = tracing.layer_metrics(state, res["rounds"], extra)
        (WORK / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(state["spans"]))
        untraced, traced = base["total_s"] / base["rounds"], res["total_s"] / res["rounds"]
        detail.update(trace_overhead=traced / untraced - 1, untraced_round_s=untraced, traced_round_s=traced,
                      startup_s=starts, self_s=dict(list(tracing.self_times(state).items())[:12]))
        if args.workload == "resonance_deep":
            depth, times = workloads.resonance_depth(manifest, DEPTH_BUDGET_S, DEPTH_CAP)
            detail.update(resonance_depth=depth, resonance_depth_times_s=times,
                          resonance_depth_budget_s=DEPTH_BUDGET_S, resonance_depth_cap=DEPTH_CAP)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(lat) / res["total_s"], "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1000 if lat else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": not problems, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
