"""The four workloads: their operations and the checks of their outputs.

Constructing a workload from the seed's manifest imports the package and
loads the field files: that is the work timed as set-up.  Its ``ops`` are
(name, fn) pairs run in order, round after round, by one client.  Each fn
returns (ok, output, fingerprint): ``ok`` is False when the op failed, the
fingerprint must repeat exactly in every round, and the first round's
outputs go to ``check``.  The program is called through the ``isocenter``
module at call time, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import speed

CLI_TIMEOUT_S = 120


class Workload:
    report_bytes = 0  # CLI output written; in-process workloads write none
    probe = staticmethod(speed.probe)  # scales the ops' latencies (perfbench/speed.py)

    def __init__(self, manifest, root: Path, work: Path):
        self.root = root
        self.work = work
        self.ops = []

    def start_trace(self, tracer):
        tracer.install()

    def trace_state(self, tracer) -> dict:
        return tracer.state()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- resonance_deep ---------------------------------------------------------

class ResonanceDeep(Workload):
    """The exact analyze pipeline, without the JSON report, on each field."""

    def __init__(self, manifest, root, work):
        super().__init__(manifest, root, work)
        import isocenter as iso

        self.entries = manifest["resonance_deep"]
        self.objs = {e["name"]: json.loads(Path(e["path"]).read_text()) for e in self.entries}

        def analyze(obj, L):
            f = iso.PlanarField.from_json_obj(obj)
            recon = iso.reconstruct(f)
            a = iso.decompose(f)
            series = iso.central_series(a, 3)
            words = iso.enumerate_resonant_words(a, L)
            verdict = iso.structural_linearisability(a, L)
            out = {"recon": recon, "alphabet": dict(a.entries), "nilpotent": series.nilpotent_order1,
                   "witness_pairs": [pair for pair, _ in series.witnesses],
                   "level_sizes": [len(level) for level in series.levels], "words": words,
                   "verdict": verdict}
            return True, out, (verdict, len(words), tuple(out["level_sizes"]))

        for e in self.entries:
            obj, L = self.objs[e["name"]], e["max_len"]
            self.ops.append((e["name"], lambda obj=obj, L=L: analyze(obj, L)))

    def check(self, outputs):
        import checks
        from isocenter import nested_bracket

        problems = []
        for e in self.entries:
            out = outputs.get(e["name"])
            if out is None:
                continue
            sample = [(w, nested_bracket(w, out["alphabet"])) for w in checks.sample_words(out["words"], e["name"])]
            problems += [f"{e['name']}: {p}" for p in checks.check_analysis(e, self.objs[e["name"]], out, sample)]
        return problems


def resonance_depth(manifest, budget_s: float, cap: int) -> tuple:
    """Longest L <= cap at which structural_linearisability on the fixed
    reference dense quartic finishes within budget_s (every shorter L too),
    with the seconds each finished L took."""
    import signal
    from time import perf_counter

    from isocenter import PlanarField, decompose, structural_linearisability

    class Late(Exception):
        pass

    def alarm(signum, frame):
        raise Late

    a = decompose(PlanarField.load(manifest["reference_quartic"]))
    previous = signal.signal(signal.SIGALRM, alarm)
    times = []
    try:
        for L in range(1, cap + 1):
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            t0 = perf_counter()
            try:
                structural_linearisability(a, L)
            except Late:
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(perf_counter() - t0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return len(times), times


# --- mould_sum --------------------------------------------------------------

class MouldSum(Workload):
    """One projection_sum(m, a, L) per op, over every alphabet's moulds."""

    def __init__(self, manifest, root, work):
        super().__init__(manifest, root, work)
        import isocenter as iso
        from isocenter import GaussianRational, Mould, PlanarField, decompose, indicator_mould, random_mould, table_mould

        def summed(m, a, L):
            d = iso.projection_sum(m, a, L)
            return True, d, d

        self.entries = manifest["mould_sum"]
        self.objs = {}
        self.moulds = {}
        for e in self.entries:
            obj = json.loads(Path(e["path"]).read_text())
            self.objs[e["name"]] = obj
            a = decompose(PlanarField.from_json_obj(obj))
            made = {}
            for mname, spec in e["moulds"].items():
                if spec["kind"] == "random":
                    made[mname] = random_mould(spec["seed"], support_resonant_only=spec["support"] == "resonant")
                elif spec["kind"] == "indicator":
                    made[mname] = indicator_mould(tuple(map(tuple, spec["word"])))
                elif spec["kind"] == "table":
                    made[mname] = table_mould({tuple(map(tuple, w)): GaussianRational.parse(v)
                                               for w, v in spec["entries"]})
            for mname, spec in e["moulds"].items():
                if spec["kind"] == "sum":
                    m1, m2 = (made[p] for p in spec["of"])
                    made[mname] = Mould(lambda w, m1=m1, m2=m2: m1.value(w) + m2.value(w))
            for mname in e["ops"]:
                self.ops.append((f"{e['name']}/{mname}", lambda m=made[mname], a=a, L=e["max_len"]: summed(m, a, L)))
            self.moulds[e["name"]] = made

    def check(self, outputs):
        import checks

        problems = []
        for e in self.entries:
            outs = {m: outputs[f"{e['name']}/{m}"] for m in e["ops"] if f"{e['name']}/{m}" in outputs}
            made = self.moulds[e["name"]]
            problems += checks.check_moulds(e, self.objs[e["name"]], outs,
                                            lambda mname, word: made[mname].value(word))
        return problems


# --- period_scan ------------------------------------------------------------

class PeriodScan(Workload):
    """One isochrony_scan per op at the default radii and tolerance."""

    def __init__(self, manifest, root, work):
        super().__init__(manifest, root, work)
        import isocenter as iso
        from isocenter.errors import NonPeriodicError

        self.entries = manifest["period_scan"]

        def scan(f):
            try:
                s = iso.isochrony_scan(f)
            except NonPeriodicError as exc:
                return False, str(exc), None
            return True, s, s.periods

        for e in self.entries:
            f = iso.PlanarField.load(e["path"])
            self.ops.append((e["name"], lambda f=f: scan(f)))

    def check(self, outputs):
        import checks

        problems = []
        for e in self.entries:
            if e["name"] in outputs:
                ref = outputs.get(e.get("mirror_of")) if "mirror_of" in e else None
                problems += checks.check_periods(e, outputs[e["name"]], ref)
        return problems


# --- cli_session ------------------------------------------------------------

class CliSession(Workload):
    """A fixed session of CLI invocations, each in a fresh interpreter.

    A round runs the short commands, verify-lemmas, the short commands
    again and verify-lemmas again.  The repeats must give the same bytes.
    Each is timed in a fresh interpreter, so the start-up probe scales it.
    """

    probe = staticmethod(speed.startup_probe)

    def __init__(self, manifest, root, work):
        super().__init__(manifest, root, work)
        import isocenter.cli  # noqa: F401  (what every invocation imports)

        session = manifest["cli_session"]
        files = {e["name"]: e for e in session["files"]}
        for e in files.values():
            json.loads(Path(e["path"]).read_text())  # every input is readable JSON
        cx = session["complexity"]
        short = [
            ("complexity", cx, ["complexity", "--condition", cx["condition"], "--degree", str(cx["degree"])]),
            ("classify", files["classify_quadratic"], ["classify", "--input", files["classify_quadratic"]["path"]]),
            ("analyze", files["analyze_cubic"], ["analyze", "--input", files["analyze_cubic"]["path"],
                                                  "--max-word-length", str(files["analyze_cubic"]["max_len"])]),
            ("scan-periods", files["scan_cr"], ["scan-periods", "--input", files["scan_cr"]["path"]]),
        ]
        lemmas = [("verify-lemmas", None, ["verify-lemmas", "--seed", "0"])]
        malformed = [(name, e, ["classify", "--input", e["path"]])
                     for name, e in files.items() if e["family"] == "malformed"]
        self.commands = short + lemmas + malformed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.trace_dir = None  # set to run each invocation under perfbench/clitrace.py
        self.traces = []
        self.child_rss_kb = 0
        for i, (name, entry, args) in enumerate(malformed + 2 * (short + lemmas)):
            self.ops.append((name, lambda i=i, name=name, args=args: self._run(i, name, args)))

    def _run(self, i, name, args):
        out_path, err_path = self.work / f"cli-{i}.out", self.work / f"cli-{i}.err"
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "isocenter.cli", *args, "--format", "json"]
        else:
            trace_file = self.trace_dir / f"trace-{len(self.traces)}.json"
            self.traces.append(trace_file)
            cmd = [sys.executable, str(Path(__file__).parent / "clitrace.py"), str(trace_file),
                   *args, "--format", "json"]
        returncode, rss_kb = run_child(cmd, self.env, self.root, out_path, err_path)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
        self.report_bytes += len(stdout)
        if name.startswith("malformed"):
            ok = malformed_handled(returncode, stderr)
            last = stderr.strip().splitlines()[-1] if stderr.strip() else "no message"
            return ok, None if ok else f"exit {returncode}: {last}", stdout
        if returncode != 0:
            return False, f"exit {returncode}: {stderr.strip()[-200:]}", stdout
        return True, stdout, stdout

    def start_trace(self, tracer):
        self.trace_dir = self.work / "cli-traces"
        self.trace_dir.mkdir(exist_ok=True)
        self.report_bytes = 0

    def trace_state(self, tracer) -> dict:
        import tracing

        return tracing.merge(json.loads(p.read_text()) for p in self.traces)

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb

    def check(self, outputs):
        import checks

        problems = []
        for name, entry, _ in self.commands:
            if name in outputs and not name.startswith("malformed"):
                field = json.loads(Path(entry["path"]).read_text()) if entry and "path" in entry else None
                problems += checks.check_cli(name, entry, json.loads(outputs[name]), field)
        return problems


def malformed_handled(returncode: int, stderr: str) -> bool:
    """A malformed input must end in exit code 1 with an error message and
    no traceback."""
    return returncode == 1 and "error:" in stderr and "Traceback" not in stderr


def run_child(cmd, env, cwd, out_path, err_path):
    """Run one process to its end; return its exit code and peak RSS in kB.

    The process is reaped with wait4 so that its own resource usage is
    read; a watchdog kills it after CLI_TIMEOUT_S.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


WORKLOADS = {
    "resonance_deep": ResonanceDeep,
    "mould_sum": MouldSum,
    "period_scan": PeriodScan,
    "cli_session": CliSession,
}
