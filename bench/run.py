"""Run one workload of the mosaic-lab benchmark and print its result.

    python3 bench/run.py --workload verify --seed 3 --seconds 20 --trace 0

Run from anywhere inside a source tree that has src/mosaic_lab and
tests/oracles.py; nothing needs installing.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; a fuller record goes to bench/out/BENCH_<workload>_seed<n>_trace<t>.json.
See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
LIBRARY = ("catalog", "lattice_core", "nakano", "hyperstructure", "equivalence", "io", "cli")

SETUP_REPEATS = 5
# every command runs at least MIN_PASSES times, and a run times at least
# MIN_SAMPLES commands, so that at least 10 timings lie beyond cmd_tail_ms
MIN_PASSES = 3
MIN_SAMPLES = 50
# The host of a shared machine can slow it by half or more, for seconds to
# minutes.  A fixed reference loop is therefore timed every PROBE_EVERY_S,
# and each timing is scaled by REFERENCE_S over the loop's mean time in the
# probes just before and just after it: it reads as seconds on a machine
# where that loop takes REFERENCE_S.
REFERENCE_S = 0.0025
PROBE_EVERY_S = 0.25
TAIL_PERCENTILE = 80
# a traced run makes a warm-up pass, then traced and untraced ones in turn
TRACED_MIN_PASSES = 3
STARTUP_PROBES = 5

# per-layer figures reported for each workload: the layers whose speed the
# workload's end-to-end figures depend on, without those it never calls
PER_LAYER = {
    "census": ("catalog.", "lattice_core."),
    "verify": ("nakano.", "hyperstructure."),
    "ortho": ("lattice_core.", "nakano.", "hyperstructure.", "equivalence."),
    "cli": ("catalog.", "lattice_core.", "nakano.", "equivalence.", "io."),
}
NOT_CALLED = {
    "census": ("lattice_core.om_equivalences_s",),
    "verify": (),
    "ortho": ("lattice_core.automorphisms_s", "lattice_core.modular_s",
              "lattice_core.modular_triples", "nakano.properties_s"),
    "cli": ("lattice_core.om_equivalences_s", "equivalence.polygroup_s",
            "equivalence.polygroup_checks", "equivalence.transfer_s", "equivalence.transfer_maps"),
}


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_paths():
    if not (ROOT / "src" / "mosaic_lab" / "__init__.py").is_file():
        _fail(f"no library source at {ROOT / 'src' / 'mosaic_lab'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        _fail(f"no oracles at {ROOT / 'tests' / 'oracles.py'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]


def fresh_library():
    """Import the library (and click) from scratch; the set-up cost a user pays."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("mosaic_lab", "click"):
            del sys.modules[name]
    ml = {name: importlib.import_module(f"mosaic_lab.{name}") for name in LIBRARY}
    if not Path(ml["cli"].__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"mosaic_lab was imported from {ml['cli'].__file__}, not from {ROOT / 'src'}")
    return argparse.Namespace(**ml)


def set_up(workload, seed: int):
    import corpus

    ml = fresh_library()
    return workload.setup(ml, corpus.load(), seed, OUT / "work")


class Measurement:
    """Whole passes over a fixed command list, timed command by command.

    With a tracer, odd-numbered passes run traced and even ones untraced, so
    that the two kinds see the same machine; pass 0 is then a warm-up, since
    a first pass runs slower than later ones.
    """

    def __init__(self, commands, seconds: float, min_passes: int, tracer=None, probe=None):
        from workloads import CommandError

        self.keys = [key for key, _ in commands]
        self.samples = {key: [] for key in self.keys}
        self.pass_s: list[float] = []
        self.pass_spans: list[tuple[int, int]] = []
        self.first = None
        self.differs = dict.fromkeys(self.keys, 0)
        start = perf_counter()
        while perf_counter() - start < seconds or self.passes < min_passes:
            traced = tracer is not None and self.passes % 2 == 1
            memo, outputs = {}, {}
            if traced:
                mark = len(tracer.spans)
                tracer.install()
            try:
                t0 = perf_counter()
                for key, fn in commands:
                    if probe is not None:
                        probe.tick()
                    c0 = perf_counter()
                    try:
                        out = fn(memo)
                    except Exception as exc:  # a failed operation, counted as such
                        out = CommandError(f"{type(exc).__name__}: {exc}")
                    self.samples[key].append((c0, perf_counter() - c0))
                    outputs[key] = out
                self.pass_s.append(perf_counter() - t0)
            finally:
                if traced:
                    tracer.uninstall()
                    self.pass_spans.append((mark, len(tracer.spans)))
            if self.first is None:
                self.first = outputs
            else:
                for key in self.keys:
                    self.differs[key] += outputs[key] != self.first[key]
        if probe is not None:
            probe.tick()
        for key, timed in self.samples.items():
            self.samples[key] = [probe.scaled(c0, d) if probe else d for c0, d in timed]

    @property
    def passes(self) -> int:
        return len(self.pass_s)

    @property
    def attempted(self) -> int:
        return self.passes * len(self.keys)

    def failed(self, problems: dict) -> int:
        """Commands whose first-pass output fails its check, in every pass,
        plus later outputs that differ from the first."""
        return sum(self.passes if key in problems else self.differs[key] for key in self.keys)

    def typical_s(self) -> list[float]:
        """Each command's median time over the passes, in ascending order."""
        return sorted(statistics.median(s) for s in self.samples.values())

    def cmd_p50_ms(self) -> float:
        return 1000 * statistics.median(self.typical_s())

    def cmd_tail_ms(self) -> float:
        """Nearest-rank TAIL_PERCENTILE of every command timing of the run."""
        ranked = sorted(t for s in self.samples.values() for t in s)
        return 1000 * ranked[math.ceil(TAIL_PERCENTILE / 100 * len(ranked)) - 1]


def reference_s() -> float:
    """Best of three runs of a fixed pure-Python loop that allocates small
    dicts, tuples and lists as the library does: how fast the machine runs
    just now (an interrupt can only make one run slower)."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(1500):
            d = {j: (j, i) for j in range(8)}
            acc += len([v for v in d.values() if v[0] & 1])
        best = min(best, perf_counter() - t0)
    return best


class SpeedProbe:
    """Reference-loop times through a run, with the moment each was taken."""

    def __init__(self):
        self.at: list[float] = []
        self.times: list[float] = []

    def tick(self):
        """Probe, if PROBE_EVERY_S has passed since the last probe."""
        if not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.times.append(reference_s())
            self.at.append(perf_counter())

    def scaled(self, start: float, seconds: float) -> float:
        """A timing that began at `start`, in reference-machine seconds."""
        before = bisect.bisect_right(self.at, start) - 1
        after = min(bisect.bisect_left(self.at, start + seconds), len(self.at) - 1)
        return seconds * REFERENCE_S / ((self.times[max(before, 0)] + self.times[after]) / 2)


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.tick()
        t0 = perf_counter()
        state = set_up(workload, seed)
        setups.append((t0, perf_counter() - t0))
    commands = workload.commands(state)
    m = Measurement(commands, seconds, max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(commands))),
                    probe=probe)
    setups = [probe.scaled(t0, d) for t0, d in setups]
    rss = peak_rss_mib(children=name == "cli")
    problems = workload.check(state, m.first)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (sum(m.typical_s()), "s"),
        "cmd_p50_ms": (m.cmd_p50_ms(), "ms"),
        "cmd_tail_ms": (m.cmd_tail_ms(), "ms"),
        "peak_rss_mib": (rss, "MiB"),
    }
    detail = {name: dict(_workload_record(m, problems), setup_s=setups, reference_s=probe.times)}
    return _result(detail, metrics)


def traced_run(seed: int, seconds: float) -> dict:
    """Every workload in-process, passes alternating traced and untraced:
    the per-layer figures of all four, so that each result line carries all
    of them."""
    from tracing import Tracer, layer_figures
    from workloads import WORKLOADS

    metrics, detail, spans_out = {}, {}, {}
    for name, workload in WORKLOADS.items():
        state = set_up(workload, seed)
        tracer = Tracer()
        m = Measurement(workload.commands(state, in_process=True), seconds / len(WORKLOADS),
                        TRACED_MIN_PASSES, tracer)
        detail[name] = _workload_record(m, workload.check(state, m.first))
        per_pass = [layer_figures(tracer.spans[a:b]) for a, b in m.pass_spans]
        for short in layer_figure_names(name):
            # counts are the same in every pass; median_low keeps them whole
            metrics[f"{name}.{short}"] = (statistics.median_low(p[short] for p in per_pass), unit_of(short))
        metrics[f"{name}.trace_overhead_s"] = (
            statistics.median(m.pass_s[1::2]) - statistics.median(m.pass_s[2::2]), "s")
        if name == "cli":
            metrics["cli.cli.command_ms"] = (
                1000 * statistics.median(min(v[2::2]) for v in m.samples.values()), "ms")
            metrics["cli.cli.startup_ms"] = (startup_ms(), "ms")
        spans_out[name] = [[key, parent, round(start, 7), round(end, 7)]
                           for key, parent, start, end, *_ in tracer.spans]
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"spans_seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(spans_out, fh)
    return _result(detail, metrics)


def startup_ms() -> float:
    """Best wall time of a fresh interpreter running `mosaic-lab --help`."""
    from workloads import child_env

    times = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-m", "mosaic_lab.cli", "--help"], cwd=ROOT,
                       env=child_env(ROOT), capture_output=True, check=True)
        times.append(perf_counter() - t0)
    return 1000 * min(times)


def layer_figure_names(workload: str) -> list[str]:
    """The tracing.METRICS figures reported for one workload."""
    from tracing import METRICS

    return [m for m in METRICS if m.startswith(PER_LAYER[workload]) and m not in NOT_CALLED[workload]]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every figure a traced run reports."""
    out = []
    for workload in PER_LAYER:
        out += [(f"{workload}.{m}", unit_of(m)) for m in layer_figure_names(workload)]
        out.append((f"{workload}.trace_overhead_s", "s"))
    return out + [("cli.cli.startup_ms", "ms"), ("cli.cli.command_ms", "ms")]


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "ms" if metric.endswith("_ms") else "count"


def _workload_record(m: Measurement, problems: dict) -> dict:
    return {
        "attempted": m.attempted,
        "failed": m.failed(problems),
        "passes": m.passes,
        "pass_s": m.pass_s,
        "command_ms": {k: [round(1000 * t, 3) for t in s] for k, s in m.samples.items()},
        "problems": {k: v for k, v in list(problems.items())[:20]},
        "nondeterministic": [k for k, v in m.differs.items() if v],
    }


def _result(detail: dict, metrics: dict) -> dict:
    attempted = sum(d["attempted"] for d in detail.values())
    failed = sum(d["failed"] for d in detail.values())
    return {
        "correct": not any(d["problems"] or d["nondeterministic"] for d in detail.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workloads": detail,
    }


def provenance(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("census", "verify", "ortho", "cli"))
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the relabeling of the verify and ortho inputs")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer figures from a traced run")
    args = parser.parse_args(argv)
    _prepare_paths()
    import checks, corpus, tracing, workloads  # noqa: F401  (outside the timed set-up)

    if args.trace:
        result = traced_run(args.seed, args.seconds)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    record = dict(provenance(args), **result)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
