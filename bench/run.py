"""The gridforge benchmark: CLI sessions on honeycomb workloads.

    python3 bench/run.py --workload hyp-tree --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; the package is not installed,
so every gridforge command runs as a fresh `python -m gridforge.cli`
child with PYTHONPATH=src.  Children run one at a time (a closed loop
with one client).  One session is, in order:

    build ID .. -o F; validate G; classify G; export G --format off -o O;
    stats HONEYCOMB

where G is F moved by a symmetry of the honeycomb drawn from --seed
(bench/seed_input.py), written once per run from the first build and not
timed.  Every output is checked against values fixed here from the
construction, and the exported OFF mesh is checked by an independent
parser.

--trace 0 times sessions untraced and reports the end-to-end metrics,
with every wall time scaled to a reference host speed (see REFERENCE_S).
--trace 1 alternates untraced sessions with sessions whose children run
under bench/traced.py, and reports per-layer metrics from the spans plus
the tracing overhead.  --smoke swaps in tiny instances so that the whole
run takes seconds.  The last line of standard output is one JSON object;
a record of the run goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from typing import NamedTuple

from traced import SPANNED, COUNTED, span_name

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
# A child still running this long after the run began is killed and
# fails, so that a run ends within 180 s even if the program hangs.
RUN_LIMIT_S = 165
# Set-up probes run between sessions, so that their median spans the run
# rather than one moment of it.
PROBES_PER_SESSION = 3
# The host's speed drifts by tens of percent within a minute, and wall
# times drift with it.  Fixed pure-Python work (reference_s) is timed after
# every child, and each child's wall time is scaled by REFERENCE_S over the
# mean of the timings within REFERENCE_WINDOW_S of it: to a host on which
# the work takes REFERENCE_S, its typical time on the 2-core VM of the
# seed-commit table in bench/README.md.
REFERENCE_ITEMS = 150_000
REFERENCE_S = 0.095
REFERENCE_WINDOW_S = 5.0
COMMANDS = ("build", "validate", "classify", "export", "stats")

END_TO_END = (
    ("setup_s", "s"), ("build_s", "s"), ("validate_s", "s"),
    ("classify_s", "s"), ("export_s", "s"), ("stats_s", "s"),
    ("squares_per_s", "squares/s"), ("peak_rss_mb", "MB"),
    ("json_bytes", "bytes"),
)
# error_rate is printed with the end-to-end metrics, but it is 0 on a
# correct program, so the JSON result carries it as attempted/failed.


class Workload(NamedTuple):
    build: tuple      # arguments of `gridforge build`
    ambient: str
    squares: int
    genus: int        # every workload builds a closed orientable surface
    stats: str        # honeycomb given to `gridforge stats`


# Square counts of `build tree-of-life --depth D` at the seed commit.
TREE_OF_LIFE_SQUARES = {2: 3166, 7: 28516}


def workload(name, smoke):
    if name == "hyp-tree":
        # a binary tree of 2^d - 1 pants pieces of 4 cubes: 16 * 2^d - 14
        # boundary squares
        d = 2 if smoke else 6
        return Workload(("hyp-tree", "--depth", str(d)), "{4,3,5}",
                        16 * 2 ** d - 14, 0, "{4,3,5}")
    if name == "lattice-tree":
        d = 2 if smoke else 7
        return Workload(("tree-of-life", "--depth", str(d)), "Z3",
                        TREE_OF_LIFE_SQUARES[d], 0, "{4,3,4}")
    if name == "h4-surface":
        # a straight row of n = 3 max(1, g) cubes has 4n + 2 boundary
        # squares; each handle glues on the 16-square torus of a 4-cube
        # ring, losing one square on each side
        g = 1 if smoke else 6
        return Workload(("h4-surface", "--genus", str(g)), "{4,3,3,5}",
                        12 * max(1, g) + 2 + 14 * g, g, "{4,3,3,5}")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("hyp-tree", "lattice-tree", "h4-surface")

# `gridforge stats` lines as catalogued in the README, whitespace aside.
# The two DIFF rows are the catalogue's own disagreements and must stay;
# no workload prints the {4,3,3,4} one.
STATS = {
    "{4,3,4}": ["{4,3,4} vertex: computed 6 12 8 | catalogued 6 12 8",
                "{4,3,4} edge: computed 4 4 | catalogued 4 4"],
    "{4,3,3,4}": [
        "{4,3,3,4} vertex: computed 8 24 32 16 | catalogued 8 24 32 16",
        "{4,3,3,4} edge: computed 6 12 8 | catalogued 6 32 16 DIFF",
        "{4,3,3,4} square: computed 4 4 | catalogued 4 4"],
    "{4,3,5}": ["{4,3,5} vertex: computed 12 30 20 | catalogued 12 30 20",
                "{4,3,5} edge: computed 5 5 | catalogued 5 5"],
    "{4,3,3,5}": [
        "{4,3,3,5} vertex: computed 120 720 1200 600 | catalogued "
        "120 720 1200 600",
        "{4,3,3,5} edge: computed 12 30 20 | catalogued 6 32 16 DIFF",
        "{4,3,3,5} square: computed 5 5 | catalogued 5 5"],
}


# Spans also counted per command, because a session mixes honeycombs: on
# lattice-tree only `stats {4,3,4}` multiplies matrices.
PER_COMMAND = {
    "coxeter._mat_mul": COMMANDS,
    "surface.square_cycles": ("validate", "classify", "export"),
}


def per_layer_metrics():
    """(name, unit) of every metric a traced run reports."""
    out = []
    for module, attr in SPANNED:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
    out += [(metric, "count") for _, _, metric in COUNTED]
    out += [
        ("coxeter.enumerate_parabolic.elements", "count"),
        ("coxeter.parabolic.reuse_ratio", "ratio"),
        ("coxeter.min_rep.products_per_call", "products/call"),
        ("formats.dumps_complex.bytes", "bytes"),
        ("cli.import_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    out += [(f"{name}.calls.{command}", "count")
            for name, commands in PER_COMMAND.items() for command in commands]
    return out


# ---------------------------------------------------------------- children

class Child(NamedTuple):
    code: int
    out: str
    err: str
    wall_s: float
    maxrss_mb: float
    at: float          # midpoint, in time.perf_counter() seconds


def _env():
    env = dict(os.environ)
    # children cache bytecode as an installed package would, whatever the
    # caller's setting; the first probe of a run writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


ENV = _env()


def run_child(argv, timeout=RUN_LIMIT_S):
    """Run one child to completion; wall time and peak RSS via wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=ENV, cwd=ROOT)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode("utf-8", "replace"),
                 b"".join(err).decode("utf-8", "replace"), wall,
                 usage.ru_maxrss / 1024.0, start + wall / 2)


def gridforge(args, spans=None):
    """argv of one gridforge command, traced into `spans` if given."""
    if spans is None:
        return [sys.executable, "-m", "gridforge.cli", *args]
    return [sys.executable, os.path.join(BENCH, "traced.py"), spans, "--",
            *args]


# ------------------------------------------------------------------ checks

def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_built(wl, path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if (not isinstance(doc, dict) or doc.get("format") != "gridded"
            or doc.get("ambient") != wl.ambient):
        return "build output is not a gridded complex in " + wl.ambient
    if len(doc.get("squares", ())) != wl.squares:
        return (f"build output has {len(doc.get('squares', ()))} squares, "
                f"expected {wl.squares}")
    return None


def _expect_lines(what, got, expected):
    got = [line.split() for line in got.splitlines()]
    if got != [line.split() for line in expected]:
        return f"{what} printed {got!r}, expected {expected!r}"
    return None


def expected_validate(wl):
    # a closed square surface has E = 2F, so V = chi + F
    chi = 2 - 2 * wl.genus
    return ["surface: yes", "closed: yes", f"vertices: {chi + wl.squares}",
            f"edges: {2 * wl.squares}", f"squares: {wl.squares}",
            f"euler characteristic: {chi}"]


def expected_classify(wl):
    return [f"orientable genus {wl.genus}", "components: 1",
            f"euler characteristic: {2 - 2 * wl.genus}", "orientable: yes",
            "boundary circles: 0", "closed: yes"]


# Vertices far out in the Klein ball print, at 12 decimals, up to about
# 1e-12 past the rim; a point past this tolerance is misplaced.
RIM_TOLERANCE = 1e-9


def check_off(wl, path):
    """Independent reading of the exported mesh: every edge in exactly two
    faces and V - E + F = 2 - 2g, with distinct, well-placed vertices."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        pos = 1
        if tokens[0] == "OFF":
            dim = 3
        elif tokens[0] == "nOFF":
            dim, pos = int(tokens[1]), 2
        else:
            return f"OFF header {tokens[0]!r}"
        nv, nf, ne = (int(t) for t in tokens[pos:pos + 3])
        pos += 3
        coords = [float(t) for t in tokens[pos:pos + nv * dim]]
        points = [tuple(coords[i:i + dim]) for i in range(0, len(coords), dim)]
        pos += nv * dim
        faces = []
        for _ in range(nf):
            k = int(tokens[pos])
            faces.append(tuple(int(t) for t in tokens[pos + 1:pos + 1 + k]))
            pos += 1 + k
    except (ValueError, IndexError) as exc:
        return f"OFF does not parse: {exc}"
    if pos != len(tokens) or len(points) != nv:
        return "OFF length disagrees with its header"
    want_dim = 4 if wl.ambient == "{4,3,3,5}" else 3
    if dim != want_dim or nf != wl.squares:
        return f"OFF has dimension {dim} and {nf} faces"
    edges = Counter()
    for f in faces:
        if len(f) != 4 or len(set(f)) != 4 or not all(0 <= i < nv for i in f):
            return f"OFF face {f} is not 4 distinct vertices"
        for i in range(4):
            edges[frozenset((f[i], f[i - 1]))] += 1
    if any(m != 2 for m in edges.values()):
        return "an OFF edge does not lie in exactly two faces"
    if ne != len(edges) or nv - len(edges) + nf != 2 - 2 * wl.genus:
        return (f"OFF counts V={nv} E={len(edges)} (header {ne}) F={nf} do "
                f"not give Euler characteristic {2 - 2 * wl.genus}")
    if len({i for f in faces for i in f}) != nv or len(set(points)) != nv:
        return "OFF vertices are unused or repeated"
    if wl.ambient.startswith("Z"):
        if any((2 * c) % 1 for p in points for c in p):
            return "lattice OFF vertex off the half-integer grid"
    elif any(sum(c * c for c in p) > 1 + RIM_TOLERANCE for p in points):
        return "Klein-ball OFF vertex outside the unit ball"
    return None


def check_command(wl, command, child, path=None):
    """None if the command exited 0 with the right output."""
    if child.code != 0:
        return (f"{command} exited {child.code}: "
                f"{child.err.strip()[-300:]}")
    if command == "build":
        return check_built(wl, path)
    if command == "validate":
        return _expect_lines(command, child.out, expected_validate(wl))
    if command == "classify":
        return _expect_lines(command, child.out, expected_classify(wl))
    if command == "export":
        return check_off(wl, path)
    return _expect_lines(command, child.out, STATS[wl.stats])


# ----------------------------------------------------------------- tracing

def aggregate_spans(doc, totals):
    """Add one traced command's spans to per-name calls / s / self_s."""
    names, spans = doc["names"], doc["spans"]
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    command = doc["argv"][0]
    for i, (name_id, parent, start, end) in enumerate(spans):
        name = names[name_id]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += end - start - covered[i]
        if command in PER_COMMAND.get(name, ()):
            totals[f"{name}.calls.{command}"] += 1
        if (name == "coxeter._mat_mul" and parent >= 0
                and names[spans[parent][0]] == "coxeter.CosetKey.min_rep"):
            totals["min_rep.products"] += 1
    for key, value in doc["counts"].items():
        totals[key] += value


def layer_values(totals):
    """Per-layer metrics of one traced session, from summed totals."""
    values = {name: float(totals.get(name, 0))
              for name, _ in per_layer_metrics()}
    calls = totals.get("coxeter.enumerate_parabolic.calls", 0)
    values["coxeter.parabolic.reuse_ratio"] = (
        1 - totals.get("coxeter.parabolic.distinct", 0) / calls
        if calls else 0.0)
    calls = totals.get("coxeter.CosetKey.min_rep.calls", 0)
    values["coxeter.min_rep.products_per_call"] = (
        totals.get("min_rep.products", 0) / calls if calls else 0.0)
    return values


# ------------------------------------------------------------------ a run

class Run:
    def __init__(self, wl, seed, work):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.builds = []
        self.built_sha = None
        self.input_sha = None
        self.untimed_s = 0.0   # writing the seeded input
        self.samples = {c: [] for c in COMMANDS}   # (at, wall) pairs
        self.session_rss = []
        self.session_s = {"untraced": [], "traced": []}
        self.layers = []
        self.probes = []        # (at, wall, import time)
        self.references = []    # (at, reference_s())
        self.path = {k: os.path.join(work, k) for k in
                     ("built.json", "input.json", "mesh.off")}
        self.began = time.perf_counter()
        self.stop_at = self.began + RUN_LIMIT_S

    def child(self, argv):
        """Run one child, then time the reference work."""
        child = run_child(argv, max(1.0, self.stop_at - time.perf_counter()))
        began = time.perf_counter()
        took = reference_s()
        self.references.append((began + took / 2, took))
        return child

    def scaled(self, at, wall):
        """A wall time taken at `at`, scaled to the reference host."""
        near = [took for t, took in self.references
                if abs(t - at) <= REFERENCE_WINDOW_S]
        return wall * REFERENCE_S / statistics.fmean(near)

    def _fail(self, problem):
        self.failed += 1
        self.failures.append(problem)

    def _op(self, command, child, path=None):
        """Count one operation; False if it failed its check."""
        self.attempted += 1
        try:
            problem = check_command(self.wl, command, child, path)
        except (OSError, ValueError, TypeError) as exc:
            problem = f"{command} output unreadable: {exc}"
        if problem:
            self._fail(problem)
        return problem is None

    def probe(self, keep=True):
        """One set-up probe; its wall and import times join the samples."""
        ambient = [] if self.wl.ambient.startswith("Z") else [self.wl.ambient]
        child = self.child([sys.executable, os.path.join(BENCH, "probe.py"),
                            *ambient])
        self.attempted += 1
        try:
            timings = json.loads(child.out)
        except ValueError:
            timings = None
        if child.code != 0 or not timings:
            self._fail(f"set-up probe exited {child.code}: "
                       f"{child.err.strip()[-300:]}")
        elif keep:
            self.probes.append((child.at, child.wall_s, timings["import_s"]))

    def seed_input(self):
        """Write the seeded input from the first build of the run."""
        child = self.child([sys.executable,
                            os.path.join(BENCH, "seed_input.py"),
                            self.path["built.json"], self.path["input.json"],
                            "--seed", str(self.seed)])
        self.attempted += 1
        if child.code != 0 or child.out.split() != [str(self.wl.squares)]:
            self._fail(f"seeded input failed ({child.code}): "
                       f"{child.err.strip()[-300:]}")
            return False
        self.input_sha = _sha256(self.path["input.json"])
        return True

    def session(self, traced):
        """One pass of the workload: its total wall time, or None when the
        build failed and there is nothing to go on with."""
        p = self.path
        steps = (
            ("build", [*self.wl.build, "-o", p["built.json"]],
             p["built.json"]),
            ("validate", [p["input.json"]], None),
            ("classify", [p["input.json"]], None),
            ("export", [p["input.json"], "--format", "off", "-o",
                        p["mesh.off"]], p["mesh.off"]),
            ("stats", [self.wl.stats], None),
        )
        totals = Counter()
        walls, rss = {}, 0.0
        for i, (command, args, path) in enumerate(steps):
            spans = os.path.join(self.work, f"spans{i}.json") if traced \
                else None
            child = self.child(gridforge([command, *args], spans))
            ok = self._op(command, child, path)
            walls[command] = (child.at, child.wall_s)
            rss = max(rss, child.maxrss_mb)
            if command == "build":
                if not ok:
                    return None
                self._record_build(p["built.json"])
                if self.input_sha is None:
                    began = time.perf_counter()
                    ok = self.seed_input()
                    self.untimed_s += time.perf_counter() - began
                    if not ok:
                        return None
            if ok and spans:
                try:
                    with open(spans, encoding="utf-8") as fh:
                        aggregate_spans(json.load(fh), totals)
                    os.remove(spans)
                except (OSError, ValueError) as exc:
                    self._fail(f"spans of {command}: {exc}")
        if traced:
            self.layers.append(layer_values(totals))
        else:
            for command, sample in walls.items():
                self.samples[command].append(sample)
            self.session_rss.append(rss)
        total = sum(wall for _, wall in walls.values())
        self.session_s["traced" if traced else "untraced"].append(total)
        return total

    def _record_build(self, path):
        sha = _sha256(path)
        size = os.path.getsize(path)
        if self.built_sha is None:
            self.built_sha = sha
        elif sha != self.built_sha:
            self._fail("build output differs from the first build of this "
                       "run")
        if not self.builds or self.builds[-1]["sha256"] != sha:
            self.builds.append({"squares": self.wl.squares, "bytes": size,
                                "sha256": sha})


def reference_s():
    """Wall time of fixed pure-Python work in this process: the host's
    speed at this moment, which the load average does not show.  Like
    gridforge, it builds tuples and counts them in a dict, with a working
    set of some megabytes, which a bare integer loop lacks."""
    start = time.perf_counter()
    items = [(i * 37 % 1000, i * 91 % 1000, i % 7)
             for i in range(REFERENCE_ITEMS)]
    counts = {}
    for a, b, c in items:
        key = (a * b + c, a - b)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """Highest of p50/p75/p90/p95/p99 with at least 10 samples above it."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    return best, statistics.quantiles(values, n=100)[best - 1]


def end_to_end(run):
    """Each end-to-end metric's value, and the samples behind it, with
    times scaled to the reference host."""
    times = {c: [run.scaled(*sample) for sample in run.samples[c]]
             for c in COMMANDS}
    pipeline = [sum(parts) for parts in zip(*(times[c] for c in COMMANDS[:4]))]
    series = {
        "setup_s": [run.scaled(at, wall) for at, wall, _ in run.probes],
        **{f"{c}_s": times[c] for c in COMMANDS},
        "squares_per_s": pipeline,
        "peak_rss_mb": run.session_rss,
        "json_bytes": [b["bytes"] for b in run.builds],
    }
    values = {name: float(median(v)) for name, v in series.items()}
    values["squares_per_s"] = (run.wl.squares / values["squares_per_s"]
                               if pipeline else 0.0)
    return values, series


def run_record(args, wl, run, loads, elapsed):
    revision = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            revision = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "build": ["build", *wl.build], "stats": wl.stats,
        "python": platform.python_version(), "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": loads[0], "loadavg_after": loads[1],
        "elapsed_s": elapsed, "attempted": run.attempted,
        "failures": run.failures, "builds": run.builds,
        "input_sha256": run.input_sha,
        # times since the run began, paired with wall times
        "setup_probes": [{"at": at - run.began, "wall_s": w, "import_s": i}
                         for at, w, i in run.probes],
        "samples_s": {c: [(at - run.began, w) for at, w in v]
                      for c, v in run.samples.items()},
        "session_s": run.session_s, "session_peak_rss_mb": run.session_rss,
        "reference_s": [(at - run.began, took)
                        for at, took in run.references],
    }


def measure(args, run):
    run.probe(keep=False)   # the first child compiles the bytecode
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if run.session(traced=False) is None:
            return
        if args.trace and run.session(traced=True) is None:
            return
        for _ in range(PROBES_PER_SESSION):
            run.probe()
        # stop once the next pass would end more than half of itself past
        # the deadline, so that runs measure --seconds on average
        now = time.perf_counter()
        if now + (now - began) / 2 > start + args.seconds + run.untimed_s:
            return


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Run from the root of a gridforge source checkout.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gridforge", "cli.py")):
        print(f"error: no gridforge sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    wl = workload(args.workload, args.smoke)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    run = Run(wl, args.seed, work)
    began = time.perf_counter()
    load_before = os.getloadavg()
    try:
        measure(args, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - began
    record = run_record(args, wl, run, (load_before, os.getloadavg()),
                        elapsed)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"build {' '.join(wl.build)}, stats {wl.stats}, "
          f"{wl.squares} squares")
    print(f"python {record['python']}, revision {record['git_revision']}, "
          f"nproc {record['nproc']}, loadavg {load_before[0]:.2f} -> "
          f"{record['loadavg_after'][0]:.2f}, {elapsed:.1f} s")
    for b in run.builds:
        print(f"build output: {b['squares']} squares, {b['bytes']} bytes, "
              f"sha256 {b['sha256']}")
    print(f"seeded input sha256 {run.input_sha}")
    took = [t for _, t in run.references]
    print(f"reference work: mean {statistics.fmean(took):.4f} s over "
          f"{len(took)} timings; times are scaled to a host where it takes "
          f"{REFERENCE_S} s")
    for failure in run.failures[:10]:
        print(f"FAILED: {failure}")

    failed = run.failed
    if args.trace:
        layers = {name: median([v[name] for v in run.layers])
                  for name, _ in per_layer_metrics()}
        layers["cli.import_s"] = median([i for _, _, i in run.probes])
        layers["trace.overhead_s"] = (median(run.session_s["traced"])
                                      - median(run.session_s["untraced"]))
        units = dict(per_layer_metrics())
        print(f"traced sessions: {len(run.layers)}")
        for name, _ in per_layer_metrics():
            print(f"{name:45s} {layers[name]:14.6g} {units[name]}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_metrics()}
        record["per_layer"] = layers
    else:
        values, series = end_to_end(run)
        for name, unit in END_TO_END:
            line = f"{name:14s} {values[name]:14.6g} {unit}"
            samples = series[name]
            if samples:
                line += f"   median of {len(samples)}"
                tail = tail_percentile(samples)
                if tail:
                    line += f", p{tail[0]} {tail[1]:.6g}"
            print(line)
        rate = failed / run.attempted if run.attempted else 1.0
        print(f"{'error_rate':14s} {rate:14.6g} ratio   "
              f"{failed} failed of {run.attempted} attempted")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        record["end_to_end"] = values
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
