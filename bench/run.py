"""hris-sim benchmark: run one workload in child processes, check every
output, print the metrics.

    python3 bench/run.py --workload sumrate-coverage --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json`` (medians over the repeats).
``--trace 1`` runs it once untraced and once traced, and reports the per-layer
metrics. ``--workload all`` runs every workload in turn. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files go to ``bench/.work/``.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
GOLDEN_PATH = BENCH_DIR / "golden.json"

# one BLAS thread in every process, so runs do not depend on the core count
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "HRIS_SIM_LOG": "WARNING"}
CHILD_TIMEOUT_S = 150


@dataclass
class Child:
    """One finished child process, timed from the parent."""

    rep_dir: Path
    wall: float  # seconds from spawn to exit
    rc: int
    rss_mb: float
    stamps: dict  # the child's perf_counter stamps
    t_spawn: float

    @property
    def setup_s(self) -> float:
        return self.stamps["run0"] - self.t_spawn

    @property
    def run_s(self) -> float:
        return self.stamps["run1"] - self.stamps["run0"]


def pin_parent() -> None:
    """Give this process the children's settings: its BLAS threads go into
    the environment record, and the sizing check calls the chain model."""
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))


def spawn(mode: str, workload: str, inputs_path: Path, rep_dir: Path) -> Child:
    """Run ``child.py`` to completion; wall time and peak RSS come from
    ``os.wait4``, the set-up/run split from the child's clock stamps."""
    out_dir = rep_dir / "out"
    out_dir.mkdir(parents=True)
    stamps_path = rep_dir / "stamps.json"
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, workload,
           str(inputs_path), str(out_dir), str(stamps_path)]
    with (rep_dir / "child.log").open("wb") as log:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t_spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamps = json.loads(stamps_path.read_text()) if stamps_path.exists() else {}
    return Child(rep_dir, wall, proc.returncode, usage.ru_maxrss / 1024.0,
                 stamps, t_spawn)


class OutputCheck:
    """Checks every repeat's outputs: against the outputs pinned for this
    seed if there are any, else against the first repeat. The first outputs
    are also checked on their own (headers, row counts, finite values; for
    sizing, the chain model), once."""

    def __init__(self, workload: str, inputs: dict, pinned=None):
        self.workload, self.inputs = workload, inputs
        self.reference = pinned  # CSV digests, or the sizing results
        self.against = "pinned outputs" if pinned is not None else "first repeat"
        self.verified = False

    def output_of(self, out_dir: Path):
        if self.workload == "sizing":
            path = out_dir / "sizing.json"
            return json.loads(path.read_text()) if path.exists() else None
        return workloads.csv_digests(out_dir)

    def problems(self, child: Child) -> list:
        if child.rc != 0:
            return [f"exit code {child.rc}"]
        if not {"run0", "run1"} <= set(child.stamps):
            return ["child wrote no timing stamps"]
        out_dir = child.rep_dir / "out"
        output = self.output_of(out_dir)
        if self.reference is not None and output != self.reference:
            return [f"outputs differ from the {self.against}"]
        if not self.verified:
            found = (workloads.check_sizing(self.inputs, output)
                     if self.workload == "sizing"
                     else workloads.check_csvs(self.workload, self.inputs, out_dir))
            if found:
                return found
            self.verified = True
            self.reference = output
        return []


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                threads[Path(path).name] = getattr(lib, sym)()
                break
    return threads


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_env": {k: v for k, v in PINNED_ENV.items() if "THREADS" in k},
            "git_commit": _git_commit(), "seed": seed}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one workload; returns the result object plus its details."""
    work = WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' * smoke}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs_path = work / "inputs.json"
    inputs = workloads.make_inputs(workload, seed, ROOT, inputs_path, smoke)
    pinned = None if smoke else load_golden().get(workload, {}).get(str(seed))
    check = OutputCheck(workload, inputs, pinned)

    attempted = failed = 0
    spawned = itertools.count()
    problems = []
    full = []
    deadline = time.perf_counter() + seconds

    def run_once(mode):
        """One checked run of the workload ("run" or "trace")."""
        nonlocal attempted, failed
        rep_dir = work / f"{next(spawned)}-{mode}"
        child = spawn(mode, workload, inputs_path, rep_dir)
        attempted += 1
        found = check.problems(child)
        if found:
            failed += 1
            problems.extend(f"{rep_dir.name}: {p}" for p in found)
        else:
            shutil.rmtree(rep_dir / "out")  # keep stamps and logs only
        return child, not found

    if trace:
        untraced, ok_u = run_once("run")
        traced, ok_t = run_once("trace")
        if not (ok_u and ok_t):
            return _result(workload, seed, attempted, failed, problems, None)
        import tracing
        trace_file = traced.rep_dir / "trace.json"
        layer = tracing.summarize(json.loads(trace_file.read_text()),
                                  (traced.stamps["run0"], traced.stamps["run1"]))
        layer["setup.import_s"] = traced.stamps["import1"] - traced.stamps["import0"]
        layer["trace.overhead_s"] = traced.wall - untraced.wall
        layer["trace.wall_s"] = traced.wall
        shutil.move(trace_file, work / "trace.json")
        return _result(workload, seed, attempted, failed, problems, layer,
                       kind="per_layer")

    while True:
        child, ok = run_once("run")
        if ok:
            full.append(child)
        walls = [c.wall for c in full] or [child.wall]
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    if not full:
        return _result(workload, seed, attempted, failed, problems, None)
    samples = {"wall_s": [c.wall for c in full],
               "setup_s": [c.setup_s for c in full],
               "run_s": [c.run_s for c in full],
               "peak_rss_mb": [c.rss_mb for c in full]}
    e2e = {k: statistics.median(v) for k, v in samples.items()}
    return _result(workload, seed, attempted, failed, problems, e2e,
                   kind="end_to_end", **samples)


def _result(workload, seed, attempted, failed, problems, values, kind=None,
            **details) -> dict:
    return {"workload": workload, "seed": seed, "kind": kind,
            "correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "values": values, "problems": problems,
            "details": details}


def select_metrics(result: dict, spec: dict) -> dict:
    """The metrics of ``BENCHMARK.json`` for the result's kind, with units."""
    return {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
            for m in spec[result["kind"]]}


def report(result: dict, spec: dict, seconds) -> dict:
    """Print the human-readable lines; return the metrics object."""
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"seconds {seconds} {result['kind'] or 'no result'} {result['details']}")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    if result["values"] is None:
        return {}
    metrics = select_metrics(result, spec)
    for name, m in metrics.items():
        print(f"{result['workload']:>18} {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{result['workload']:>18} {'failed_frac':<44} "
          f"{result['failed'] / max(result['attempted'], 1):>16.6g} share "
          f"({result['failed']} of {result['attempted']} runs)")
    if result["kind"] == "per_layer":
        self_times = sorted(((v, k) for k, v in result["values"].items()
                             if k.endswith(".self_s")), reverse=True)
        print(f"# largest self times: "
              + ", ".join(f"{k[:-7]} {v:.3g} s" for v, k in self_times[:5]))
    extra = sorted(set(result["values"]) - set(metrics))
    for name in extra:
        print(f"{result['workload']:>18} {name:<44} {result['values'][name]:>16.6g}")
    return metrics


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hris_sim" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: hris-sim sources (src/hris_sim) or BENCHMARK.json "
              f"not found under {ROOT}", file=sys.stderr)
        return 2
    pin_parent()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed)
    print(json.dumps({"env": env}))
    results = [measure(w, args.seed, args.seconds, bool(args.trace))
               for w in (names if args.workload == "all" else [args.workload])]
    combined, missing = {}, []
    for result in results:
        metrics = report(result, spec, args.seconds)
        if result["values"] is None:
            missing.append(result["workload"])
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": combined}
    (WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"env": env, "results": results, "line": line},
                             indent=1, default=str) + "\n")
    print(json.dumps(line))
    if missing:
        print(f"error: no successful run of {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
