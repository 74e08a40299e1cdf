"""Pin the outputs of the benchmark workloads for a range of seeds.

    python3 bench/record_golden.py --seeds 0-31 [--workload sizing ...]

Runs each workload once per seed, checks the outputs structurally (as an
unpinned run would) and stores the sha256 of every CSV, or the returned
sizings, in ``bench/golden.json``. Re-pin only when a change to the program is
meant to change its outputs, and say why in the change.
"""

import argparse
import json
import shutil

import run
import workloads


def record(workload: str, seed: int) -> object:
    work = run.WORK_DIR / f"golden-{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs_path = work / "inputs.json"
    inputs = workloads.make_inputs(workload, seed, run.ROOT, inputs_path)
    child = run.spawn("run", workload, inputs_path, work / "rep")
    check = run.OutputCheck(workload, inputs)
    problems = check.problems(child)
    if problems:
        raise SystemExit(f"{workload} seed {seed}: {problems}")
    shutil.rmtree(work)
    return check.reference


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-31")
    parser.add_argument("--workload", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    args = parser.parse_args()
    run.pin_parent()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    pinned = {w: {str(s): record(w, s) for s in seeds} for w in args.workload}
    golden = run.load_golden()
    for workload, by_seed in pinned.items():
        golden.setdefault(workload, {}).update(by_seed)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(seeds)} seeds of {', '.join(args.workload)} "
          f"in {run.GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
