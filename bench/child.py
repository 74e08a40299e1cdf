"""Body of one benchmark child process.

    python3 bench/child.py <mode> <workload> <inputs.json> <out_dir> <stamps.json>

``mode`` is ``run`` (untraced) or ``trace`` (spans around every wrapped layer
function, written to ``trace.json`` beside the stamps). The child writes
``perf_counter`` stamps, which the parent compares with its own spawn time: on
Linux both read the same system-wide monotonic clock.
"""

import json
import sys
import time
from pathlib import Path

T_MAIN = time.perf_counter()


def main(mode, workload, inputs_path, out_dir, stamps_path) -> int:
    stamps = {"main": T_MAIN, "import0": time.perf_counter()}
    import hris_sim
    from hris_sim import battery, runner
    stamps["import1"] = time.perf_counter()

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer(run_id=f"{workload}:{out_dir}")
        tracer.install(hris_sim)

    def stamped(fn):
        def experiment(*args, **kwargs):
            stamps["run0"] = time.perf_counter()
            return fn(*args, **kwargs)
        return experiment

    rc = 0
    if workload == "sizing":
        with open(inputs_path) as fh:
            inputs = json.load(fh)
        dists = [battery.NetEnergyDist.gaussian(c["mean"], c["std"])
                 for c in inputs["cases"]]
        size_all = stamped(lambda: [
            battery.size_battery(d, c["deltas"], inputs["target_ploc"],
                                 inputs["gamma"], inputs["s_max"])
            for d, c in zip(dists, inputs["cases"])])
        results = size_all()
        with open(f"{out_dir}/sizing.json", "w") as fh:
            json.dump([None if r is None else list(r) for r in results], fh)
    else:
        from workloads import CLI_EXPERIMENTS
        experiment, _ = CLI_EXPERIMENTS[workload]
        name = f"run_{experiment}_experiment"
        # rebind before the CLI module imports it, as the tracer does
        setattr(runner, name, stamped(getattr(runner, name)))
        from hris_sim import cli
        rc = cli.main(["run", "--config", inputs_path, "--experiment",
                       experiment, "--out", out_dir, "--workers", "1"])
    stamps["run1"] = time.perf_counter()
    if tracer is not None:
        tracer.write(Path(stamps_path).with_name("trace.json"))
    with open(stamps_path, "w") as fh:
        json.dump(stamps, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
