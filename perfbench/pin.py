"""Write ``pin.json``: the modeled statistics the benchmark's
correctness gate compares against.

Run from the repository root, only when a change to the program's
modeled semantics is intended::

    python3 perfbench/pin.py

It records, on the interpreter backend and with the benchmark's
pinned environment, the static instruction count of every
specialization of every module the benchmark compiles, and cycles,
instructions, warp-size histogram, yields and values restored of
every application run and every served launch shape.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile

    import run as bench

    with tempfile.TemporaryDirectory() as scratch:
        os.environ.update(bench.pinned_env(scratch))
        import harness
        import sets
        from repro import Device, ExecutionConfig
        from repro.workloads import get_workload

        pin = {"compile": {}, "apps": {}, "served": {}}
        for name in sets.ALL:
            workload = get_workload(name)
            device = Device(config=ExecutionConfig(backend="interpreter"))
            workload.prepare(device)
            device.warm()
            pin["compile"][name] = harness.instruction_counts(device)
            pin["apps"][name] = harness.signature(
                workload.execute(device).statistics
            )
        for stem, source in sets.served_modules().items():
            device = Device(config=ExecutionConfig(backend="interpreter"))
            device.register_module(source)
            device.warm()
            pin["compile"][stem] = harness.instruction_counts(device)
        device = Device(config=ExecutionConfig(backend="interpreter"))
        for source in sets.served_modules().values():
            device.register_module(source)
        device.warm()
        pin["served_compile"] = harness.instruction_counts(device)
        import numpy as np

        a = device.upload(np.zeros(sets.VECADD_N, np.float32))
        c = device.malloc(sets.VECADD_N * 4)
        out = device.malloc(sets.THROUGHPUT_THREADS * 4)
        args = {
            "vecAdd": [a, a, c, sets.VECADD_N],
            "throughput": [out, sets.THROUGHPUT_ITERS],
        }
        for kernel, shape in sets.LAUNCHES.items():
            launch = device.launch(shape.kernel, shape.grid, shape.block,
                                   args[kernel])
            pin["served"][kernel] = harness.signature(launch.statistics)
    path = os.path.join(HERE, "pin.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pin, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
