"""Run one `menkf` command with spans around the public functions of each layer.

Usage: python3 trace_cli.py SPANS_JSON MENKF_ARG...

The wrappers are installed from outside the program: every module of the
`menkf` package that holds a target function, under its own name or an
imported one, gets the wrapper in its place. Spans are aggregated in memory
by function name and written to SPANS_JSON when the command returns:

    calls    number of calls
    incl_s   total wall time inside the function
    self_s   incl_s minus the time of wrapped calls made directly from it
    under    {caller name: calls made directly from that wrapped caller}
    work     a size summed over the calls, for the functions in WORK

The command's exit code is this process's exit code.
"""

import importlib
import json
import sys
import time

# Layer -> module -> public functions wrapped. A name the module no longer
# has is skipped, so its metrics read 0 rather than failing the run.
TARGETS = {
    "simgen": ("menkf.simgen", ("gen_base_probs", "gen_replicates", "split")),
    "storage": ("menkf.storage", ("read_dataset_csv", "write_dataset_csv",
                                  "write_rows_csv", "save_checkpoint",
                                  "load_checkpoint")),
    "trainer": ("menkf.trainer", ("fit", "train_step", "init_ensemble", "measure")),
    "arms": ("menkf.arms", ("forward_batch",)),
    "enkf": ("menkf.enkf", ("enkf_update", "member_perturbations")),
    "numerics": ("menkf.numerics", ("solve_spd", "empirical_quantile")),
    "uq": ("menkf.uq", ("predict", "adequacy", "coverage")),
}

# Work done per call, read from the result.
WORK = {
    "forward_batch": lambda out: int(out.shape[0] * out.shape[1]),  # members x rows
    "read_dataset_csv": lambda data: int(data.size),  # rows
}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []  # [name, start, time of direct wrapped children]

    def _entry(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "under": {}, "work": 0}
        return entry

    def wrap(self, name, func):
        stack = self.stack
        work = WORK.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[1]
                entry = self._entry(name)
                entry["calls"] += 1
                entry["incl_s"] += elapsed
                entry["self_s"] += elapsed - frame[2]
                if stack:
                    caller = stack[-1]
                    caller[2] += elapsed
                    entry["under"][caller[0]] = entry["under"].get(caller[0], 0) + 1
            if work is not None:
                entry["work"] += work(result)
            return result

        return traced

    def install(self):
        """Wrap every target in each menkf module that refers to it."""
        package_modules = [m for key, m in sys.modules.items()
                           if key == "menkf" or key.startswith("menkf.")]
        for module_name, names in TARGETS.values():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapped = self.wrap(name, original)
                for mod in package_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        numerics = importlib.import_module("menkf.numerics")
        stream = getattr(numerics, "RngStream", None)
        if stream is not None and hasattr(stream, "generator"):
            stream.generator = self.wrap("generator", stream.generator)


def main(argv):
    if len(argv) < 2:
        print("usage: trace_cli.py SPANS_JSON MENKF_ARG...", file=sys.stderr)
        return 2
    spans_path, menkf_args = argv[0], argv[1:]
    started = time.perf_counter()
    import menkf.cli
    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    rc = tracer.wrap("main", menkf.cli.main)(menkf_args)
    with open(spans_path, "w") as fh:
        json.dump({"rc": rc, "import_s": import_s, "spans": tracer.stats}, fh,
                  sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
