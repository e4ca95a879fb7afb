"""Benchmark of the menkf command line: three workloads, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload, both modes
    python3 bench/run.py --smoke                               # all workloads at small sizes

One run sets the workload up three times (its inputs: a config, CSVs, for
evaluate_large also a checkpoint), then repeats the workload's timed `menkf`
command until S seconds have passed, each repeat in a fresh process and a
fresh output directory. With --trace 0 it reports the end-to-end metrics:
medians over the set-ups (setup_s) and over the repeats (run_s, cpu_s,
peak_rss_mb). With --trace 1 every round runs the command once untraced and
once under trace_cli.py, and it reports the per-layer metrics as medians over
the traced repeats, with the last set-up traced for the setup.* metrics.

Every repeat's output files must be byte-identical to the first one's, and
the first one's must pass the workload's checks in checks.py. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

The program runs from src/ of this checkout, never from an installed copy:
each subprocess gets the absolute src/ first on PYTHONPATH, no inherited
MENKF_SEED, and BLAS_THREADS threads for BLAS and OpenMP.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_CLI = BENCH / "trace_cli.py"
WORK = BENCH / "out"

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Inputs per size. "full" is what the workloads measure; "smoke" only shows
# that every path runs and every check passes.
SIZES = {
    "full": {"replicates": 5, "hidden_rows": 1000, "eval_rows": 8000,
             "setups": 3, "min_rounds": 3},
    "smoke": {"replicates": 2, "hidden_rows": 320, "eval_rows": 400,
              "setups": 1, "min_rounds": 1},
}

# The well_specified study preset, written out in full so that a change of
# the library's defaults or presets cannot change a workload unnoticed.
STUDY_SIM = {"scenario": "well_specified", "m": 74, "p": 32, "q": 32,
             "perturb_sd": 0.01, "surrogate_sd": 0.05, "threshold": 0.5}
STUDY_TRAINER = {"ensemble_size": 216, "init_var": 16.0, "hidden_dims_f": [],
                 "hidden_dims_g": [], "activation": "identity", "batch_size": 11,
                 "passes_over_data": 3, "jitter_var": 0.01,
                 "variance_init": "gamma_shape_scale", "shuffle_batches": False}
STUDY_SPLIT = {"train_n": 66, "test_n": 8}
# The paper's ANN arms: one tanh hidden layer of 16 units per arm.
HIDDEN_TRAINER = {"ensemble_size": 216, "init_var": 0.1, "hidden_dims_f": [16],
                  "hidden_dims_g": [16], "activation": "tanh", "batch_size": 16,
                  "passes_over_data": 1, "jitter_var": 0.0,
                  "variance_init": "gaussian", "shuffle_batches": False}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ------------------------------------------------------------------ program

def menkf_env():
    env = {k: v for k, v in os.environ.items() if k != "MENKF_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def menkf(args, cwd, spans=None):
    """Run one menkf command; returns its exit code, times, memory and stdout.

    With spans set, the command runs under trace_cli.py, which writes its
    span statistics to that path.
    """
    if spans is None:
        cmd = [sys.executable, "-m", "menkf.cli", *args]
    else:
        cmd = [sys.executable, str(TRACE_CLI), str(spans), *args]
    log = Path(cwd) / ".stdout"
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=menkf_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        # wait4 reaps the child and returns its own CPU time and peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    stdout = log.read_text()
    log.unlink()
    return {"rc": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout,
            "args": args}


def checked(result):
    if result["rc"] != 0:
        raise BenchError(f"menkf {' '.join(result['args'])} exited {result['rc']}")
    return result


def write_config(path, seed, sim, trainer, split=STUDY_SPLIT):
    doc = {"seed": seed, "output_dir": "menkf-out", "parallel": False,
           "sim": sim, "trainer": trainer, "split": split}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def simulate(directory, seed, rows, trainer, spans):
    """A one-replicate dataset of `rows` rows from the study's generator."""
    config = directory / "config.json"
    write_config(config, seed, {**STUDY_SIM, "m": rows, "replicates": 1}, trainer)
    checked(menkf(["simulate", "--config", str(config), "--output-dir",
                   str(directory / "sim")], directory, spans and spans("simulate")))
    return config, directory / "sim" / "replicates" / "rep_000.csv"


# ---------------------------------------------------------------- workloads

class StudyWellSpecified:
    """`menkf replicate-study` on the well_specified preset, sequential."""

    def __init__(self, size):
        self.replicates = size["replicates"]

    def setup(self, directory, seed, spans):
        shown = checked(menkf(["config", "print-defaults", "--study", "well_specified"],
                              directory, spans and spans("print")))
        preset = json.loads(shown["stdout"])
        if preset["sim"]["scenario"] != "well_specified":
            raise BenchError("print-defaults --study well_specified printed another scenario")
        config = directory / "config.json"
        write_config(config, seed, {**STUDY_SIM, "replicates": self.replicates},
                     STUDY_TRAINER)
        return {"config": config}

    def command(self, inputs, out):
        return ["replicate-study", "--config", str(inputs["config"]), "--output-dir", str(out)]

    def check(self, inputs, out):
        return checks.check_study(out, self.replicates, STUDY_SPLIT["test_n"])


class TrainHidden:
    """`menkf train` with hidden-layer (tanh) arms on a synthetic CSV."""

    def __init__(self, size):
        self.rows = size["hidden_rows"]

    def setup(self, directory, seed, spans):
        config, dataset = simulate(directory, seed, self.rows, HIDDEN_TRAINER, spans)
        return {"config": config, "dataset": dataset}

    def command(self, inputs, out):
        return ["train", "--config", str(inputs["config"]),
                "--dataset", str(inputs["dataset"]), "--output-dir", str(out)]

    def check(self, inputs, out):
        steps = math.ceil(self.rows / HIDDEN_TRAINER["batch_size"]) \
            * HIDDEN_TRAINER["passes_over_data"]
        return checks.check_train(out, inputs["dataset"], steps)


class EvaluateLarge:
    """`menkf evaluate` of an affine checkpoint on a large test CSV.

    The set-up draws train_n + eval_rows rows from one base truth, trains
    the checkpoint on the first train_n rows with the study trainer, and
    keeps the rest as the test CSV.
    """

    def __init__(self, size):
        self.rows = size["eval_rows"]

    def setup(self, directory, seed, spans):
        train_n = STUDY_SPLIT["train_n"]
        config, dataset = simulate(directory, seed, train_n + self.rows,
                                   STUDY_TRAINER, spans)
        lines = dataset.read_text().splitlines(keepends=True)
        train_csv, test_csv = directory / "train.csv", directory / "test.csv"
        train_csv.write_text("".join(lines[:1 + train_n]))
        test_csv.write_text("".join(lines[:1] + lines[1 + train_n:]))
        checked(menkf(["train", "--config", str(config), "--dataset", str(train_csv),
                       "--output-dir", str(directory / "fit")],
                      directory, spans and spans("train")))
        return {"checkpoint": directory / "fit" / "checkpoint.menkf", "dataset": test_csv}

    def command(self, inputs, out):
        return ["evaluate", "--checkpoint", str(inputs["checkpoint"]),
                "--dataset", str(inputs["dataset"]), "--output-dir", str(out)]

    def check(self, inputs, out):
        return checks.check_evaluate(out, inputs["checkpoint"], inputs["dataset"])


WORKLOADS = {"study_well_specified": StudyWellSpecified, "train_hidden": TrainHidden,
             "evaluate_large": EvaluateLarge}


# ------------------------------------------------------------------ metrics

def merge_spans(paths):
    """Sum the span statistics of several traced commands."""
    merged, import_s = {}, 0.0
    for path in paths:
        doc = json.loads(Path(path).read_text())
        import_s += doc["import_s"]
        for name, entry in doc["spans"].items():
            into = merged.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                            "under": {}, "work": 0})
            for key in ("calls", "incl_s", "self_s", "work"):
                into[key] += entry[key]
            for caller, calls in entry["under"].items():
                into["under"][caller] = into["under"].get(caller, 0) + calls
    return merged, import_s


def layer_metrics(spans, import_s):
    """Per-layer metrics of one traced command, from its span statistics."""
    def get(name, key="incl_s"):
        return spans.get(name, {}).get(key, 0.0 if key.endswith("_s") else 0)

    def total(*names, key="incl_s"):
        return sum(get(name, key) for name in names)

    return {
        "cli.import_s": import_s,
        "cli.self_s": get("main", "self_s"),
        "simgen.generate_s": total("gen_base_probs", "gen_replicates", "split"),
        "storage.read_csv_s": get("read_dataset_csv"),
        "storage.read_csv_rows": get("read_dataset_csv", "work"),
        "storage.write_csv_s": total("write_dataset_csv", "write_rows_csv"),
        "storage.checkpoint_s": total("save_checkpoint", "load_checkpoint"),
        "trainer.fit_s": get("fit"),
        "trainer.self_s": total("fit", "train_step", "init_ensemble", "measure",
                                key="self_s"),
        "trainer.steps": get("train_step", "calls"),
        "arms.forward_s": get("forward_batch"),
        "arms.forward_calls": get("forward_batch", "calls"),
        "arms.member_rows": get("forward_batch", "work"),
        "enkf.update_s": get("enkf_update"),
        "enkf.self_s": get("enkf_update", "self_s"),
        "enkf.perturb_s": get("member_perturbations"),
        "enkf.perturb_streams": spans.get("generator", {}).get("under", {})
                                     .get("member_perturbations", 0),
        "numerics.solve_s": get("solve_spd"),
        "numerics.solves": get("solve_spd", "calls"),
        "numerics.quantile_calls": get("empirical_quantile", "calls"),
        "uq.predict_s": get("predict"),
        "uq.self_s": total("predict", "adequacy", "coverage", key="self_s"),
        "uq.adequacy_s": get("adequacy"),
    }


# Layer metrics that also describe the set-up, reported as setup.<name>.
SETUP_LAYERS = ("simgen.generate_s", "storage.write_csv_s", "trainer.fit_s")


# --------------------------------------------------------------------- runs

def run(name, seed, seconds, trace, size, work):
    """One benchmark run; returns (correct, attempted, failed, values, problems)."""
    workload = WORKLOADS[name](size)
    problems = []

    setup_times, setup_digests, inputs, setup_spans = [], [], None, []
    for k in range(size["setups"]):
        directory = work / f"setup_{k}"
        directory.mkdir(parents=True)
        spans = None
        if trace and k == size["setups"] - 1:
            def spans(tag, directory=directory):
                setup_spans.append(directory / f".spans_{tag}.json")
                return setup_spans[-1]
        started = time.perf_counter()
        made = workload.setup(directory, seed, spans)
        setup_times.append(time.perf_counter() - started)
        setup_digests.append({key: value for key, value in checks.tree_digest(directory).items()
                              if not key.startswith(".spans")})
        inputs = inputs or made
    if any(digest != setup_digests[0] for digest in setup_digests):
        problems.append("set-ups made different inputs from one seed")

    modes = [False, True] if trace else [False]
    samples = {False: [], True: []}
    layer_samples = []
    first = None
    failed = attempted = rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < size["min_rounds"] or time.perf_counter() < deadline:
        rounds += 1
        for traced in modes:
            out = work / f"run_{attempted}"
            spans = work / f".spans_run_{attempted}.json" if traced else None
            result = menkf(workload.command(inputs, out), work, spans)
            attempted += 1
            digest = checks.tree_digest(out) if out.is_dir() else None
            if first is None:
                first = out
                first_digest = digest
            else:
                shutil.rmtree(out, ignore_errors=True)
            if result["rc"] != 0 or digest != first_digest:
                failed += 1
                problems.append(f"repeat {attempted}: exit {result['rc']}"
                                + ("" if digest == first_digest else ", outputs differ"))
                continue
            samples[traced].append(result)
            if traced:
                layer_samples.append(layer_metrics(*merge_spans([spans])))

    try:
        problems += workload.check(inputs, first)
    except (OSError, KeyError, ValueError, IndexError) as err:
        problems.append(f"check could not read the outputs: {type(err).__name__}: {err}")

    untraced = samples[False]
    if not untraced or (trace and not layer_samples):
        raise BenchError("no repeat of the timed command succeeded: " + "; ".join(problems))
    if not trace:
        values = {"setup_s": statistics.median(setup_times),
                  "run_s": statistics.median(r["wall"] for r in untraced),
                  "cpu_s": statistics.median(r["cpu"] for r in untraced),
                  "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced)}
    else:
        values = {}
        for key in layer_samples[0]:
            series = [sample[key] for sample in layer_samples]
            if isinstance(series[0], int):
                if len(set(series)) != 1:
                    problems.append(f"{key} differs between repeats: {sorted(set(series))}")
                values[key] = series[0]
            else:
                values[key] = statistics.median(series)
        in_setup = layer_metrics(*merge_spans(setup_spans))
        values.update({f"setup.{key}": in_setup[key] for key in SETUP_LAYERS})
        # paired by round, so that drift of the machine's speed cancels
        values["trace.overhead_s"] = statistics.median(
            traced["wall"] - plain["wall"] for plain, traced in zip(untraced, samples[True]))
    return not problems, attempted, failed, values, problems


def metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine_facts():
    import numpy
    import scipy
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "blas": blas, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def result_line(name, seed, seconds, trace, size):
    """Run one workload in a scratch directory and build its result object."""
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        correct, attempted, failed, values, problems = run(name, seed, seconds, trace,
                                                           size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = metric_units(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"check failed: {name}: {problem}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in units.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at small sizes, both modes, one round each")
    args = parser.parse_args(argv)
    if not (SRC / "menkf" / "cli.py").is_file():
        print(f"bench: no menkf package under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        jobs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
        size, seconds = SIZES["smoke"], 0.0
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        traces = (0, 1) if args.workload == "all" else (args.trace,)
        jobs = [(name, trace) for name in names for trace in traces]
        size, seconds = SIZES["full"], args.seconds
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    ok = True
    for name, trace in jobs:
        try:
            line = result_line(name, args.seed, seconds, bool(trace), size)
        except BenchError as err:
            print(f"bench: {name}: {err}", file=sys.stderr)
            return 1
        ok = ok and line["correct"] and line["failed"] == 0
        if len(jobs) > 1:
            print(f"{name} trace={trace} " + json.dumps(line))
        else:
            for key, metric in line["metrics"].items():
                print(f"{key} {metric['value']:.6g} {metric['unit']}")
            print(json.dumps(line))
    return 0 if ok or len(jobs) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
