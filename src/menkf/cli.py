"""Command-line interface.

Subcommands: simulate, train, evaluate, replicate-study, and
config print-defaults. All take a JSON run configuration (except
evaluate, which reads the trainer settings out of the checkpoint).
The run config is config.RunConfig, and its JSON shape is config.to_dict /
from_dict: unknown keys and mistyped values are rejected. The
MENKF_SEED environment variable, when set, overrides the configured seed.
Each numeric layer loads on first use (_lazy), so config commands, --help,
usage errors and refused run configs never load numpy.

Exit codes: 0 success; 1 usage, configuration, or input-format
errors; 2 runtime failures (numerical errors, I/O, out of memory).
Every refusal comes before a command's first write, and the output
directory is made at that write (storage's writers make the directory
of the file they write), so a refused run leaves nothing behind;
nor does a failed fit or evaluation, which train and evaluate finish
before they write. A failed write or an interrupt can leave partial output.

Every output file is deterministic given the configuration: rerunning
a command reproduces it byte for byte, with or without parallelism.
Wall-clock timings go to stderr only, for that reason.
"""

import argparse
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

from .config import RunConfig, TrainerSettings, load_run_config, study_preset, to_dict
from .exceptions import ConfigError, DataFormatError, MenkfError

# rng children of the root stream, one per pipeline stage
_RNG_BASE = 0
_RNG_REPLICATES = 1
_RNG_TRAIN = 2
_RNG_SPLIT = 3
_RNG_STUDY_TRAIN = 4


def _lazy(name: str):
    """menkf.<name>, registered as an imported submodule is but run only on
    its first attribute access."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# arms and enkf too: bench/trace_cli.py wraps functions only in the menkf
# modules present right after `import menkf.cli`
arms, enkf, numerics, simgen, storage, trainer, uq = map(
    _lazy, ("arms", "enkf", "numerics", "simgen", "storage", "trainer", "uq"))


# ----------------------------------------------------------------- commands

def _replicates(cfg: RunConfig):
    """The run's replicates, each drawn as it is used: simulate writes
    replicate j as rep_j.csv, and replicate-study fits it as replicate j."""
    root = numerics.RngStream(cfg.seed)
    base = simgen.gen_base_probs(cfg.sim, root.child(_RNG_BASE))
    return simgen.gen_replicates(cfg.sim, base, root.child(_RNG_REPLICATES))


def _fit(cfg: RunConfig, data: "simgen.Replicate", rng: "numerics.RngStream"):
    """cfg's trainer fit to data: (ensemble, trace, trainer config, batches per pass)."""
    mcfg = cfg.trainer.make_config(data.v_f.shape[1], data.v_g.shape[1])
    batches = trainer.make_batches(data.v_f, data.v_g, data.target_logits, mcfg.batch_size)
    ensemble, trace = trainer.fit(batches, mcfg, rng)
    return ensemble, trace, mcfg, len(batches)


def _evaluate_ensemble(ensemble, mcfg: "trainer.MenkfConfig", data) -> tuple[dict, tuple]:
    """The report and the (point, lo, hi, truth) arrays of one evaluation."""
    layout = mcfg.layout()
    point, lo, hi = uq.interval_arrays(ensemble, data.v_f, data.v_g, layout,
                                       mcfg.arm_f, mcfg.arm_g)
    truth = (data.true_prob if data.true_prob is not None
             else trainer.sigmoid(data.target_logits))
    report = uq.interval_adequacy(point, lo, hi, truth, ensemble, layout)
    return report.to_dict(), (point, lo, hi, truth)


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    files = {}
    for j, rep in enumerate(_replicates(cfg)):  # each replicate is written as it is drawn
        rel = f"replicates/rep_{j:03d}.csv"
        storage.write_dataset_csv(out / rel, rep)
        files[rel] = out / rel
    storage.write_manifest(out / "manifest.json", cfg.seed, cfg.sim.scenario, files)
    print(f"wrote {cfg.sim.replicates} replicate datasets under {out}")
    return 0


def cmd_train(cfg: RunConfig, dataset_path: str, out: Path) -> int:
    data = storage.read_dataset_csv(dataset_path)
    started = time.perf_counter()
    ensemble, trace, mcfg, n_batches = _fit(cfg, data,
                                            numerics.RngStream(cfg.seed).child(_RNG_TRAIN))
    elapsed = time.perf_counter() - started
    storage.save_checkpoint(out / "checkpoint.menkf", ensemble, mcfg)
    storage.write_rows_csv(out / "trace.csv", trace)
    weight_g = trace["weight_g"][-1]
    print(f"trained on {data.size} rows ({n_batches} batches); "
          f"final arm weights f={1.0 - weight_g:.4f} g={weight_g:.4f}, "
          f"noise var {trace['noise_var'][-1]:.4f}")
    print(f"[menkf] train took {elapsed:.2f}s", file=sys.stderr)
    return 0


def cmd_evaluate(checkpoint_path: str, dataset_path: str, out: Path) -> int:
    ensemble, mcfg = storage.load_checkpoint(checkpoint_path)
    data = storage.read_dataset_csv(dataset_path)
    for block, found, spec in (("emb_f_", data.v_f.shape[1], mcfg.arm_f),
                               ("emb_g_", data.v_g.shape[1], mcfg.arm_g)):
        if found != spec.input_dim:
            raise DataFormatError(f"{dataset_path}: {block}* block has {found} columns, "
                                  f"the checkpoint expects {spec.input_dim}")
    started = time.perf_counter()
    report, (point, lo, hi, truth) = _evaluate_ensemble(ensemble, mcfg, data)
    elapsed = time.perf_counter() - started
    storage.write_json(out / "report.json", report)
    storage.write_rows_csv(out / "intervals.csv", {"row": range(point.size), "point": point,
                                                   "lo": lo, "hi": hi, "width": hi - lo,
                                                   "true_prob": truth})
    print(f"coverage {report['coverage']:.4f}, avg width {report['avg_width']:.4f}, "
          f"mae {report['mae']:.4f}, arm f weight {report['arm_f_weight']:.4f} "
          f"on {report['n_test']} rows")
    print(f"[menkf] evaluate took {elapsed:.2f}s", file=sys.stderr)
    return 0


def run_study_replicate(j: int, rep: "simgen.Replicate", cfg: RunConfig) -> dict:
    """Split, train, and evaluate replicate j; deterministic in (j, cfg)."""
    root = numerics.RngStream(cfg.seed)
    train_part, test_part = simgen.split(rep, cfg.train_n, cfg.test_n,
                                         root.child(_RNG_SPLIT).child(j))
    ensemble, _, mcfg, _ = _fit(cfg, train_part, root.child(_RNG_STUDY_TRAIN).child(j))
    report, _ = _evaluate_ensemble(ensemble, mcfg, test_part)
    report["replicate"] = j
    return report


def _study_worker(args) -> tuple[int, dict | None, str | None]:
    j, rep, cfg = args
    try:
        return j, run_study_replicate(j, rep, cfg), None
    except MenkfError as err:
        return j, None, f"{type(err).__name__}: {err}"


def _in_order(pool, jobs, limit: int):
    """_study_worker's results of jobs, in their order, from a pool handed at
    most limit jobs at a time: the next job is drawn as a result arrives, so
    the parent holds at most limit replicates however many there are."""
    pending = []
    for job in jobs:
        pending.append(pool.submit(_study_worker, job))
        if len(pending) == limit:
            yield pending.pop(0).result()
    for future in pending:
        yield future.result()


def cmd_replicate_study(cfg: RunConfig, out: Path, parallel: bool) -> int:
    if cfg.train_n + cfg.test_n > cfg.sim.m:
        raise ConfigError(f"split.train_n + split.test_n = {cfg.train_n} + {cfg.test_n} "
                          f"exceeds sim.m = {cfg.sim.m} rows per replicate")
    started = time.perf_counter()
    jobs = ((j, rep, cfg) for j, rep in enumerate(_replicates(cfg)))
    workers = min(os.cpu_count() or 1, cfg.sim.replicates) if parallel else 1
    if workers > 1:  # a pool of one worker could only be slower than running here
        import concurrent.futures  # only --parallel pays for it (and for logging)
        from concurrent.futures.process import BrokenProcessPool
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                results = list(_in_order(pool, jobs, 2 * workers))
            except BrokenProcessPool:  # a worker killed, e.g. by the OOM killer
                print("menkf: replicate-study: a worker process ended abruptly; "
                      "no study written", file=sys.stderr)
                return 2
    else:
        results = [_study_worker(job) for job in jobs]

    rows = [row for _, row, err in results if err is None]
    failures = {str(j): err for j, _, err in results if err is not None}
    aggregates = _aggregate_study(rows)
    storage.write_json(out / "study.json",
                       {"config": to_dict(cfg), "aggregates": aggregates,
                        "failures": failures, "n_replicates": cfg.sim.replicates})
    storage.write_rows_csv(out / "study.csv", {name: [row[name] for row in rows]
                                               for name in ("replicate", *uq.STUDY_METRICS)})
    elapsed = time.perf_counter() - started
    if rows:
        print(f"study over {cfg.sim.replicates} replicates: "
              f"coverage {aggregates['coverage_pooled']:.4f} (pooled), "
              f"avg width {aggregates['width_mean']:.4f}, "
              f"arm f weight {aggregates['arm_f_weight_mean']:.4f}")
    else:
        print(f"study over {cfg.sim.replicates} replicates: no replicate succeeded")
    print(f"[menkf] replicate-study took {elapsed:.2f}s", file=sys.stderr)
    if failures:
        print(f"{len(failures)} replicate(s) failed: "
              f"{sorted(failures)}", file=sys.stderr)
        return 2
    return 0


def _aggregate_study(rows: list[dict]) -> dict:
    """The uq.STUDY_METRICS aggregates of the successful replicates' reports and
    n_rows; null (None) each when there are none, so study.json stays JSON."""
    import numpy as np  # here, not at the top, so that config commands never load it
    cols = {key: np.array([row[key] for row in rows]) for key in uq.STUDY_METRICS}
    return {**{f"{stem}_{suffix}": stat(cols[key], cols) if rows else None
               for key, (stem, stats) in uq.STUDY_METRICS.items()
               for suffix, stat in stats.items()}, "n_rows": len(rows)}


# --------------------------------------------------------------- entrypoint

_LINE_CHARS = 200  # a longer failure line is cut to this many characters, "..." last


def _failure(message) -> str:
    """The one line a failure prints to stderr, cut to _LINE_CHARS, so no
    echoed value, path or argument makes it long."""
    line = f"menkf: {message}"
    return line if len(line) <= _LINE_CHARS else line[:_LINE_CHARS - 3] + "..."


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, _failure(message) + "\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="menkf",
                     description="Ensemble Kalman trainer for two-arm surrogates")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate replicate datasets")
    sim.add_argument("--config", required=True)
    sim.add_argument("--output-dir", default=None)

    train = sub.add_parser("train", help="fit the ensemble on one dataset CSV")
    train.add_argument("--config", required=True)
    train.add_argument("--dataset", required=True)
    train.add_argument("--output-dir", default=None)

    ev = sub.add_parser("evaluate", help="prediction intervals from a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--output-dir", default=".")

    study = sub.add_parser("replicate-study",
                           help="simulate, train, and evaluate all replicates")
    study.add_argument("--config", required=True)
    study.add_argument("--output-dir", default=None)
    study.add_argument("--parallel", action="store_true")

    cfg = sub.add_parser("config", help="configuration helpers")
    cfg_sub = cfg.add_subparsers(dest="config_command", required=True)
    pd = cfg_sub.add_parser("print-defaults", help="print the default run config")
    pd.add_argument("--study", default=None, metavar="SCENARIO",
                    help="print the frozen study config for a scenario instead")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:  # a usage error (1) or --help (0)
        return int(err.code or 0)
    try:
        if args.command == "config":
            cfg = RunConfig() if args.study is None else study_preset(args.study)
            print(json.dumps(to_dict(cfg), indent=2, sort_keys=True))
            return 0
        if args.command == "evaluate":
            return cmd_evaluate(args.checkpoint, args.dataset, Path(args.output_dir))
        cfg = load_run_config(args.config)
        out = Path(args.output_dir or cfg.output_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, args.dataset, out)
        return cmd_replicate_study(cfg, out, args.parallel or cfg.parallel)
    except (ConfigError, DataFormatError) as err:
        print(_failure(err), file=sys.stderr)
        return 1
    except MenkfError as err:
        print(_failure(f"{type(err).__name__}: {err}"), file=sys.stderr)
        return 2
    except OSError as err:
        print(_failure(err), file=sys.stderr)
        return 2
    except MemoryError as err:
        print(_failure(f"out of memory: {err}"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
