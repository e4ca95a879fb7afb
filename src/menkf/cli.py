"""Command-line interface.

Subcommands: simulate, train, evaluate, replicate-study, and
config print-defaults. All take a JSON run configuration (except
evaluate, which reads the trainer settings out of the checkpoint).
The config's JSON shape is that of RunConfig (storage.to_dict /
from_dict): unknown keys and mistyped values are rejected. The
MENKF_SEED environment variable, when set, overrides the configured seed.

Exit codes: 0 success; 1 usage, configuration, or input-format
errors; 2 runtime failures (numerical errors, I/O, out of memory).

Every output file is deterministic given the configuration: rerunning
a command reproduces it byte for byte, with or without parallelism.
Wall-clock timings go to stderr only, for that reason.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arms import ArmSpec
from .exceptions import ConfigError, DataFormatError, InvalidInputError, MenkfError
from .numerics import RngStream
from .simgen import SCENARIOS, Replicate, SimConfig, gen_base_probs, gen_replicates, split
from .storage import (_plain, from_dict, load_checkpoint, read_dataset_csv, read_json,
                      save_checkpoint, to_dict, write_dataset_csv, write_json,
                      write_manifest, write_rows_csv)
from .trainer import MenkfConfig, fit, make_batches, sigmoid

# rng children of the root stream, one per pipeline stage
_RNG_BASE = 0
_RNG_REPLICATES = 1
_RNG_TRAIN = 2
_RNG_SPLIT = 3
_RNG_STUDY_TRAIN = 4


@dataclass(frozen=True)
class TrainerSettings:
    """Trainer section of the run config; arm input widths come from data.

    The default arms are affine: with a symmetric zero-mean ensemble,
    hidden-layer weights carry no covariance with the prediction, so
    their Kalman updates would be pure sampling noise. Affine arms make
    every coordinate identified. The small weight jitter keeps ensemble
    spread honest across repeated passes. Hidden arms stay available
    through hidden_dims_f / hidden_dims_g.
    """

    ensemble_size: int = 216
    init_var: float = 16.0
    hidden_dims_f: tuple[int, ...] = ()
    hidden_dims_g: tuple[int, ...] = ()
    activation: str = "identity"
    batch_size: int = 11
    passes_over_data: int = 3
    jitter_var: float = 0.01
    variance_init: str = "gamma_shape_scale"
    shuffle_batches: bool = False

    def __post_init__(self):
        self.make_config(1, 1)  # the trainer's own checks, at load time

    def make_config(self, p: int, q: int) -> MenkfConfig:
        own = {f.name for f in dataclasses.fields(self)}
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(MenkfConfig)
                  if f.name in own}
        return MenkfConfig(arm_f=ArmSpec(p, self.hidden_dims_f, self.activation),
                           arm_g=ArmSpec(q, self.hidden_dims_g, self.activation),
                           **shared)


@dataclass(frozen=True)
class SplitSettings:
    """Rows per replicate for training and for testing."""

    train_n: int = 66
    test_n: int = 8

    def __post_init__(self):
        for name in ("train_n", "test_n"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    """The whole run config; its JSON form is storage.to_dict(cfg)."""

    seed: int = 0
    output_dir: str = "menkf-out"
    parallel: bool = False
    sim: SimConfig = SimConfig()
    trainer: TrainerSettings = TrainerSettings()
    split: SplitSettings = SplitSettings()

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:  # RngStream reads a seed modulo 2**64
            raise InvalidInputError(f"seed must be in [0, 2**64 - 1], got {self.seed}")

    @property
    def train_n(self) -> int:
        return self.split.train_n

    @property
    def test_n(self) -> int:
        return self.split.test_n


def study_preset(scenario: str) -> RunConfig:
    """Frozen run configuration for one scenario's replicate study.

    The default trainer, except that the stacked scenario uses a larger,
    tighter-prior ensemble and more passes so the arm weight settles by
    fit quality rather than by initialization luck.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of {list(SCENARIOS)}")
    trainer = TrainerSettings()
    if scenario == "stacked_average":
        trainer = dataclasses.replace(trainer, ensemble_size=433, init_var=2.0,
                                      passes_over_data=5)
    return RunConfig(sim=SimConfig(scenario=scenario), trainer=trainer)


def load_run_config(path) -> RunConfig:
    cfg = from_dict(RunConfig, read_json(path))
    env_seed = os.environ.get("MENKF_SEED")
    if env_seed is not None:
        try:
            if not _plain(env_seed):  # int() strips padding, reads "4_1" and non-ASCII digits
                raise ValueError(env_seed)
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"MENKF_SEED={env_seed!r} is not an integer") from None
        try:
            cfg = dataclasses.replace(cfg, seed=seed)
        except InvalidInputError as err:
            raise ConfigError(f"MENKF_SEED: {err}") from None
    return cfg


# ----------------------------------------------------------------- commands

def cmd_simulate(cfg: RunConfig, output_dir: str | None = None) -> int:
    out = Path(output_dir or cfg.output_dir)
    (out / "replicates").mkdir(parents=True, exist_ok=True)
    root = RngStream(cfg.seed)
    base = gen_base_probs(cfg.sim, root.child(_RNG_BASE))
    reps = gen_replicates(cfg.sim, base, root.child(_RNG_REPLICATES))
    files = {}
    for j, rep in enumerate(reps):
        rel = f"replicates/rep_{j:03d}.csv"
        write_dataset_csv(out / rel, rep)
        files[rel] = out / rel
    write_manifest(out / "manifest.json", cfg.seed, cfg.sim.scenario, files)
    print(f"wrote {len(reps)} replicate datasets under {out}")
    return 0


def cmd_train(cfg: RunConfig, dataset_path: str, output_dir: str | None = None) -> int:
    out = Path(output_dir or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = read_dataset_csv(dataset_path)
    mcfg = cfg.trainer.make_config(data.v_f.shape[1], data.v_g.shape[1])
    batches = make_batches(data.v_f, data.v_g, data.target_logits, mcfg.batch_size)
    started = time.perf_counter()
    ensemble, trace = fit(batches, mcfg, RngStream(cfg.seed).child(_RNG_TRAIN))
    elapsed = time.perf_counter() - started
    save_checkpoint(out / "checkpoint.menkf", ensemble, mcfg)
    write_rows_csv(out / "trace.csv", trace)
    weight_g = trace["weight_g"][-1]
    print(f"trained on {data.size} rows ({len(batches)} batches); "
          f"final arm weights f={1.0 - weight_g:.4f} g={weight_g:.4f}, "
          f"noise var {trace['noise_var'][-1]:.4f}")
    print(f"[menkf] train took {elapsed:.2f}s", file=sys.stderr)
    return 0


def _evaluate_ensemble(ensemble, mcfg: MenkfConfig, data) -> tuple[dict, tuple]:
    """The report and the (point, lo, hi, truth) arrays of one evaluation."""
    from .uq import interval_adequacy, interval_arrays  # only evaluations pay for it
    layout = mcfg.layout()
    point, lo, hi = interval_arrays(ensemble, data.v_f, data.v_g, layout,
                                    mcfg.arm_f, mcfg.arm_g)
    truth = data.true_prob if data.true_prob is not None else sigmoid(data.target_logits)
    report = interval_adequacy(point, lo, hi, truth, ensemble, layout)
    return report.to_dict(), (point, lo, hi, truth)


def cmd_evaluate(checkpoint_path: str, dataset_path: str, output_dir: str) -> int:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ensemble, mcfg = load_checkpoint(checkpoint_path)
    data = read_dataset_csv(dataset_path)
    for block, found, spec in (("emb_f_", data.v_f.shape[1], mcfg.arm_f),
                               ("emb_g_", data.v_g.shape[1], mcfg.arm_g)):
        if found != spec.input_dim:
            raise DataFormatError(f"{dataset_path}: {block}* block has {found} columns, "
                                  f"the checkpoint expects {spec.input_dim}")
    started = time.perf_counter()
    report, (point, lo, hi, truth) = _evaluate_ensemble(ensemble, mcfg, data)
    elapsed = time.perf_counter() - started
    write_json(out / "report.json", report)
    write_rows_csv(out / "intervals.csv", {"row": np.arange(point.size), "point": point,
                                           "lo": lo, "hi": hi, "width": hi - lo,
                                           "true_prob": truth})
    print(f"coverage {report['coverage']:.4f}, avg width {report['avg_width']:.4f}, "
          f"mae {report['mae']:.4f}, arm f weight {report['arm_f_weight']:.4f} "
          f"on {report['n_test']} rows")
    print(f"[menkf] evaluate took {elapsed:.2f}s", file=sys.stderr)
    return 0


def run_study_replicate(j: int, rep: Replicate, cfg: RunConfig) -> dict:
    """Split, train, and evaluate replicate j; deterministic in (j, cfg)."""
    root = RngStream(cfg.seed)
    train_part, test_part = split(rep, cfg.train_n, cfg.test_n,
                                  root.child(_RNG_SPLIT).child(j))
    mcfg = cfg.trainer.make_config(rep.v_f.shape[1], rep.v_g.shape[1])
    batches = make_batches(train_part.v_f, train_part.v_g,
                           train_part.target_logits, mcfg.batch_size)
    ensemble, _ = fit(batches, mcfg, root.child(_RNG_STUDY_TRAIN).child(j))
    report, _ = _evaluate_ensemble(ensemble, mcfg, test_part)
    report["replicate"] = j
    return report


def _study_worker(args) -> tuple[int, dict | None, str | None]:
    j, rep, cfg = args
    try:
        return j, run_study_replicate(j, rep, cfg), None
    except MenkfError as err:
        return j, None, f"{type(err).__name__}: {err}"


def cmd_replicate_study(cfg: RunConfig, output_dir: str | None = None,
                        parallel: bool | None = None) -> int:
    if cfg.train_n + cfg.test_n > cfg.sim.m:
        raise ConfigError(f"split.train_n + split.test_n = {cfg.train_n} + {cfg.test_n} "
                          f"exceeds sim.m = {cfg.sim.m} rows per replicate")
    out = Path(output_dir or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    use_parallel = cfg.parallel if parallel is None else parallel
    root = RngStream(cfg.seed)
    started = time.perf_counter()
    base = gen_base_probs(cfg.sim, root.child(_RNG_BASE))
    reps = gen_replicates(cfg.sim, base, root.child(_RNG_REPLICATES))
    jobs = [(j, rep, cfg) for j, rep in enumerate(reps)]
    if use_parallel and len(jobs) > 1:
        import concurrent.futures  # only --parallel pays for it (and for logging)
        from concurrent.futures.process import BrokenProcessPool
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(os.cpu_count() or 1, len(jobs))) as pool:
            try:
                results = list(pool.map(_study_worker, jobs))
            except BrokenProcessPool:  # a worker killed, e.g. by the OOM killer
                print("menkf: replicate-study: a worker process ended abruptly; "
                      "no study written", file=sys.stderr)
                return 2
    else:
        results = [_study_worker(job) for job in jobs]

    rows = [row for _, row, err in results if err is None]
    failures = {str(j): err for j, _, err in results if err is not None}
    aggregates = _aggregate_study(rows)
    study = {
        "config": to_dict(cfg),
        "aggregates": aggregates,
        "failures": failures,
        "n_replicates": len(reps),
    }
    write_json(out / "study.json", study)
    write_rows_csv(out / "study.csv", {
        name: [row[name] for row in rows]
        for name in ("replicate", "coverage", "avg_width", "mae",
                     "mean_arm_weight", "arm_f_weight", "n_test")})
    elapsed = time.perf_counter() - started
    if rows:
        print(f"study over {len(reps)} replicates: "
              f"coverage {aggregates['coverage_pooled']:.4f} (pooled), "
              f"avg width {aggregates['width_mean']:.4f}, "
              f"arm f weight {aggregates['arm_f_weight_mean']:.4f}")
    else:
        print(f"study over {len(reps)} replicates: no replicate succeeded")
    print(f"[menkf] replicate-study took {elapsed:.2f}s", file=sys.stderr)
    if failures:
        print(f"{len(failures)} replicate(s) failed: "
              f"{sorted(failures)}", file=sys.stderr)
        return 2
    return 0


def _aggregate_study(rows: list[dict]) -> dict:
    """Study aggregates over the successful replicates; null (None) each
    when there are none, which keeps study.json valid JSON."""
    if not rows:
        return {"coverage_pooled": None, "coverage_mean": None, "width_mean": None,
                "width_sd": None, "mae_mean": None, "mean_arm_weight_mean": None,
                "arm_f_weight_mean": None, "n_rows": 0}
    coverages = np.array([r["coverage"] for r in rows])
    widths = np.array([r["avg_width"] for r in rows])
    n_tests = np.array([r["n_test"] for r in rows])
    weights = np.array([r["mean_arm_weight"] for r in rows])
    pooled = float((coverages * n_tests).sum() / n_tests.sum())
    return {
        "coverage_pooled": pooled,
        "coverage_mean": float(coverages.mean()),
        "width_mean": float(widths.mean()),
        "width_sd": float(widths.std(ddof=1)) if len(rows) > 1 else 0.0,
        "mae_mean": float(np.mean([r["mae"] for r in rows])),
        "mean_arm_weight_mean": float(weights.mean()),
        "arm_f_weight_mean": float(1.0 - weights.mean()),
        "n_rows": len(rows),
    }


# --------------------------------------------------------------- entrypoint

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


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
    study.add_argument("--parallel", action="store_true", default=None)

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
    except _UsageError as err:
        print(f"menkf: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        if args.command == "config":
            cfg = RunConfig() if args.study is None else study_preset(args.study)
            print(json.dumps(to_dict(cfg), indent=2, sort_keys=True))
            return 0
        if args.command == "simulate":
            return cmd_simulate(load_run_config(args.config), args.output_dir)
        if args.command == "train":
            return cmd_train(load_run_config(args.config), args.dataset,
                             args.output_dir)
        if args.command == "evaluate":
            return cmd_evaluate(args.checkpoint, args.dataset, args.output_dir)
        return cmd_replicate_study(load_run_config(args.config),
                                   args.output_dir, args.parallel)
    except (ConfigError, DataFormatError) as err:
        print(f"menkf: {err}", file=sys.stderr)
        return 1
    except MenkfError as err:
        print(f"menkf: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"menkf: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"menkf: out of memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
