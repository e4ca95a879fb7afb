import csv
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import menkf
from menkf import storage
from menkf.arms import ArmSpec
from menkf.cli import (_RNG_SPLIT, RunConfig, TrainerSettings, _aggregate_study, _replicates,
                       load_run_config, main, study_preset)
from menkf.exceptions import ConfigError, NumericError
from menkf.numerics import RngStream
from menkf.simgen import split
from menkf.storage import (from_dict, load_checkpoint, read_dataset_csv, read_json, to_dict,
                           write_dataset_csv, write_rows_csv)
from menkf.trainer import MenkfConfig, TrainerOptions, sigmoid
from menkf.uq import STUDY_METRICS, AdequacyReport, predict

from manifest_check import verify_manifest

TINY = {
    "seed": 0,
    "sim": {"m": 12, "replicates": 2, "p": 2, "q": 2},
    "trainer": {"ensemble_size": 8, "hidden_dims_f": [], "hidden_dims_g": [],
                "activation": "identity", "batch_size": 12, "passes_over_data": 1},
    "split": {"train_n": 9, "test_n": 3},
}


HUGE = int("9" * 400)


def fitted(tmp_path):
    """(config, replicate CSVs, checkpoint) of the tiny config: simulated, then
    trained on its first replicate."""
    config = write_config(tmp_path)
    assert main(["simulate", "--config", config, "--output-dir", str(tmp_path / "sim")]) == 0
    reps = sorted((tmp_path / "sim" / "replicates").iterdir())
    assert main(["train", "--config", config, "--dataset", str(reps[0]),
                 "--output-dir", str(tmp_path / "fit")]) == 0
    return config, reps, tmp_path / "fit" / "checkpoint.menkf"


def write_config(tmp_path, doc=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else TINY))
    return str(path)


class TestRunConfigParsing:
    def test_defaults_round_trip(self):
        doc = json.loads(json.dumps(to_dict(RunConfig())))
        cfg = from_dict(RunConfig, doc)
        assert cfg == RunConfig()

    def test_nested_values_applied(self):
        cfg = from_dict(RunConfig, TINY)
        assert cfg.sim.m == 12
        assert cfg.trainer.hidden_dims_f == ()
        assert cfg.trainer.ensemble_size == 8
        assert cfg.train_n == 9 and cfg.test_n == 3

    def test_unknown_keys_rejected_at_each_level(self, tmp_path):
        for doc, key in (({"learning_rate": 1.0}, "learning_rate"),
                         ({"sim": {"rows": 5}}, "rows"),
                         ({"trainer": {"momentum": 0.9}}, "momentum"),
                         ({"split": {"valid_n": 3}}, "valid_n")):
            with pytest.raises(ConfigError, match=key):
                from_dict(RunConfig, doc)
            assert main(["simulate", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(tmp_path / "out")]) == 1

    def test_invalid_nested_value(self, tmp_path):
        # wrong JSON types name section.field; none may reach the program
        for doc, field in (({"sim": {"m": 1}}, "sim"),
                           ({"sim": {"m": 20.5}}, "sim.m"),
                           ({"parallel": "false"}, "parallel"),
                           ({"trainer": {"ensemble_size": True}}, "trainer.ensemble_size"),
                           ({"trainer": {"ensemble_size": 1}}, "trainer"),
                           ({"trainer": {"hidden_dims_f": [16.7]}},
                            "trainer.hidden_dims_f[0]"),
                           ({"seed": "3"}, "seed"),
                           ({"trainer": {"init_var": 10**400}}, "trainer.init_var"),
                           ({"split": [9, 3]}, "split")):
            with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: "):
                from_dict(RunConfig, doc)
            assert main(["simulate", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_integer_accepted_for_float(self):
        cfg = from_dict(RunConfig, {"trainer": {"init_var": 16}})
        assert cfg.trainer.init_var == 16.0
        assert type(cfg.trainer.init_var) is float

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv("MENKF_SEED", "41")
        assert load_run_config(path).seed == 41
        monkeypatch.setenv("MENKF_SEED", "not-a-number")
        with pytest.raises(ConfigError):
            load_run_config(path)
        monkeypatch.delenv("MENKF_SEED")
        assert load_run_config(path).seed == 0

    @pytest.mark.parametrize("text, key", [
        pytest.param('{"seed": 5, "seed": 7}', "seed", id="top level"),
        pytest.param('{"seed": 5, "seed": 5}', "seed", id="same value"),
        pytest.param('{"trainer": {"ensemble_size": 8, "batch_size": 4, "ensemble_size": 9}}',
                     "ensemble_size", id="trainer"),
    ])
    def test_repeated_key_is_refused(self, tmp_path, capsys, text, key):
        # json.loads alone would keep the last value without a word
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"menkf: {path}: invalid JSON (key '{key}' is repeated)"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed, env", [
        pytest.param(2**64, None, id="config 2**64"),
        pytest.param(-1, None, id="config -1"),
        pytest.param(0, "-1", id="MENKF_SEED -1"),
        pytest.param(0, str(2**64), id="MENKF_SEED 2**64"),
    ])
    def test_seed_outside_64_bits_is_refused(self, tmp_path, capsys, monkeypatch, seed, env):
        # RngStream reads a seed modulo 2**64, so 2**64 would alias seed 0
        if env is not None:
            monkeypatch.setenv("MENKF_SEED", env)
        config = write_config(tmp_path, dict(TINY, seed=seed))
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        named = "config: seed" if env is None else "MENKF_SEED: seed"
        assert line == f"menkf: {named} must be in [0, 2**64 - 1], got {env or seed}"
        assert not (tmp_path / "out").exists()

    # int() strips the padding, reads 4_1 as 41 and reads Arabic-Indic digits
    @pytest.mark.parametrize("env", [" 4_1 ", "\u0664\u0661"])
    def test_seed_env_must_be_a_plain_integer(self, tmp_path, capsys, monkeypatch, env):
        monkeypatch.setenv("MENKF_SEED", env)
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"menkf: MENKF_SEED={env!r} is not an integer"
        assert not (tmp_path / "out").exists()

    def test_seed_range_ends(self):
        assert from_dict(RunConfig, {"seed": 2**64 - 1}).seed == 2**64 - 1
        assert from_dict(RunConfig, {"seed": 0}).seed == 0

    @pytest.mark.parametrize("doc, env, named", [
        pytest.param({"sim": {"scenario": "x" * 5000}}, None, "sim: scenario", id="sim.scenario"),
        pytest.param({"trainer": {"variance_init": "x" * 5000}}, None, "trainer: variance_init",
                     id="trainer.variance_init"),
        pytest.param({"trainer": {"activation": "x" * 5000}}, None, "trainer: unknown activation",
                     id="trainer.activation"),
        pytest.param({"sim": {"m": -HUGE}}, None, "sim: m ", id="sim.m"),
        pytest.param({"trainer": {"ensemble_size": -HUGE}}, None, "trainer: ensemble_size",
                     id="trainer.ensemble_size"),
        pytest.param({"trainer": {"hidden_dims_f": [-HUGE]}}, None, "trainer: hidden sizes",
                     id="trainer.hidden_dims_f"),
        pytest.param({"split": {"train_n": -HUGE}}, None, "split: train_n", id="split.train_n"),
        pytest.param({"seed": HUGE}, None, "config: seed", id="seed"),
        pytest.param({}, "9" * 4000, "MENKF_SEED: seed", id="MENKF_SEED 4000 digits"),
        pytest.param({}, "9" * 5000, "MENKF_SEED=", id="MENKF_SEED 5000 digits"),
    ])
    def test_long_value_is_cut(self, tmp_path, capsys, monkeypatch, doc, env, named):
        # a failure line is cut to 200 characters, so no input makes a long line
        if env is not None:
            monkeypatch.setenv("MENKF_SEED", env)
        config = write_config(tmp_path, doc)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"menkf: {named}") and line.endswith("...") and len(line) == 200
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("replicates", [0, 1001])
    def test_replicate_count_is_bounded(self, tmp_path, capsys, replicates):
        # simulate names its files rep_000 ... rep_999; a count past that is
        # refused before anything is drawn or written
        config = write_config(tmp_path, dict(TINY, sim=dict(TINY["sim"], replicates=replicates)))
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("menkf: sim: replicates must be in [1, 1000], got ")
        assert len(line) <= 200
        assert not (tmp_path / "out").exists()


class TestStudyPreset:
    def test_scenarios_are_wired(self):
        for scenario in ("well_specified", "misspecified", "stacked_average"):
            cfg = study_preset(scenario)
            assert cfg.sim.scenario == scenario
            assert cfg.trainer.hidden_dims_f == ()
            assert cfg.trainer.activation == "identity"
            assert cfg.trainer.jitter_var == 0.01

    def test_stacked_overrides(self):
        main_cfg = study_preset("well_specified")
        stacked = study_preset("stacked_average")
        assert main_cfg.trainer.ensemble_size == 216
        assert main_cfg.trainer.init_var == 16.0
        assert stacked.trainer.ensemble_size == 433
        assert stacked.trainer.init_var == 2.0
        assert stacked.trainer.passes_over_data > main_cfg.trainer.passes_over_data

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            study_preset("bogus")

    def test_defaults_are_the_well_specified_preset(self):
        assert study_preset("well_specified") == RunConfig()


def option_values(option) -> list:
    """Distinct valid values of one trainer option: the checkpoint's and the
    run config's defaults and, for a flag or a number, one value more."""
    shipped = getattr(TrainerSettings(), option.name)
    values = [option.default, shipped]
    if isinstance(shipped, bool):
        values.append(not shipped)
    elif isinstance(shipped, (int, float)):
        values.append(shipped + 1)
    return list(dict.fromkeys(values))


class TestTrainerOptions:
    @pytest.mark.parametrize("option", dataclasses.fields(TrainerOptions),
                             ids=lambda option: option.name)
    def test_each_option_reaches_the_trainer(self, option):
        # a value that make_config dropped would arrive as one default for all
        values = option_values(option)
        assert len(values) >= 2
        for value in values:
            settings = dataclasses.replace(TrainerSettings(), **{option.name: value})
            got = getattr(settings.make_config(3, 4), option.name)
            assert got == value and type(got) is type(value)

    def test_fields_are_the_options_plus_each_class_own(self):
        options = [f.name for f in dataclasses.fields(TrainerOptions)]
        assert [f.name for f in dataclasses.fields(TrainerSettings)] == \
            options + ["hidden_dims_f", "hidden_dims_g", "activation"]
        assert [f.name for f in dataclasses.fields(MenkfConfig)] == \
            options + ["arm_f", "arm_g", "fixed_arm_logit", "fixed_noise_var"]

    def test_shipped_and_checkpoint_defaults(self):
        spec = ArmSpec(2, (), "identity")
        picked = ("batch_size", "passes_over_data", "jitter_var", "variance_init")
        settings, config = TrainerSettings(), MenkfConfig(arm_f=spec, arm_g=spec)
        assert [getattr(settings, name) for name in picked] == [11, 3, 0.01, "gamma_shape_scale"]
        assert [getattr(config, name) for name in picked] == [16, 1, 0.0, "gaussian"]
        for name in ("ensemble_size", "init_var", "shuffle_batches"):
            assert getattr(settings, name) == getattr(config, name)

    def test_readme_config_shape_is_the_default_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Config shape", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == to_dict(RunConfig())


class TestDefaults:
    def test_defaults_beat_constant_predictor(self, tmp_path):
        doc = to_dict(RunConfig())
        doc["sim"]["replicates"] = 5
        out = tmp_path / "study"
        assert main(["replicate-study", "--config", write_config(tmp_path, doc),
                     "--output-dir", str(out)]) == 0
        agg = read_json(out / "study.json")["aggregates"]
        # the same test rows run_study_replicate evaluates on
        cfg = from_dict(RunConfig, doc)
        root = RngStream(cfg.seed)
        constant_mae = np.mean([
            np.mean(np.abs(0.5 - split(rep, cfg.train_n, cfg.test_n,
                                       root.child(_RNG_SPLIT).child(j))[1].true_prob))
            for j, rep in enumerate(_replicates(cfg))])
        assert agg["n_rows"] == 5
        assert agg["width_mean"] < 0.9
        assert agg["mae_mean"] < constant_mae


def python(args, **env_vars) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with args that finds this menkf first, as
    the acceptance gate's run_cli does, with env_vars added to its
    environment."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(menkf.__file__).resolve().parents[1]),
                      env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_python(code, **env_vars):
    """python(["-c", code]), which must succeed; returns its stripped stdout."""
    proc = python(["-c", code], **env_vars)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# on numpy 1.x, import numpy itself loads numpy.random and numpy.ma
NUMPY_2 = pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                             reason="numpy 1.x loads numpy.random and numpy.ma on import")


def loaded_after(args, *modules):
    """Code that runs main(args) and prints, on its last line, the exit
    code and which of modules (numpy.random and numpy.ma by default) it
    loaded."""
    modules = set(modules or ("numpy.random", "numpy.ma"))
    return ("import sys\n"
            "from menkf.cli import main\n"
            f"status = main({args!r})\n"
            f"print(status, sorted({modules!r} & set(sys.modules)))")


def imported_by(args):
    """The exit code of `python -m menkf.cli args` and the names of the
    modules it imported, read off its -X importtime log."""
    proc = python(["-X", "importtime", "-m", "menkf.cli", *args])
    return proc.returncode, {line.rpartition("|")[2].strip()
                             for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


class TestImports:
    @pytest.mark.parametrize("args, status", [
        (["config", "print-defaults"], 0),
        (["config", "print-defaults", "--study", "stacked_average"], 0),
        (["--help"], 0),
        (["train", "--config", "CONFIG"], 1),  # a usage error: no --dataset
        (["train", "--config", "CONFIG", "--dataset", "none.csv"], 1),
    ], ids=["defaults", "study", "help", "usage", "refused"])
    def test_config_commands_and_refusals_load_no_numpy(self, tmp_path, args, status):
        config = write_config(tmp_path, dict(TINY, sim={"m": 12, "bogus": 1}))  # unknown key
        code, modules = imported_by([config if arg == "CONFIG" else arg for arg in args])
        assert code == status
        assert "menkf.config" in modules
        assert not {name for name in modules if name.split(".")[0] == "numpy"}

    def test_config_module_loads_no_numpy(self):
        code = ("import sys\n"
                "import menkf.config\n"
                "print('numpy' in sys.modules,"
                " sorted(m for m in sys.modules if m.startswith('menkf.')))")
        assert run_python(code) == "False ['menkf.config', 'menkf.exceptions']"

    def test_cli_imports_numpy_only(self):
        # importing the CLI loads modules of no installed distribution but
        # numpy (and menkf, when installed)
        code = ("import sys, importlib.metadata as md\n"
                "before = set(sys.modules)\n"
                "import menkf.cli\n"
                "owners = md.packages_distributions()\n"
                "added = ({m.split('.')[0] for m in set(sys.modules) - before}\n"
                "         - set(sys.stdlib_module_names))\n"
                "print(sorted({d for m in added for d in owners.get(m, [])}"
                " - {'numpy', 'menkf'}))")
        assert run_python(code) == "[]"

    def test_package_root_loads_no_submodule(self):
        code = ("import sys\n"
                "import menkf\n"
                "print(sorted(m for m in sys.modules if m.startswith('menkf.')))")
        assert run_python(code) == "[]"

    @NUMPY_2
    def test_evaluate_loads_neither_random_nor_masked_arrays(self, tmp_path):
        # evaluate draws nothing, and its interval bounds come from sorted rows
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path / "sim")]) == 0
        data = str(tmp_path / "sim" / "replicates" / "rep_000.csv")
        assert main(["train", "--config", config, "--dataset", data,
                     "--output-dir", str(tmp_path / "fit")]) == 0
        args = ["evaluate", "--checkpoint", str(tmp_path / "fit" / "checkpoint.menkf"),
                "--dataset", data, "--output-dir", str(tmp_path / "ev")]
        assert run_python(loaded_after(args)).splitlines()[-1] == "0 []"

    @NUMPY_2
    def test_replicate_study_loads_no_masked_arrays(self, tmp_path):
        args = ["replicate-study", "--config", write_config(tmp_path),
                "--output-dir", str(tmp_path / "study")]
        assert run_python(loaded_after(args, "numpy.ma")).splitlines()[-1] == "0 []"

    def test_process_pool_is_imported_only_for_parallel_studies(self):
        # concurrent.futures pulls in logging; only --parallel needs either
        code = ("import sys\n"
                "import menkf.cli\n"
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        assert run_python(code) == "[]"


class TestExitCodes:
    def test_config_print_defaults(self, capsys):
        assert main(["config", "print-defaults"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == to_dict(RunConfig())

    def test_config_print_study(self, capsys):
        assert main(["config", "print-defaults", "--study", "misspecified"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sim"]["scenario"] == "misspecified"
        assert main(["config", "print-defaults", "--study", "nope"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1
        assert main(["train"]) == 1  # missing required arguments

    @pytest.mark.parametrize("args, message", [
        ([], "the following arguments are required: command"),
        (["train", "--config"], "argument --config: expected one argument"),
    ])
    def test_usage_error_is_one_line(self, capsys, args, message):
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"menkf: {message}\n")

    def test_long_usage_error_is_cut(self, capsys):
        assert main(["x" * 5000]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("menkf: argument command: invalid choice: 'xxx")
        assert err.endswith("...\n") and len(err) == 201

    def test_bad_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1
        path.write_bytes(b'\xff\xfe{"seed": 0}')  # not UTF-8
        assert main(["simulate", "--config", str(path)]) == 1

    def test_config_nested_too_deeply_is_one_line(self, tmp_path, capsys):
        # json.loads recurses once per bracket
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["simulate", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"menkf: {path}: invalid JSON (maximum recursion depth")
        assert not (tmp_path / "out").exists()

    def test_config_message_does_not_depend_on_the_caller(self, tmp_path):
        # from python -m and from main in a script, a value nested deeper
        # than a message quotes gives one line, naming it
        path = tmp_path / "deep.json"
        path.write_text('{"trainer": {"hidden_dims_f": ' + "[" * 600 + "]" * 600 + "}}")
        args = ["simulate", "--config", str(path), "--output-dir", str(tmp_path / "out")]
        runs = [python(["-m", "menkf.cli", *args]),
                python(["-c", f"from menkf.cli import main; raise SystemExit(main({args!r}))"])]
        assert [(run.returncode, run.stderr) for run in runs] == [(1, (
            "menkf: trainer.hidden_dims_f[0]: expected an integer, "
            "got a list nested too deeply to show\n"))] * 2

    def test_unknown_config_key(self, tmp_path):
        path = write_config(tmp_path, {"optimizer": "adam"})
        assert main(["simulate", "--config", path]) == 1

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_malformed_dataset(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("emb_f_0,emb_g_0,target_logit\n1.0,oops,0.5\n")
        config = write_config(tmp_path)
        assert main(["train", "--config", config, "--dataset", str(data),
                     "--output-dir", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_refused_input_leaves_no_output_dir(self, tmp_path, capsys, command):
        # the output directory is made only once the inputs are read and checked
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        good = tmp_path / "replicates" / "rep_000.csv"
        assert main(["train", "--config", config, "--dataset", str(good),
                     "--output-dir", str(tmp_path / "fit")]) == 0
        data = self.replaced_cells(good, tmp_path / "x.csv", 1, {"emb_f_0": "x"})
        checkpoint = tmp_path / "fit" / "checkpoint.menkf"
        args = (["train", "--config", config] if command == "train"
                else ["evaluate", "--checkpoint", str(checkpoint)])
        capsys.readouterr()
        assert main(args + ["--dataset", data, "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"menkf: {data}: row 3, column 'emb_f_0': 'x'")
        assert not (tmp_path / "out").exists()
        if command == "evaluate":  # and a refused checkpoint leaves none either
            checkpoint.write_bytes(checkpoint.read_bytes()[:-8])
            assert main(args + ["--dataset", str(good),
                                "--output-dir", str(tmp_path / "out")]) == 1
            assert "body is" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_nonfinite_dataset_cell(self, tmp_path, capsys):
        # nan in a feature cell stops train, inf in one stops evaluate
        config = write_config(tmp_path)
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--output-dir", str(sim_dir)]) == 0
        good = sim_dir / "replicates" / "rep_000.csv"
        assert main(["train", "--config", config, "--dataset", str(good),
                     "--output-dir", str(tmp_path / "fit")]) == 0
        lines = good.read_text().splitlines()
        header = lines[0].split(",")
        for column, cell, command in (("emb_f_0", "nan", "train"),
                                      ("emb_g_1", "inf", "evaluate")):
            fields = lines[2].split(",")
            fields[header.index(column)] = cell
            bad = tmp_path / f"{cell}.csv"
            bad.write_text("\n".join([lines[0], lines[1], ",".join(fields)]) + "\n")
            capsys.readouterr()
            args = (["train", "--config", config] if command == "train" else
                    ["evaluate", "--checkpoint", str(tmp_path / "fit" / "checkpoint.menkf")])
            assert main(args + ["--dataset", str(bad),
                                "--output-dir", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err
            assert f"row 3, column '{column}': '{cell}' is not a finite number" in err

    def test_repeated_dataset_column(self, tmp_path, capsys):
        config = write_config(tmp_path)
        data = tmp_path / "repeated.csv"
        data.write_text("emb_f_0,emb_f_0,emb_g_0,target_logit,target_logit\n"
                        "1.0,2.0,3.0,0.5,9.0\n")
        assert main(["train", "--config", config, "--dataset", str(data),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert "header column 2 is 'emb_f_0', expected 'emb_f_1'" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "dataset"])
    def test_inputs_are_utf8_in_any_locale(self, tmp_path, source):
        # under the C locale open() would decode with ASCII; the message must
        # name the field or cell, as it does under a UTF-8 locale
        config = tmp_path / "config.json"
        doc = dict(TINY, sim=dict(TINY["sim"], scenario="caf\u00e9"))
        config.write_text(json.dumps(doc if source == "config" else TINY, ensure_ascii=False),
                          encoding="utf-8")
        command = ["simulate", "--config", str(config)]
        if source == "dataset":
            assert main(command + ["--output-dir", str(tmp_path / "sim")]) == 0
            header, row, *rest = (tmp_path / "sim" / "replicates" / "rep_000.csv").read_text(
                encoding="utf-8").splitlines()
            cells = row.split(",")
            cells[header.split(",").index("target_logit")] = "\u00e9"
            data = tmp_path / "accented.csv"
            data.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
            command = ["train", "--config", str(config), "--dataset", str(data)]
        proc = python(["-m", "menkf.cli", *command, "--output-dir", str(tmp_path / "out")],
                      LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert proc.returncode == 1 and proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("menkf: sim: scenario must be one of" if source == "config"
                               else f"menkf: {data}: row 2, column 'target_logit': ")
        assert "codec" not in line

    def test_dataset_width_does_not_fit_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path)  # p = q = 2
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", config, "--output-dir", str(sim_dir)]) == 0
        assert main(["train", "--config", config,
                     "--dataset", str(sim_dir / "replicates" / "rep_000.csv"),
                     "--output-dir", str(tmp_path / "fit")]) == 0
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("emb_f_0,emb_g_0,emb_g_1,target_logit\n0.1,0.2,0.3,-0.2\n")
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(tmp_path / "fit" / "checkpoint.menkf"),
                     "--dataset", str(narrow), "--output-dir", str(tmp_path / "ev")]) == 1
        err = capsys.readouterr().err
        assert f"{narrow}: emb_f_* block has 1 columns, the checkpoint expects 2" in err

    def test_aliased_block_column(self, tmp_path, capsys):
        # emb_f_01 would otherwise be read as emb_f_1 and replace it
        config = write_config(tmp_path)  # p = q = 2
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        assert main(["train", "--config", config,
                     "--dataset", str(tmp_path / "replicates" / "rep_000.csv"),
                     "--output-dir", str(tmp_path / "fit")]) == 0
        data = tmp_path / "aliased.csv"
        data.write_text("emb_f_0,emb_f_1,emb_f_01,emb_g_0,emb_g_1,target_logit\n"
                        "0.1,0.2,999.0,0.3,0.4,-0.2\n")
        for args in (["train", "--config", config],
                     ["evaluate", "--checkpoint", str(tmp_path / "fit" / "checkpoint.menkf")]):
            capsys.readouterr()
            assert main(args + ["--dataset", str(data),
                                "--output-dir", str(tmp_path / "out")]) == 1
            assert "header column 3 is 'emb_f_01', expected 'emb_f_2'" in capsys.readouterr().err

    def test_label_outside_int64(self, tmp_path, capsys):
        config = write_config(tmp_path)
        data = tmp_path / "big_label.csv"
        data.write_text("emb_f_0,emb_f_1,emb_g_0,emb_g_1,target_logit,true_prob,label\n"
                        "0.1,0.2,0.3,0.4,-0.2,0.45,99999999999999999999\n")
        assert main(["train", "--config", config, "--dataset", str(data),
                     "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "column 'label': '99999999999999999999' is not an int64 integer" in err

    @pytest.mark.parametrize("cell", ["2.5", "-3", "1e308"])
    def test_true_prob_outside_unit_interval(self, tmp_path, capsys, cell):
        # coverage and MAE would be taken against it, or overflow at exit 2
        config, reps, checkpoint = fitted(tmp_path)
        data = self.replaced_cells(reps[1], tmp_path / "bad.csv", 1, {"true_prob": cell})
        out = tmp_path / "out"
        for args in (["train", "--config", config], ["evaluate", "--checkpoint", str(checkpoint)]):
            capsys.readouterr()
            assert main(args + ["--dataset", data, "--output-dir", str(out)]) == 1
            assert capsys.readouterr().err == (f"menkf: {data}: row 3, column 'true_prob': "
                                               f"{cell!r} is not a finite number in [0, 1]\n")
            assert not out.exists()

    @pytest.mark.parametrize("where", ["trailing", "a later chunk"])
    def test_blank_lines_are_one_refusal(self, tmp_path, capsys, where):
        # a chunk of blank lines alone must not reach np.loadtxt, which warns of no data
        doc = dict(TINY, sim={"m": 1200, "replicates": 1, "p": 2, "q": 2})
        config = write_config(tmp_path, doc)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path / "sim")]) == 0
        with open(tmp_path / "sim" / "replicates" / "rep_000.csv", newline="\n") as fh:
            header, first = fh.readline(), fh.readlines(storage._CHUNK_CHARS)
            rest = fh.read()
        assert rest  # the data go on past the first chunk
        data = tmp_path / "blank.csv"
        blank = "\n" * 2 * storage._CHUNK_CHARS  # at least one whole chunk
        data.write_text(header + "".join(first) + ("\r\n" if where == "trailing" else blank + rest),
                        newline="")
        capsys.readouterr()
        assert main(["train", "--config", config, "--dataset", str(data),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"menkf: {data}: row {len(first) + 2} has 1 fields, "
                                           f"expected 7\n")
        assert not (tmp_path / "out").exists()

    def test_checkpoint_member_not_finite(self, tmp_path, capsys):
        _, reps, checkpoint = fitted(tmp_path)
        bad = tmp_path / "nan.menkf"
        bad.write_bytes(checkpoint.read_bytes()[:-8] + np.float64(np.nan).tobytes())
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(bad), "--dataset", str(reps[1]),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"menkf: {bad}: members must be finite\n"
        assert not (tmp_path / "out").exists()

    @staticmethod
    def replaced_cells(path, out, row, cells):
        """Write path's CSV to out with the named cells of data row row
        (counted from 0) replaced."""
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        fields = lines[1 + row].split(",")
        for column, cell in cells.items():
            fields[header.index(column)] = cell
        lines[1 + row] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        return str(out)

    def test_long_dataset_cell_is_cut(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        data = self.replaced_cells(tmp_path / "replicates" / "rep_000.csv",
                                   tmp_path / "long.csv", 0, {"emb_g_0": "x" * 3000})
        capsys.readouterr()
        assert main(["train", "--config", config, "--dataset", data,
                     "--output-dir", str(tmp_path / "fit")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"menkf: {data}") and "emb_g_0" in line and len(line) == 200

    def test_overflowing_target_names_its_batch(self, tmp_path, capsys):
        config = write_config(tmp_path)  # one batch of 12 rows
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        data = self.replaced_cells(tmp_path / "replicates" / "rep_000.csv",
                                   tmp_path / "huge.csv", 0, {"target_logit": "1e300"})
        capsys.readouterr()
        assert main(["train", "--config", config, "--dataset", data,
                     "--output-dir", str(tmp_path / "fit")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("menkf: NumericError: filter step is not finite at batch 0 (")

    def test_underflowed_noise_variance_names_its_batch(self, tmp_path, capsys):
        # jitter of sd 10**4 takes b below -745, where softplus(b) is exactly 0, which
        # the analysis refuses as an obs_var
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        doc = dict(TINY, trainer=dict(TINY["trainer"], jitter_var=1e8))
        capsys.readouterr()
        assert main(["train", "--config", write_config(tmp_path, doc, "jittered.json"),
                     "--dataset", str(tmp_path / "replicates" / "rep_000.csv"),
                     "--output-dir", str(tmp_path / "fit")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("menkf: NumericError: obs_var entries must be positive and finite "
                        "at batch 0")

    def test_overflowing_model_output_names_its_row(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        good = tmp_path / "replicates" / "rep_000.csv"
        assert main(["train", "--config", config, "--dataset", str(good),
                     "--output-dir", str(tmp_path / "fit")]) == 0
        data = self.replaced_cells(good, tmp_path / "huge.csv", 1,
                                   {"emb_f_0": "1e308", "emb_f_1": "1e308"})
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(tmp_path / "fit" / "checkpoint.menkf"),
                     "--dataset", data, "--output-dir", str(tmp_path / "ev")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "menkf: NumericError: model output is not finite at row 1"
        assert list((tmp_path / "ev").iterdir()) == []

    def test_out_of_memory_is_one_line(self, tmp_path, capsys):
        # 71 PiB of members: numpy refuses at once, no machine allocates it
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        doc = dict(TINY, trainer=dict(TINY["trainer"], ensemble_size=10**15))
        capsys.readouterr()
        assert main(["train", "--config", write_config(tmp_path, doc, "huge.json"),
                     "--dataset", str(tmp_path / "replicates" / "rep_000.csv"),
                     "--output-dir", str(tmp_path / "fit")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("menkf: out of memory: Unable to allocate")

    @pytest.mark.parametrize("size", [10**18, 10**19])
    @pytest.mark.parametrize("section, key", [("trainer", "ensemble_size"), ("sim", "m"),
                                              ("trainer", "hidden_dims_f"), ("sim", "p"),
                                              ("sim", "q")])
    def test_size_numpy_refuses_is_out_of_memory(self, tmp_path, capsys, section, key, size):
        # numpy refuses these shapes with a ValueError before it allocates anything
        config = write_config(tmp_path)
        assert main(["simulate", "--config", config, "--output-dir", str(tmp_path)]) == 0
        value = [size] if key == "hidden_dims_f" else size
        doc = dict(TINY, **{section: dict(TINY[section], **{key: value})})
        args = (["train", "--dataset", str(tmp_path / "replicates" / "rep_000.csv")]
                if section == "trainer" else ["simulate"])
        capsys.readouterr()
        assert main(args + ["--config", write_config(tmp_path, doc, "huge.json"),
                            "--output-dir", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("menkf: out of memory: ")

    def test_study_with_failing_replicates(self, tmp_path, monkeypatch, capsys):
        def failing_fit(*args):
            raise NumericError("forced failure")

        def no_constants(token):
            raise AssertionError(f"study.json holds the non-JSON token {token}")

        monkeypatch.setattr("menkf.trainer.fit", failing_fit)
        code = main(["replicate-study", "--config", write_config(tmp_path),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "no replicate succeeded" in capsys.readouterr().out
        text = (tmp_path / "out" / "study.json").read_text()
        study = json.loads(text, parse_constant=no_constants)
        assert sorted(study["failures"]) == ["0", "1"]
        assert study["aggregates"]["coverage_pooled"] is None

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked worker sees the patched module")
    def test_dead_study_worker_is_one_line(self, tmp_path, monkeypatch, capsys):
        # as a worker the OOM killer ends
        monkeypatch.setattr("menkf.cli.run_study_replicate", lambda *args: os._exit(3))
        assert main(["replicate-study", "--config", write_config(tmp_path),
                     "--output-dir", str(tmp_path / "out"), "--parallel"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("menkf: replicate-study: a worker process ended abruptly; "
                        "no study written")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sizes, named", [
        ({"train_n": 15, "test_n": 0}, "split: test_n"),
        ({"train_n": -1, "test_n": 8}, "split: train_n"),
        ({"train_n": 15, "test_n": 10}, "split.train_n + split.test_n"),
    ])
    def test_impossible_split_sizes(self, tmp_path, capsys, sizes, named):
        doc = dict(TINY, sim=dict(TINY["sim"], m=20), split=sizes)
        assert main(["replicate-study", "--config", write_config(tmp_path, doc),
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversize_split_message_is_cut(self, tmp_path, capsys):
        doc = dict(TINY, split={"train_n": HUGE, "test_n": 8})
        assert main(["replicate-study", "--config", write_config(tmp_path, doc),
                     "--output-dir", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("menkf: split.train_n + split.test_n = 999") and len(line) <= 200

    def test_oversize_split_leaves_simulate_alone(self, tmp_path):
        doc = dict(TINY, sim=dict(TINY["sim"], m=20), split={"train_n": 15, "test_n": 10})
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--output-dir", str(tmp_path / "sim")]) == 0

    def test_overflowing_surrogate_sd_is_refused_as_drawn(self, tmp_path, capsys):
        # at seed 0 replicate 0 draws finite target logits and replicate 1 does
        # not, so simulate has written rep_000.csv when it refuses; at seed 1
        # replicate 0 is refused before anything is written. Neither command
        # leaves the output directory behind, nor removes one that was there
        (tmp_path / "kept").mkdir()
        for seed, refused in ((0, 1), (1, 0)):
            doc = dict(TINY, seed=seed, sim=dict(TINY["sim"], surrogate_sd=1e308))
            config = write_config(tmp_path, doc)
            for command in ("simulate", "replicate-study"):
                for out in (tmp_path / command / "out", tmp_path / "kept"):
                    assert main([command, "--config", config, "--output-dir", str(out)]) == 1
                    (line,) = capsys.readouterr().err.splitlines()
                    assert line == ("menkf: surrogate_sd = 1e+308 draws target logits that "
                                    f"are not finite in replicate {refused}")
                assert not (tmp_path / command).exists()
                assert list((tmp_path / "kept").iterdir()) == []


class TestPipeline:
    def run(self, args):
        code = main(args)
        assert code == 0, f"{args} exited {code}"

    def test_simulate_train_evaluate(self, tmp_path, capsys):
        config = write_config(tmp_path)
        sim_dir = tmp_path / "sim"
        self.run(["simulate", "--config", config, "--output-dir", str(sim_dir)])
        reps = sorted((sim_dir / "replicates").iterdir())
        assert [r.name for r in reps] == ["rep_000.csv", "rep_001.csv"]
        assert verify_manifest(sim_dir / "manifest.json") == []

        train_dir = tmp_path / "fit"
        self.run(["train", "--config", config, "--dataset", str(reps[0]),
                  "--output-dir", str(train_dir)])
        assert (train_dir / "checkpoint.menkf").exists()
        trace = (train_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,pass_index,batch_index,weight_g,noise_var,innovation_norm"
        assert len(trace) == 2  # one batch, one pass

        eval_dir = tmp_path / "eval"
        self.run(["evaluate", "--checkpoint", str(train_dir / "checkpoint.menkf"),
                  "--dataset", str(reps[1]), "--output-dir", str(eval_dir)])
        report = read_json(eval_dir / "report.json")
        assert set(report) == {"coverage", "avg_width", "mae", "mean_arm_weight",
                               "arm_f_weight", "n_test", "frac_wide",
                               "frac_contains_half"}
        assert report["n_test"] == 12
        intervals = (eval_dir / "intervals.csv").read_text().splitlines()
        assert len(intervals) == 13

    def test_evaluate_without_true_prob_scores_sigmoid_of_target(self, tmp_path):
        _, reps, checkpoint = fitted(tmp_path)
        rep = read_dataset_csv(reps[1])
        bare = tmp_path / "bare.csv"
        write_dataset_csv(bare, dataclasses.replace(rep, true_prob=None, labels=None))
        self.run(["evaluate", "--checkpoint", str(checkpoint), "--dataset", str(bare),
                  "--output-dir", str(tmp_path / "ev")])

        truth = sigmoid(rep.target_logits)
        assert not np.array_equal(truth, rep.true_prob)
        with open(tmp_path / "ev" / "intervals.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["true_prob"] for row in rows] == [repr(x) for x in truth.tolist()]
        lo, hi = (np.array([float(row[key]) for row in rows]) for key in ("lo", "hi"))
        report = read_json(tmp_path / "ev" / "report.json")
        assert report["coverage"] == float(np.mean((lo <= truth) & (truth <= hi)))

    def test_intervals_equal_rows_from_predict(self, tmp_path):
        # evaluate's intervals.csv against predict on blocks parsed here, in any memory order
        doc = dict(TINY, sim={"m": 400, "replicates": 1, "p": 32, "q": 32})
        config = write_config(tmp_path, doc)
        self.run(["simulate", "--config", config, "--output-dir", str(tmp_path / "sim")])
        data = tmp_path / "sim" / "replicates" / "rep_000.csv"
        self.run(["train", "--config", config, "--dataset", str(data),
                  "--output-dir", str(tmp_path / "fit")])
        self.run(["evaluate", "--checkpoint", str(tmp_path / "fit" / "checkpoint.menkf"),
                  "--dataset", str(data), "--output-dir", str(tmp_path / "ev")])

        with open(data, newline="") as fh:
            header, *body = list(csv.reader(fh))
        table = np.array([[float(x) for x in row] for row in body])
        block = lambda prefix: table[:, [i for i, name in enumerate(header)
                                         if name.startswith(prefix)]]
        ensemble, mcfg = load_checkpoint(tmp_path / "fit" / "checkpoint.menkf")
        truth = table[:, header.index("true_prob")]
        for order in (np.asarray, np.asfortranarray):
            summaries = predict(ensemble, order(block("emb_f_")), order(block("emb_g_")),
                                mcfg.layout(), mcfg.arm_f, mcfg.arm_g)
            expected = tmp_path / "expected.csv"
            write_rows_csv(expected, {"row": range(len(summaries)),
                                      "point": [s.point for s in summaries],
                                      "lo": [s.lo for s in summaries],
                                      "hi": [s.hi for s in summaries],
                                      "width": [s.width for s in summaries],
                                      "true_prob": truth})
            assert (tmp_path / "ev" / "intervals.csv").read_bytes() == expected.read_bytes()

    def test_intervals_on_a_short_last_block(self, tmp_path):
        # 1,025 rows: eight full blocks and a one-row block, whose bits follow
        # predict on that block alone; through tanh arms numpy's matmul sums
        # a one-row input another way than a row of a larger one
        doc = dict(TINY, sim={"m": 1025, "replicates": 1, "p": 32, "q": 32},
                   trainer=dict(TINY["trainer"], hidden_dims_f=[16], hidden_dims_g=[16],
                                activation="tanh"))
        config = write_config(tmp_path, doc)
        self.run(["simulate", "--config", config, "--output-dir", str(tmp_path / "sim")])
        data = tmp_path / "sim" / "replicates" / "rep_000.csv"
        self.run(["train", "--config", config, "--dataset", str(data),
                  "--output-dir", str(tmp_path / "fit")])
        self.run(["evaluate", "--checkpoint", str(tmp_path / "fit" / "checkpoint.menkf"),
                  "--dataset", str(data), "--output-dir", str(tmp_path / "ev")])

        rows = read_dataset_csv(data)
        ensemble, mcfg = load_checkpoint(tmp_path / "fit" / "checkpoint.menkf")
        summaries = [s for block in (slice(0, 1024), slice(1024, None))
                     for s in predict(ensemble, rows.v_f[block], rows.v_g[block],
                                      mcfg.layout(), mcfg.arm_f, mcfg.arm_g)]
        expected = tmp_path / "expected.csv"
        write_rows_csv(expected, {"row": range(len(summaries)),
                                  "point": [s.point for s in summaries],
                                  "lo": [s.lo for s in summaries],
                                  "hi": [s.hi for s in summaries],
                                  "width": [s.width for s in summaries],
                                  "true_prob": rows.true_prob})
        assert (tmp_path / "ev" / "intervals.csv").read_bytes() == expected.read_bytes()

    def test_simulate_is_reproducible(self, tmp_path):
        config = write_config(tmp_path)
        for name in ("one", "two"):
            self.run(["simulate", "--config", config,
                      "--output-dir", str(tmp_path / name)])
        a = sorted((tmp_path / "one").rglob("*.csv"))
        b = sorted((tmp_path / "two").rglob("*.csv"))
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()
        assert ((tmp_path / "one" / "manifest.json").read_bytes()
                == (tmp_path / "two" / "manifest.json").read_bytes())

    def test_simulate_writes_the_study_replicates(self, tmp_path):
        # replicate j of a study is the dataset simulate writes as rep_j.csv
        config = write_config(tmp_path)
        self.run(["simulate", "--config", config, "--output-dir", str(tmp_path / "sim")])
        reps = list(_replicates(load_run_config(config)))
        assert len(reps) == TINY["sim"]["replicates"]
        for j, rep in enumerate(reps):
            write_dataset_csv(tmp_path / "drawn.csv", rep)
            assert ((tmp_path / "sim" / "replicates" / f"rep_{j:03d}.csv").read_bytes()
                    == (tmp_path / "drawn.csv").read_bytes())

    def test_simulate_memory_does_not_grow_with_replicates(self, tmp_path):
        # each replicate is written as it is drawn; at m = 200 one replicate
        # holds about 0.1 MiB, so holding all 24 would add over 2 MiB
        def peak(replicates, name):
            config = write_config(tmp_path, dict(TINY, sim={"m": 200, "replicates": replicates}))
            tracemalloc.start()
            try:
                self.run(["simulate", "--config", config, "--output-dir", str(tmp_path / name)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3, "warm")  # the first call in a process makes one-time allocations
        assert peak(24, "many") - peak(3, "few") < 2**20
        written = sorted(path.name for path in (tmp_path / "many" / "replicates").iterdir())
        assert written == [f"rep_{j:03d}.csv" for j in range(24)]
        assert len(read_json(tmp_path / "many" / "manifest.json")["files"]) == 24
        assert verify_manifest(tmp_path / "many" / "manifest.json") == []

    def test_seed_env_changes_simulation(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        self.run(["simulate", "--config", config, "--output-dir", str(tmp_path / "base")])
        monkeypatch.setenv("MENKF_SEED", "5")
        self.run(["simulate", "--config", config, "--output-dir", str(tmp_path / "env")])
        assert read_json(tmp_path / "env" / "manifest.json")["seed"] == 5
        assert ((tmp_path / "base" / "replicates" / "rep_000.csv").read_bytes()
                != (tmp_path / "env" / "replicates" / "rep_000.csv").read_bytes())

    def test_study_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "study"
        self.run(["replicate-study", "--config", config, "--output-dir", str(out)])
        study = read_json(out / "study.json")
        assert study["n_replicates"] == 2
        assert study["failures"] == {}
        assert study["config"]["sim"]["m"] == 12
        agg = study["aggregates"]
        assert set(agg) >= {"coverage_pooled", "coverage_mean", "width_mean",
                            "width_sd", "mae_mean", "arm_f_weight_mean"}
        lines = (out / "study.csv").read_text().splitlines()
        assert lines[0] == ("replicate,coverage,avg_width,mae,"
                            "mean_arm_weight,arm_f_weight,n_test,"
                            "frac_wide,frac_contains_half")
        assert len(lines) == 3

    def test_parallel_matches_sequential(self, tmp_path):
        config = write_config(tmp_path)
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        self.run(["replicate-study", "--config", config, "--output-dir", str(seq)])
        self.run(["replicate-study", "--config", config, "--output-dir", str(par),
                  "--parallel"])
        assert (seq / "study.json").read_bytes() == (par / "study.json").read_bytes()
        assert (seq / "study.csv").read_bytes() == (par / "study.csv").read_bytes()

    def test_parallel_study_memory_does_not_grow_with_replicates(self, tmp_path, monkeypatch):
        # the pool is handed at most 2 x workers jobs at a time, so at most four
        # replicates are drawn and unfinished; at m = 200 one replicate holds
        # about 0.1 MiB, so drawing all 24 up front would add over 2 MiB
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def peak(replicates, name):
            config = write_config(tmp_path, dict(TINY, sim={"m": 200, "replicates": replicates}))
            tracemalloc.start()
            try:
                self.run(["replicate-study", "--config", config, "--parallel",
                          "--output-dir", str(tmp_path / name)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3, "warm")  # the first call in a process makes one-time allocations
        assert peak(24, "many") - peak(3, "few") < 2**20
        assert read_json(tmp_path / "many" / "study.json")["aggregates"]["n_rows"] == 24

    def test_hidden_train_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 16-unit tanh arms on 32 + 32 features (d = 1,094), three filter steps;
        # the thread count is read when numpy loads, so each run is a new process
        doc = dict(TINY, sim=dict(TINY["sim"], m=48, replicates=1, p=32, q=32),
                   trainer={"ensemble_size": 216, "init_var": 0.1, "hidden_dims_f": [16],
                            "hidden_dims_g": [16], "activation": "tanh", "batch_size": 16,
                            "passes_over_data": 1, "jitter_var": 0.0,
                            "variance_init": "gaussian"})
        config = write_config(tmp_path, doc)
        self.run(["simulate", "--config", config, "--output-dir", str(tmp_path)])
        written = set()
        for threads in ("1", "2", "4"):
            out = tmp_path / f"threads_{threads}"
            args = ["train", "--config", config, "--output-dir", str(out),
                    "--dataset", str(tmp_path / "replicates" / "rep_000.csv")]
            run_python(f"from menkf.cli import main; raise SystemExit(main({args!r}))",
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            written.add(((out / "checkpoint.menkf").read_bytes(),
                         (out / "trace.csv").read_bytes()))
        assert len(written) == 1


class TestAggregation:
    ROW = {"coverage": 1.0, "avg_width": 0.2, "mae": 0.1, "mean_arm_weight": 0.4,
           "arm_f_weight": 0.6, "n_test": 8, "frac_wide": 0.0, "frac_contains_half": 0.5}

    def test_empty_rows(self):
        # every key of a study with replicates, each null, and no warning
        agg = _aggregate_study([])
        assert agg.pop("n_rows") == 0
        assert set(agg.values()) == {None}
        assert set(agg) | {"n_rows"} == set(_aggregate_study([self.ROW]))

    def test_one_row_has_zero_spread(self):
        agg = _aggregate_study([self.ROW])
        assert agg["n_rows"] == 1
        assert agg["width_sd"] == 0.0
        errors = {key: value for key, value in agg.items() if key.endswith("_se")}
        assert len(errors) == 7
        assert set(errors.values()) == {0.0}
        assert agg["coverage_pooled"] == agg["coverage_mean"] == 1.0
        assert agg["frac_contains_half_mean"] == 0.5

    def test_pooling_weights_by_test_size(self):
        rows = [
            self.ROW,
            {"coverage": 0.5, "avg_width": 0.4, "mae": 0.3, "mean_arm_weight": 0.2,
             "arm_f_weight": 0.8, "n_test": 2, "frac_wide": 1.0, "frac_contains_half": 0.0},
        ]
        agg = _aggregate_study(rows)
        assert agg["coverage_pooled"] == pytest.approx(0.9)
        assert agg["coverage_mean"] == pytest.approx(0.75)
        assert agg["width_mean"] == pytest.approx(0.3)
        assert agg["mean_arm_weight_mean"] == pytest.approx(0.3)
        assert agg["arm_f_weight_mean"] == pytest.approx(0.7)
        assert agg["n_rows"] == 2
        # the sd of two values is |a - b| / sqrt(2), and the se that over sqrt(2)
        assert agg["width_sd"] == pytest.approx(0.2 / 2**0.5)
        assert agg["width_se"] == pytest.approx(0.1)
        assert agg["frac_wide_mean"] == pytest.approx(0.5)
        assert agg["frac_wide_se"] == pytest.approx(0.5)
        assert agg["frac_contains_half_mean"] == pytest.approx(0.25)

    def test_every_report_key_reaches_the_study(self, tmp_path):
        # uq.STUDY_METRICS is the one list of study outputs; a report key it
        # misses would be dropped from study.csv and from study.json
        out = tmp_path / "study"
        assert main(["replicate-study", "--config", write_config(tmp_path),
                     "--output-dir", str(out)]) == 0
        header = (out / "study.csv").read_text().splitlines()[0].split(",")
        agg = read_json(out / "study.json")["aggregates"]
        report = AdequacyReport(**{f.name: 0 for f in dataclasses.fields(AdequacyReport)})
        keys = list(report.to_dict())
        assert "arm_f_weight" in keys
        for key in keys:
            assert key in header
            if key != "n_test":  # the pooling weight, aggregated as coverage_pooled
                stem = STUDY_METRICS.get(key, (key,))[0]
                assert {f"{stem}_mean", f"{stem}_se"} <= set(agg), key
        assert header == ["replicate", *STUDY_METRICS]
