"""Correctness checks of the benchmark's workloads, written apart from menkf.

Each check reads the files a `menkf` command wrote and returns a list of
problems, empty when the outputs are right. Nothing here imports the
package: the checkpoint is parsed from its documented byte layout, the state
layout and the arm forward pass are written out again from the README and
the `arms` module docstring, and quantiles are taken from sorted order
statistics. The limits are properties the method must have on every seed,
never a stored copy of an earlier output.
"""

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# Agreement between the program's interval endpoints and a recomputation
# that sums in another order (float64 rounding differences are ~1e-16).
TOL = 1e-12
# 95% intervals must cover most truths (acceptance criterion 4's limit).
MIN_COVERAGE = 0.85
# Intervals must be sharper than the prior's, which spans nearly all of
# [0, 1] (mean width 1.000 on the library defaults). Criterion 4's tighter
# 0.5 holds on its seed but not on every seed, so it is not checked here.
MAX_WIDTH = 0.9


# ----------------------------------------------------------------- formats

def read_checkpoint(path):
    """(header, members) from a version-1 `.menkf` file.

    Layout: b"MENKFCKP", u32 version, u64 header length, JSON header, then
    n_members x dim little-endian float64 values, row-major.
    """
    raw = Path(path).read_bytes()
    if raw[:8] != b"MENKFCKP":
        raise ValueError(f"{path}: bad magic")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != 1:
        raise ValueError(f"{path}: version {version}, expected 1")
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    header = json.loads(raw[20:20 + header_len].decode())
    canon = json.dumps(header["config"], sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canon.encode()).hexdigest() != header["config_sha256"]:
        raise ValueError(f"{path}: config hash mismatch")
    n, d = header["n_members"], header["dim"]
    body = raw[20 + header_len:]
    if len(body) != n * d * 8:
        raise ValueError(f"{path}: body of {len(body)} bytes, expected {n * d * 8}")
    return header, np.frombuffer(body, dtype="<f8").reshape(n, d)


def read_table(path):
    """CSV as (header, rows of strings)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_columns(path, names):
    """Named CSV columns as float arrays."""
    header, rows = read_table(path)
    idx = [header.index(name) for name in names]
    return {name: np.array([float(row[i]) for row in rows]) for name, i in zip(names, idx)}


def read_dataset(path):
    """(V_f, V_g, true_prob) of a dataset CSV, by its emb_f_* / emb_g_* columns."""
    header, rows = read_table(path)
    values = np.array([[float(x) for x in row] for row in rows])
    f_cols = [i for i, name in enumerate(header) if name.startswith("emb_f_")]
    g_cols = [i for i, name in enumerate(header) if name.startswith("emb_g_")]
    return values[:, f_cols], values[:, g_cols], values[:, header.index("true_prob")]


def tree_digest(directory):
    """{relative path: sha256} of every file under a directory."""
    root = Path(directory)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ------------------------------------------------------------------- model

def param_count(arm):
    widths = [arm["input_dim"], *arm["hidden_dims"], 1]
    return sum((i + 1) * o for i, o in zip(widths[:-1], widths[1:]))


def layout(config):
    """Index map of a member: [w_f | pad | 0 0 | w_g | pad | a b]."""
    n_f, n_g = param_count(config["arm_f"]), param_count(config["arm_g"])
    n_pad = max(n_f, n_g)
    height = n_pad + 2
    active = np.r_[0:n_f, height:height + n_g, height + n_pad, height + n_pad + 1]
    zeros = np.setdiff1d(np.arange(2 * height), active)
    return {"dim": 2 * height, "wf": slice(0, n_f), "wg": slice(height, height + n_g),
            "a": height + n_pad, "b": height + n_pad + 1, "zeros": zeros}


def arm_outputs(arm, weights, v):
    """(members, rows) arm outputs, one member at a time.

    Per layer the weights are a column-major (fan_in, fan_out) matrix followed
    by fan_out biases; hidden layers apply the activation, the output does not.
    """
    act = {"identity": lambda z: z, "tanh": np.tanh,
           "relu": lambda z: np.maximum(z, 0.0)}[arm["activation"]]
    widths = [arm["input_dim"], *arm["hidden_dims"], 1]
    out = np.empty((weights.shape[0], v.shape[0]))
    for i, w in enumerate(weights):
        z, k = v, 0
        for layer, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            mat = w[k:k + fan_in * fan_out].reshape((fan_in, fan_out), order="F")
            k += fan_in * fan_out
            z = z @ mat + w[k:k + fan_out]
            k += fan_out
            if layer < len(widths) - 2:
                z = act(z)
        out[i] = z[:, 0]
    return out


def logistic(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def member_probs(config, members, v_f, v_g):
    """(members, rows) probabilities of the arm-averaged logits."""
    lay = layout(config)
    weight_g = logistic(members[:, lay["a"]])[:, None]
    logits = ((1.0 - weight_g) * arm_outputs(config["arm_f"], members[:, lay["wf"]], v_f)
              + weight_g * arm_outputs(config["arm_g"], members[:, lay["wg"]], v_g))
    return logistic(logits)


def linear_quantile(sorted_draws, q):
    """Quantile of each column by interpolating at h = q (n - 1) between order statistics."""
    h = q * (sorted_draws.shape[0] - 1)
    lo = math.floor(h)
    hi = min(lo + 1, sorted_draws.shape[0] - 1)
    return sorted_draws[lo] + (h - lo) * (sorted_draws[hi] - sorted_draws[lo])


def _close(name, got, want, problems):
    if abs(got - want) > TOL:
        problems.append(f"{name}: {got!r} != recomputed {want!r}")


# ---------------------------------------------------------------- workloads

def check_evaluate(out_dir, checkpoint, test_csv):
    """`menkf evaluate`: intervals and report against a numpy recomputation."""
    problems = []
    header, members = read_checkpoint(checkpoint)
    config = header["config"]
    v_f, v_g, truth = read_dataset(test_csv)
    probs = np.sort(member_probs(config, members, v_f, v_g), axis=0)
    point = probs.mean(axis=0)
    lo, hi = linear_quantile(probs, 0.025), linear_quantile(probs, 0.975)

    got = read_columns(Path(out_dir) / "intervals.csv",
                       ["row", "point", "lo", "hi", "width", "true_prob"])
    if got["row"].size != truth.size or np.any(got["row"] != np.arange(truth.size)):
        return problems + [f"intervals.csv: rows are not 0..{truth.size - 1}"]
    for name, want in (("point", point), ("lo", lo), ("hi", hi),
                       ("width", got["hi"] - got["lo"])):
        worst = float(np.max(np.abs(got[name] - want)))
        if not worst <= TOL:
            problems.append(f"intervals.csv {name}: off by {worst:.3g} (> {TOL})")
    if np.any(got["true_prob"] != truth):
        problems.append("intervals.csv true_prob differs from the test CSV")

    report = json.loads((Path(out_dir) / "report.json").read_text())
    coverage = float(np.mean((lo <= truth) & (truth <= hi)))
    width = float(np.mean(hi - lo))
    _close("coverage", report["coverage"], coverage, problems)
    _close("avg_width", report["avg_width"], width, problems)
    mae = float(np.mean(np.abs(point - truth)))
    _close("mae", report["mae"], mae, problems)
    weight_g = float(np.mean(logistic(members[:, layout(config)["a"]])))
    _close("mean_arm_weight", report["mean_arm_weight"], weight_g, problems)
    if report["n_test"] != truth.size:
        problems.append(f"n_test {report['n_test']} != {truth.size}")
    if not coverage >= MIN_COVERAGE:
        problems.append(f"coverage {coverage:.4f} < {MIN_COVERAGE}")
    if not width < MAX_WIDTH:
        problems.append(f"avg width {width:.4f} >= {MAX_WIDTH}")
    _beats_constant(mae, truth, problems)
    return problems


def check_study(out_dir, replicates, test_n):
    """`menkf replicate-study`: no failures, adequacy limits, pooled coverage."""
    problems = []
    study = json.loads((Path(out_dir) / "study.json").read_text())
    agg = study["aggregates"]
    if study["failures"]:
        problems.append(f"failed replicates: {sorted(study['failures'])}")
    if study["n_replicates"] != replicates or agg["n_rows"] != replicates:
        problems.append(f"{agg['n_rows']} of {study['n_replicates']} replicates "
                        f"reported, expected {replicates}")
    cols = read_columns(Path(out_dir) / "study.csv",
                        ["replicate", "coverage", "avg_width", "n_test"])
    if np.any(cols["replicate"] != np.arange(replicates)):
        problems.append(f"study.csv: replicates are not 0..{replicates - 1}")
    elif np.any(cols["n_test"] != test_n):
        problems.append(f"study.csv: n_test is not {test_n} on every row")
    else:
        pooled = float((cols["coverage"] * cols["n_test"]).sum() / cols["n_test"].sum())
        if pooled != agg["coverage_pooled"]:
            problems.append(f"coverage_pooled {agg['coverage_pooled']!r} != "
                            f"{pooled!r} recomputed from study.csv")
        _close("width_mean", agg["width_mean"], float(cols["avg_width"].mean()), problems)
    if not agg["coverage_pooled"] >= MIN_COVERAGE:
        problems.append(f"pooled coverage {agg['coverage_pooled']:.4f} < {MIN_COVERAGE}")
    if not agg["width_mean"] < MAX_WIDTH:
        problems.append(f"mean width {agg['width_mean']:.4f} >= {MAX_WIDTH}")
    # The well-specified truth is a function of V_f alone, so arm f must
    # carry the larger share of the weight. Criterion 4's 0.9 holds on its
    # seed but not on every seed, so it is not checked here.
    if not agg["arm_f_weight_mean"] > 0.5:
        problems.append(f"informative-arm weight {agg['arm_f_weight_mean']:.4f} <= 0.5")
    return problems


def check_train(out_dir, dataset_csv, steps):
    """`menkf train`: a sound checkpoint, a full trace, and a model that learned."""
    problems = []
    header, members = read_checkpoint(Path(out_dir) / "checkpoint.menkf")
    config = header["config"]
    lay = layout(config)
    if members.shape[1] != lay["dim"]:
        return [f"checkpoint dim {members.shape[1]} != layout dim {lay['dim']}"]
    if not np.all(np.isfinite(members)):
        problems.append("checkpoint members are not all finite")
    if np.any(members[:, lay["zeros"]] != 0.0):
        problems.append("checkpoint structural zeros are not exactly 0")

    trace = read_columns(Path(out_dir) / "trace.csv", ["step", "weight_g", "noise_var"])
    if trace["step"].size != steps or np.any(trace["step"] != np.arange(steps)):
        problems.append(f"trace.csv: steps are not 0..{steps - 1}")
    if not np.all(trace["noise_var"] > 0.0):
        problems.append("trace.csv: noise_var <= 0")
    if not np.all((trace["weight_g"] > 0.0) & (trace["weight_g"] < 1.0)):
        problems.append("trace.csv: weight_g outside (0, 1)")

    v_f, v_g, truth = read_dataset(dataset_csv)
    point = member_probs(config, members, v_f, v_g).mean(axis=0)
    _beats_constant(float(np.mean(np.abs(point - truth))), truth, problems)
    return problems


def _beats_constant(mae, truth, problems):
    constant = float(np.mean(np.abs(0.5 - truth)))
    if not mae < constant:
        problems.append(f"ensemble-mean MAE {mae:.4f} >= constant-0.5 MAE {constant:.4f}")
