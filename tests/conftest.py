import os
import subprocess
import sys

import numpy as np
import pytest

import certsurv
from certsurv.losses import Batch
from certsurv.network import init_network

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


@pytest.fixture
def data_dir():
    return DATA_DIR


def cli_env():
    """Environment for a child `python -m certsurv.cli` process.

    The directory that holds the imported `certsurv` package goes first on
    PYTHONPATH as an absolute path, so the child imports the same package as
    this process whatever its working directory; a relative PYTHONPATH (such
    as `src`) would otherwise resolve against the child's cwd. The rest of
    PYTHONPATH and of the environment is passed through unchanged.
    """
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(certsurv.__file__)))
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + rest if rest else "")
    return env


def run_child(args, cwd):
    """`python -m certsurv.cli *args` in a child process under cli_env();
    returns the CompletedProcess, with stdout and stderr as text.  A
    RuntimeWarning is an error in the child, as in the tests' own process,
    and no child may end in a traceback."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "certsurv.cli",
         *[str(a) for a in args]],
        capture_output=True, text=True, cwd=cwd, env=cli_env(),
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def _drop_last_numeric(codec):
    name = codec["feature_names"].pop()
    del codec["num_stats"][name], codec["num_medians"][name]


def _int_level(codec):
    # the feature names follow, so only the level's type is wrong
    codec["fac_levels"]["fac_grade"][0] = 1
    codec["feature_names"][0] = "fac_grade=1"


# Edits to the saved codec (a dict) of a model fitted on data/stagec.csv
# that make it unusable; each must be refused when the checkpoint loads.
BAD_CODEC_EDITS = {
    "width": _drop_last_numeric,
    "std_zero": lambda c: c["num_stats"]["num_age"].__setitem__(1, 0.0),
    "std_nan": lambda c: c["num_stats"]["num_age"].__setitem__(1, np.nan),
    "median_nan": lambda c: c["num_medians"].__setitem__("num_age", np.nan),
    "int_level": _int_level,
    "reordered_names": lambda c: c["feature_names"].reverse(),
}


def random_net(rng, dims, slope=0.01, scale=1.0):
    """Network with uniform weights in [-scale, scale] and small biases."""
    net = init_network(dims, slope, seed=int(rng.integers(0, 2 ** 31)))
    for w in net.weights:
        w[:] = rng.uniform(-scale, scale, size=w.shape)
    for b in net.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    return net


def random_batch(rng, n, d, event_prob=0.6):
    X = rng.normal(size=(n, d))
    t = rng.uniform(0.2, 3.0, size=n)
    e = (rng.random(n) < event_prob).astype(int)
    if e.sum() == 0:
        e[0] = 1
    return Batch(X, t, e)


def central_diff(fn, setter, getter, h=1e-5):
    """Central finite difference of scalar fn under a parameter nudge."""
    orig = getter()
    setter(orig + h)
    fp = fn()
    setter(orig - h)
    fm = fn()
    setter(orig)
    return (fp - fm) / (2 * h)


def planted_linear_csv(path, n=40, seed=0, beta_scale=2.4):
    """Tiny dataset from a known exponential model with a planted linear
    risk over two numeric covariates; strong signal by construction."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    G = beta_scale * z[:, 0] - beta_scale * z[:, 1] - 1.5
    t_event = rng.exponential(1.0 / np.exp(G))
    t_cens = rng.exponential(12.0, size=n)
    time = np.minimum(t_event, t_cens)
    event = (t_event <= t_cens).astype(int)
    time = np.maximum(np.round(time, 4), 1e-4)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pid,event,time,num_a,num_b\n")
        for i in range(n):
            fh.write(f"{i},{event[i]},{time[i]:.4f},{z[i,0]:.5f},{z[i,1]:.5f}\n")
    return path
