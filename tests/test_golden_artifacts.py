"""Golden digests of the CLI's artifacts on the bundled instances.

Each case runs ``python -m sdnop`` in a subprocess with one BLAS thread
and compares its exit code, and the SHA-256 of every file it writes,
with the values pinned below.  Any change to a bit of an iterate, a
residual or a ratio fails here, so a change that means to keep results
identical is checked by the suite itself; a change that means to alter
them re-pins the digests and says which moved.  The digests hold for
one numpy/BLAS build: another build may round differently, and then
they must be re-pinned from a tree known to be right.

The fixed-penalty exact solve (``c0 = c_max = 100``, ``grad_tol_rel =
0``) is the path on which ``alm_solve`` leaves a row's spectral half of
the KKT residual pending until it is read; ``solve`` writes every row,
so it also checks that a pending row, once formed, has the eager bits.

The generated cases pin the generator, which builds the benchmark's
inputs: ``generate`` at (24, 10, 3, 8), seed 7, in each profile, then
``solve``, ``check`` and ``rate-sweep --seed 7`` on the instance it
wrote.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sdnop

INSTANCES = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "instances")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sdnop.__file__)))
BUNDLED = ("nondegen_small", "degen_small", "saddle_small")
FIXED_PENALTY = {"c0": 100, "c_max": 100, "inner": {"grad_tol_rel": 0}}

COMMANDS = {
    "solve": ["solve"],
    "solve-fixed": ["solve", "--config", None],
    "check": ["check"],
    "rate-sweep": ["rate-sweep", "--seed", "7"],
}

# (instance, command) -> (exit code, {file name: SHA-256})
GOLDEN = {
    ("nondegen_small", "solve"): (0, {
        "solution.json":
            "265c891cb06aaf70855c248ed4e6c59bfa6d04cb4ec121b96d775fa4aa2e8417",
        "trace.csv":
            "7f92881b647183ca91e7577c88f6eafa9f209eb0d0cd93cfa282a75cc9c2874f",
    }),
    ("nondegen_small", "solve-fixed"): (0, {
        "solution.json":
            "570bc54cc52b09e0b4acf62861a52880828335696901663786a3fe08f1eb45fd",
        "trace.csv":
            "768a06a3282b2b0a6ef697175fb92e37c4ab7ac341db7ce788f3cae5be31d720",
    }),
    ("nondegen_small", "check"): (0, {
        "report.json":
            "6abe89e8834982cc940edea7e3b78e15e48b83cf4daa00e3c20312f7d14ccb03",
    }),
    ("nondegen_small", "rate-sweep"): (0, {
        "fit.json":
            "8c011179a586edcf0bc223958b083d397d4985d429a4bc64639023b66fb62c2b",
        "rate.csv":
            "ecdc5cc2cb9d8e08caedc3710bc469a05567c45c1a13029af5a84fcd25e3008b",
    }),
    ("degen_small", "solve"): (0, {
        "solution.json":
            "4b8e4d764d18f45efe03c3e6f773dbb0c6d937776b35dd387669469e8dfac59d",
        "trace.csv":
            "cdea4c68fcbc72ac9b2071ed11431af9891de74a8b8e13ec7085e1e4b2ed5385",
    }),
    ("degen_small", "solve-fixed"): (0, {
        "solution.json":
            "a285ec1836f92aff70c9ca366e8323a953becb12125ff422d2d4d815d3dcdb90",
        "trace.csv":
            "76bf36e096c6b44d0a9b2352fb3c9b3de5b8a7342edbb4982abbcfb20436188e",
    }),
    ("degen_small", "check"): (0, {
        "report.json":
            "61b3bb0b36c52cdfd6769376a90f50c4ae8996f77b2f099fc4d5f01b8057dd57",
    }),
    ("degen_small", "rate-sweep"): (0, {
        "fit.json":
            "abd13f0832f57f6ca3f86c5aff4e12ba3bae22fff5b95edc14d3546b97a97769",
        "rate.csv":
            "67bd46d41212cd27b5ed5f848a3472b4264edb756bed848c1f7e8ce902c31335",
    }),
    ("saddle_small", "solve"): (3, {
        "trace.csv":
            "dd210820bf5bbd62bd83e5bde03139b645c2ee995bc8902a093f17f1d2ffb1c8",
    }),
    ("saddle_small", "solve-fixed"): (3, {
        "trace.csv":
            "dd210820bf5bbd62bd83e5bde03139b645c2ee995bc8902a093f17f1d2ffb1c8",
    }),
    ("saddle_small", "check"): (0, {
        "report.json":
            "3d3f8abd95aee4d0757b470713bbcdf005441b70b0ee0e4b64d0ceec7ea049d9",
    }),
    ("saddle_small", "rate-sweep"): (4, {
        "fit.json":
            "f525da1a804654a751e4d0856adf6785cbb67cc6ae8690633be03af8029f8086",
        "rate.csv":
            "f05cb6fb020914b390d92fffec1e8625ee53df134c14bac99c40713ae335191c",
    }),
}

PROFILES = ("nondegen", "degen", "saddle")
GENERATE = ["--n", "24", "--q", "10", "--m", "3", "--p", "8", "--seed", "7"]
# (profile, command) -> (exit code, {file name: SHA-256})
GENERATED = {
    ("nondegen", "generate"): (0, {
        "instance.json":
            "02821ec1fe22bfd02427c5e21fe0bf0b10db82d5c271de42b5c821463b3210e2",
    }),
    ("nondegen", "solve"): (0, {
        "solution.json":
            "a3dc9b53327af4236d733c179a9d07cb7c6586baa8d294f55b8cd85c054ec3ac",
        "trace.csv":
            "798611e2dca082e2afa6b6eaa79ac7edf6f19ff5c583f8d5bf1c572d64ba3e11",
    }),
    ("nondegen", "check"): (0, {
        "report.json":
            "c82e23ab74839c575ae7c156cbbb6839c5a8357fd42a5521b5600c0629a2d351",
    }),
    ("nondegen", "rate-sweep"): (0, {
        "fit.json":
            "2c93483c37fe0f009dc27fb0fbaa89252c04e1b6a2e503b683950ac623f80b19",
        "rate.csv":
            "0be97717fe3d985bf6c3d6c4f5209c5f9bf5ad669cec81e19d13b85037f3a0f7",
    }),
    ("degen", "generate"): (0, {
        "instance.json":
            "0bc1f273eb1823800f25d05a79ac8a329c5bb6ddaebdb0628dae316b5028cd31",
    }),
    ("degen", "solve"): (0, {
        "solution.json":
            "0e1ef87bcb13347ca6f7c935ffec1c01af3962bcec15defc59eeb7acf4ba8ea7",
        "trace.csv":
            "c744db534a962a49f53d87cea527ddcc0ea45291a4058147b9bc9b09bd119f65",
    }),
    ("degen", "check"): (0, {
        "report.json":
            "ee9c2b27189d0fb4f8d6cf97fb953591fe6a7ef05be09daa76cdde1abbcc5007",
    }),
    ("degen", "rate-sweep"): (0, {
        "fit.json":
            "5c500f2a59447d5049a4e1081998284ebafde3a80830c2d12892850145bdee3e",
        "rate.csv":
            "62c4a5cc3f491c78677bf65a31ea05179f85626a192f280dfdd92d7eabf741b5",
    }),
    ("saddle", "generate"): (0, {
        "instance.json":
            "53e86bc83c2655546be57f15b6fe0a5d34059eaa8515625ef3676bd03edb8d4c",
    }),
    ("saddle", "solve"): (3, {
        "trace.csv":
            "dd210820bf5bbd62bd83e5bde03139b645c2ee995bc8902a093f17f1d2ffb1c8",
    }),
    ("saddle", "check"): (0, {
        "report.json":
            "5898d1ecb1826356f83f3ddfb1c7f4beee45320f4bce8a70c1064ed8e167fa7a",
    }),
    ("saddle", "rate-sweep"): (4, {
        "fit.json":
            "f525da1a804654a751e4d0856adf6785cbb67cc6ae8690633be03af8029f8086",
        "rate.csv":
            "f05cb6fb020914b390d92fffec1e8625ee53df134c14bac99c40713ae335191c",
    }),
}


def _sdnop(out, argv):
    """Run ``python -m sdnop`` with ``argv`` and ``--out out``; return its
    exit code and the SHA-256 of every file it wrote."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    env.pop("SDNOP_LOG", None)
    proc = subprocess.run(
        [sys.executable, "-m", "sdnop", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env)
    digests = {}
    for entry in sorted(os.listdir(out)) if out.exists() else ():
        with open(out / entry, "rb") as fh:
            digests[entry] = hashlib.sha256(fh.read()).hexdigest()
    return proc.returncode, digests


def _run(tmp_path, name, command):
    args = [arg if arg is not None else str(tmp_path / "fixed.json")
            for arg in COMMANDS[command]]
    return _sdnop(tmp_path / f"{name}-{command}",
                  [args[0], os.path.join(INSTANCES, f"{name}.json"),
                   *args[1:]])


def _run_all(tmp_path):
    (tmp_path / "fixed.json").write_text(json.dumps(FIXED_PENALTY))
    return {(name, command): _run(tmp_path, name, command)
            for name in BUNDLED for command in COMMANDS}


def _run_generated(tmp_path):
    got = {}
    for profile in PROFILES:
        made = tmp_path / f"generated-{profile}"
        got[(profile, "generate")] = _sdnop(
            made, ["generate", *GENERATE, "--profile", profile])
        instance = str(made / "instance.json")
        for command in ("solve", "check", "rate-sweep"):
            got[(profile, command)] = _sdnop(
                tmp_path / f"{profile}-{command}",
                [COMMANDS[command][0], instance, *COMMANDS[command][1:]])
    return got


def test_artifacts_match_golden_digests(tmp_path):
    got = _run_all(tmp_path)
    assert got.keys() == GOLDEN.keys()
    moved = sorted(key for key in GOLDEN if got[key] != GOLDEN[key])
    assert not moved, {key: (GOLDEN[key], got[key]) for key in moved}


def test_generated_artifacts_match_golden_digests(tmp_path):
    got = _run_generated(tmp_path)
    assert got.keys() == GENERATED.keys()
    moved = sorted(key for key in GENERATED if got[key] != GENERATED[key])
    assert not moved, {key: (GENERATED[key], got[key]) for key in moved}


# ----------------------------------------------------------------------------
# golden iterates at the benchmark sizes, in process
# ----------------------------------------------------------------------------

SOLVE_DIMS = (40, 16, 4, 14)
SWEEP_DIMS = (24, 10, 3, 8)
SWEEP_GRID = (10.0, 100.0, 1000.0, 10000.0)
# name -> SHA-256 of the run's iterates (see _iterate_digests)
ITERATES = {
    "alm_solve nondegen start 0":
        "a749d30c982bbe77e7cad025ab354c4077f8835aa0704ee66becc25b8abe8d63",
    "alm_solve nondegen start 1":
        "a986d1cf75925966b8e51137fd4b11b34818399d7db20e3bb50ba4ba3e60276d",
    "alm_solve degen start 0":
        "ee1f2a4827889887d633c4c8b67fdee2604473ab2723ca7649e49f103f2c7d51",
    "alm_solve degen start 1":
        "e5a592d9019b9512122f2a6f596bc4e5060c6d0e13c51d9c1859bc1573c08de6",
    "rate_sweep nondegen":
        "edf3f8fddc450695b2019a9187ad137b0d8a1ce1e92b8c0ed771a55f6674ac69",
}


def _feed(h, *values):
    """Hash each value's exact bits: arrays and floats as float64 bytes,
    anything else by its repr."""
    for v in values:
        if isinstance(v, (np.ndarray, float)):
            h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
        else:
            h.update(repr(v).encode())


def _solve_digest(P, x0):
    """Digest of an adaptive ``alm_solve`` from (x0, 0): the final point,
    every trace row, the inner counts and the stop reason."""
    point, trace = sdnop.alm_solve(P, sdnop.MultiplierTriple.zeros(P),
                                   sdnop.ALMConfig(), x0,
                                   reference=P.reference)
    h = hashlib.sha256()
    y = point.multipliers
    _feed(h, point.x, y.Y, y.mu, y.Gamma, point.residual.as_dict())
    for k, res in enumerate(trace.residuals):
        y = trace.multipliers[k]
        _feed(h, trace.penalties[k], trace.points[k], y.Y, y.mu, y.Gamma,
              res.as_dict(), trace.inner_iterations[k], trace.dist_x[k],
              trace.dist_y[k])
    _feed(h, trace.stop)
    return h.hexdigest()


def _iterate_digests():
    """The digests ``ITERATES`` pins: an adaptive solve of the generated
    nondegen and degen instances at the solve benchmark's size, seed 7,
    from two seeded starts within radius 1 of the reference point, and
    the rate sweep of the generated nondegen instance at the sweep
    benchmark's size, seed 7, perturbation seed 7."""
    got = {}
    for profile in ("nondegen", "degen"):
        P = sdnop.generate_instance(*SOLVE_DIMS, profile=profile, seed=7)
        for start in (0, 1):
            rng = np.random.RandomState(start)
            u = rng.randn(P.n)
            x0 = P.reference.x + rng.uniform(0.0, 1.0) * u / np.linalg.norm(u)
            got[f"alm_solve {profile} start {start}"] = _solve_digest(P, x0)
    P = sdnop.generate_instance(*SWEEP_DIMS, profile="nondegen", seed=7)
    fit = sdnop.rate_sweep(P, P.reference, SWEEP_GRID, seed=7)
    h = hashlib.sha256()
    _feed(h, json.dumps(fit.as_dict(), sort_keys=True))
    got["rate_sweep nondegen"] = h.hexdigest()
    return got


def test_iterates_match_golden_digests():
    # in a subprocess, so that the BLAS runs on one thread as above
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SRC)
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import test_golden_artifacts as t; "
            "print(json.dumps(t._iterate_digests()))")
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(__file__)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    moved = sorted(key for key in ITERATES if got.get(key) != ITERATES[key])
    assert got.keys() == ITERATES.keys()
    assert not moved, {key: (ITERATES[key], got[key]) for key in moved}
