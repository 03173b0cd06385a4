"""Benchmark command-line driver.

Subcommands:

* ``run``      build one problem/solver pair from a config, write trace.csv,
               report.txt, summary.txt and restored images.
* ``suite``    run several solvers on the same problem concurrently (one
               worker process each, at most the CPU count at once), each
               writing a ``run`` directory; none starts after a failure.
* ``fstar``    long suite run that records the smallest final objective
               value, for later relative-gap reporting.
* ``certify``  replay the certifier over an existing trace.csv.

Configs are flat ``key=value`` text files; any ``--key value`` pair on the
command line overrides the file.  Exit codes: 0 ok; 2 config error, found
before any solve (a config or image file that cannot be read, a key that is
not a setting, a value that is not a finite number or that the problem or
solver rejects, a problem too large for memory, an output path that cannot
be written), an output file that cannot be written after the solve (a full
disk), or a trace.csv that ``certify`` cannot read or parse; 3 solver
failure, any ``SolverError`` (a point outside a smooth oracle's domain, a
step that fails a certificate during the run, or memory running out during
a solve), which ``suite`` and ``fstar`` prefix with the solver's name; 4
certification failure of ``certify``.  Each failure prints one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import math
import multiprocessing
import os
import sys
import typing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path

import numpy as np

from inertiafb import imaging
from inertiafb.certify import SOLVERS, solver_config, summarize
from inertiafb.i2piano import I2PianoConfig, i2piano_solve
from inertiafb.iista import IistaConfig, iista_solve
from inertiafb.ipila import IPilaConfig, ipila_solve
from inertiafb.problem import (CompositeProblem, IdentityOp, L1Norm,
                               SmoothOracle, SolverError,
                               StructuredConvexTerm, ZeroFunction)
from inertiafb.trace import Trace

PROBLEMS = ("impulse-l1", "gaussian-sd-tv", "synthetic-quadratic-l1")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERTIFY = 4

# suite workers start from a fresh interpreter and import this module by
# name, so nothing they compute depends on the parent process's state
START_METHOD = "spawn"

# the problem and run keys; the solver keys are SOLVER_KEYS
DEFAULTS = {
    "problem": "synthetic-quadratic-l1",
    "solver": "i2piano",
    "out": "runs",
    "size": "64",
    "n": "100",
    "l1_weight": "0.3",
    "blur_size": "5",
    "blur_sigma": "1.0",
    "noise_fraction": "0.15",
    "seed": "0",
    "peak": "255",
    "rho": "0.08",
    "rho_tv": "0.25",
    "a": "0.01",
    "c": "1.0",
    "solvers": "i2piano,ipila-practical,ipila-strict,iista",
    "fstar_iters": "20000",
}
# the solver settings and their types: the fields of the solver config
# classes, which hold their defaults; the solver name sets iPila's variant
SOLVER_KEYS = {key: typ for cls in (I2PianoConfig, IPilaConfig, IistaConfig)
               for key, typ in typing.get_type_hints(cls).items()
               if key != "variant"}
# the files _solve_and_write writes into each run directory
RUN_FILES = ("trace.csv", "report.txt", "summary.txt", "restored.pgm",
             "restored.npy")
# keys read as text; _i reads INT_KEYS and _f every other key
TEXT_KEYS = {"problem", "solver", "out", "solvers", "image"}
INT_KEYS = {"size", "n", "seed", "blur_size", "fstar_iters",
            *(key for key, typ in SOLVER_KEYS.items() if typ is int)}


class ConfigError(ValueError):
    pass


def _config_values(build):
    """Wraps ``build(cfg)`` so that a ValueError from checking the configured
    values (a ConfigError included, rewrapped under its own message), or a
    MemoryError from sizes too large to build, is a ConfigError."""
    @functools.wraps(build)
    def checked(cfg):
        try:
            return build(cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except MemoryError as exc:
            raise ConfigError(f"out of memory: {exc}") from None
    return checked


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    cfg = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        cfg[key.strip()] = val.strip()
    return cfg


def parse_overrides(extra) -> dict:
    out = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, _, val = key.partition("=")
        else:
            if i + 1 >= len(extra):
                raise ConfigError(f"missing value for --{key}")
            i += 1
            val = extra[i]
        out[key] = val
        i += 1
    return out


def build_settings(args, extra) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    cfg.update(parse_overrides(extra))
    if unknown := sorted(cfg.keys() - DEFAULTS.keys() - SOLVER_KEYS.keys()
                         - {"image", "f_star"}):
        raise ConfigError(f"unknown key {', '.join(unknown)}")
    # every value is checked, not only those the command reads
    for key in sorted(cfg.keys() - TEXT_KEYS):
        _number(cfg, key)
    solvers = _solver_names(cfg)
    # an output path that cannot be a directory, or a file to write that
    # is one, fails before any solve; suite and fstar write one run
    # directory per solver under out, and fstar.txt
    out = Path(cfg["out"])
    suite = getattr(args, "command", "run") != "run"
    runs = [out / s for s in solvers] if suite else [out]
    files = [out / "fstar.txt"] if suite else []
    for path in (out, *runs):
        found = next(p for p in (path, *path.parents) if p.exists())
        if not found.is_dir():
            raise ConfigError(f"out {path}: {found} is not a directory")
    for path in (*files, *(run / name for run in runs for name in RUN_FILES)):
        if path.is_dir():
            raise ConfigError(f"out {path} is a directory")
    # relative gaps divide by |f_star|
    if "f_star" in cfg and _f(cfg, "f_star") == 0.0:
        raise ConfigError("f_star must be nonzero")
    return cfg


def _f(cfg, key) -> float:
    try:
        value = float(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad numeric value for {key!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")
    return value


def _i(cfg, key) -> int:
    value = _f(cfg, key)
    if not value.is_integer():
        raise ConfigError(f"{key} must be an integer")
    return int(value)


def _number(cfg, key):
    return (_i if key in INT_KEYS else _f)(cfg, key)


def _solver_names(cfg) -> list:
    """The ``solvers`` list, after checking it and ``solver``."""
    solvers = [s.strip() for s in cfg["solvers"].split(",") if s.strip()]
    if not solvers:
        raise ConfigError("no solvers")
    if repeated := sorted({s for s in solvers if solvers.count(s) > 1}):
        raise ConfigError(f"solver {', '.join(repeated)} listed twice")
    for s in solvers + [cfg["solver"]]:
        if s not in SOLVERS:
            raise ConfigError(f"unknown solver {s!r}; choose from {SOLVERS}")
    return solvers


@functools.lru_cache(maxsize=1)
def _scene(pgm, size: int, peak: float, blur_size: int, blur_sigma: float):
    """``(truth, H, blurred)``: the image scaled to ``peak``, its Gaussian
    blur ``H`` and ``H truth``.  The image is the built-in phantom of side
    ``size`` when ``pgm`` is None, else the binary PGM file whose bytes are
    ``pgm``.  None of them depends on the seed, so a process that builds
    the same scene again (perfbench, the digest and ensemble tools, the
    tests, a ``suite`` worker that runs more than one solver) makes them
    once; an edited file has other bytes and makes a new scene.  Both
    arrays are read-only and ``H`` is immutable, so builds share them and
    ``H``'s norm bound; the memo keeps one scene."""
    truth = (imaging.phantom(size, peak=peak) if pgm is None
             else imaging.parse_pgm(pgm) * (peak / 255.0))
    kernel = imaging.gaussian_kernel(blur_size, blur_sigma)
    H = imaging.ConvOperator(kernel, kernel, truth.shape)
    blurred = H.matvec(truth.ravel())
    truth.flags.writeable = blurred.flags.writeable = False
    return truth, H, blurred


@_config_values
def build_problem(cfg: dict):
    """Returns ``(problem, x0, context)`` for the configured benchmark; a
    value the problem rejects (an even ``blur_size``, say) is a ConfigError.
    ``context["truth"]`` and the blur are the shared, read-only ``_scene``.
    """
    name = cfg["problem"]
    if name not in PROBLEMS:
        raise ConfigError(f"unknown problem {name!r}; choose from {PROBLEMS}")
    seed = _i(cfg, "seed")
    if name == "synthetic-quadratic-l1":
        n = _i(cfg, "n")
        if n < 1:
            raise ConfigError("n must be positive")
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        lam = _f(cfg, "l1_weight")
        f0 = SmoothOracle(lambda x: 0.5 * float(np.dot(x - b, x - b)),
                          lambda x: x - b)
        f1 = StructuredConvexTerm(IdentityOp(n), L1Norm(lam), ZeroFunction(),
                                  op_norm_sq_bound=1.0)
        return CompositeProblem(f0, f1), np.zeros(n), {"b": b, "lam": lam}

    size = _i(cfg, "size")
    peak = _f(cfg, "peak")
    # the restored image is written scaled by 255/peak
    if not (peak > 0 and math.isfinite(255.0 / peak)):
        raise ConfigError("peak must be positive with 255/peak finite, "
                          f"not {peak!r}")
    blur = (_i(cfg, "blur_size"), _f(cfg, "blur_sigma"))
    pgm = None
    if "image" in cfg:
        # the file may change between builds, so each build reads it and
        # the scene memo keys it by its bytes
        path = cfg["image"]
        try:
            pgm = Path(path).read_bytes()
        except OSError as exc:  # missing, a directory
            raise ConfigError(f"cannot read image file {path}: {exc}") \
                from None
    truth, H, blurred = _scene(pgm, size, peak, *blur)
    shape = truth.shape

    if name == "impulse-l1":
        g = imaging.impulse_noise(blurred.reshape(shape),
                                  _f(cfg, "noise_fraction"), seed,
                                  peak=peak).ravel()
        f0 = imaging.log_filter_regularizer(_f(cfg, "rho"), shape)
        f1 = imaging.l1_fidelity_term(H, g)
    else:  # gaussian-sd-tv
        a, c = _f(cfg, "a"), _f(cfg, "c")
        if not math.isfinite(a * float(np.max(blurred)) + c):
            raise ConfigError(f"a = {a!r}, c = {c!r}: the noise variance "
                              "a*(Hx) + c overflows")
        rng = np.random.default_rng(seed)
        std = np.sqrt(np.clip(a * blurred + c, 0.0, None))
        g = blurred + std * rng.standard_normal(blurred.size)
        f0 = imaging.gaussian_sd_fidelity(H, g, a=a, c=c)
        f1 = imaging.tv_term(_f(cfg, "rho_tv"), shape)
    return (CompositeProblem(f0, f1), np.clip(g, 0.0, None),
            {"truth": truth, "g": g, "shape": shape, "peak": peak})


@_config_values
def _solver_config(cfg: dict):
    """``(solve, config)`` for the configured solver; ``solver_config``
    reads each config field ``cfg`` holds, the others keep their defaults.
    The solve functions are looked up here at call time."""
    name = cfg["solver"]
    if name not in SOLVERS:
        raise ConfigError(f"unknown solver {name!r}; choose from {SOLVERS}")
    solve = {"i2piano": i2piano_solve, "iista": iista_solve}.get(name,
                                                                 ipila_solve)
    return solve, solver_config(name, lambda key, default: (
        _number(cfg, key) if key in cfg else default))


def run_solver(problem, x0, cfg: dict) -> Trace:
    solve, config = _solver_config(cfg)
    try:
        return solve(problem, x0, cfg=config)
    except MemoryError as exc:
        raise SolverError(f"out of memory: {exc}") from None


def _solve_and_write(cfg: dict, outdir: Path) -> Trace:
    """Builds the configured problem, solves it and writes the run
    directory: trace.csv, report.txt, summary.txt and, for an imaging
    problem, the restored image with its PSNR in summary.txt."""
    problem, x0, context = build_problem(cfg)
    trace = run_solver(problem, x0, cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    f_star = _f(cfg, "f_star") if "f_star" in cfg else None
    trace.write_csv(outdir / "trace.csv", f_star=f_star)
    report = summarize(trace)
    (outdir / "report.txt").write_text(report.format())

    summary = dict(report.summary, solver=trace.meta["solver"],
                   problem=cfg["problem"],
                   stop_reason=trace.meta["stop_reason"])
    if f_star is not None:
        summary["rel_gap_final"] = (summary["f_final"] - f_star) / abs(f_star)
    if "shape" in context:
        peak = context["peak"]
        img = trace.x_final.reshape(context["shape"])
        imaging.write_pgm(outdir / "restored.pgm", img, peak=peak)
        np.save(outdir / "restored.npy", img)
        summary["psnr_db"] = imaging.psnr(img, context["truth"], peak=peak)
    lines = [f"{k}={summary[k]}" for k in sorted(summary)]
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")
    return trace


def cmd_run(cfg: dict) -> int:
    outdir = Path(cfg["out"])
    trace = _solve_and_write(cfg, outdir)
    print(f"wrote {outdir}/trace.csv ({len(trace)} rows)")
    return EXIT_OK


def _suite_worker(item):
    cfg, outdir = item
    try:
        trace = _solve_and_write(cfg, outdir)
    except SolverError as exc:
        raise SolverError(f"{cfg['solver']}: {exc}") from None
    return cfg["solver"], float(trace.meta["f_final"])


def cmd_suite(cfg: dict) -> int:
    base = Path(cfg["out"])
    jobs = [(dict(cfg, solver=s), base / s) for s in _solver_names(cfg)]
    for job, _ in jobs:  # each solver's settings, checked before any solve
        _solver_config(job)
    # one worker process per GIL-bound solver run, at most one per CPU; a
    # job starts only on a free worker while no solve has failed
    workers, futures = min(len(jobs), os.cpu_count() or 1), []
    with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(START_METHOD)) as pool:
        for job in jobs:
            if len(busy := [f for f in futures if not f.done()]) == workers:
                wait(busy, return_when=FIRST_COMPLETED)
            if any(f.done() and f.exception() for f in futures):
                break
            futures.append(pool.submit(_suite_worker, job))
    results = [f.result() for f in futures]
    best = min(f for _, f in results)
    base.mkdir(parents=True, exist_ok=True)
    with open(base / "fstar.txt", "w") as fh:
        fh.write(f"f_star={best!r}\n")
        for name, f in results:
            fh.write(f"f_final.{name}={f!r}\n")
    for name, f in results:
        print(f"{name}: f_final={f}")
    print(f"f_star={best}")
    return EXIT_OK


def cmd_fstar(cfg: dict) -> int:
    if _i(cfg, "fstar_iters") < 1:
        raise ConfigError("fstar_iters must be at least 1")
    return cmd_suite(dict(cfg, max_outer=cfg["fstar_iters"]))


def cmd_certify(path: Path) -> int:
    try:
        report = summarize(Trace.read_csv(path))
    except (OSError, ValueError, ArithmeticError) as exc:
        # a missing or unreadable path, a malformed or empty file, or a
        # header the solver's config rejects
        print(f"bad trace file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(report.format())
    return EXIT_OK if report.ok else EXIT_CERTIFY


def make_parser() -> argparse.ArgumentParser:
    # without allow_abbrev=False, a key that prefixes an option (``--c``
    # for ``--config``) would be read as that option
    parser = argparse.ArgumentParser(
        prog="inertiafb", allow_abbrev=False,
        description="Inertial inexact forward-backward solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("run", "run one solver on one problem"),
            ("suite", "run several solvers on the same problem"),
            ("fstar", "long suite run recording the best objective value")):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("-c", "--config", help="key=value config file")

    p = sub.add_parser("certify", help="verify an existing trace.csv",
                       allow_abbrev=False)
    p.add_argument("trace", help="path to trace.csv")
    return parser


def main(argv=None) -> int:
    args, extra = make_parser().parse_known_args(argv)
    try:
        if args.command == "certify":
            return cmd_certify(Path(args.trace))
        handlers = {"run": cmd_run, "suite": cmd_suite, "fstar": cmd_fstar}
        return handlers[args.command](build_settings(args, extra))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
