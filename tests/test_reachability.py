"""Every function in ``src/inertiafb`` is one the program runs.

The command line is run under ``sys.settrace`` in a fresh interpreter, so
that what runs while the package is imported counts too: ``run`` for each
problem and solver on a small instance, ``certify`` on each trace and one
short ``fstar``.  A function that none of them enters is code the program
does not need, unless ``NOT_ENTERED`` names it: helpers the acceptance
criteria call, abstract methods, and the suite worker, which runs in a
child process of its own.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import inertiafb
from inertiafb import cli, imaging
from inertiafb.certify import SOLVERS

NOT_ENTERED = {
    "certify.check_H1", "certify.check_H4",
    "certify.check_prox_certificates", "certify.check_duality_gap",
    "certify.check_param_identities", "certify.check_armijo",
    "ipila.phi_value", "problem.check_gradient", "problem.adjoint_residual",
    "trace.csv_equal_ignoring_time", "trace._strip_time",
    "problem.LinearOp.matvec", "problem.LinearOp.rmatvec",
    "problem.ProxFunction.value", "problem.ProxFunction.prox",
    "problem.ProxFunction.conjugate",
    "cli._suite_worker",
}

# run by a fresh interpreter: argv[1] is a scratch directory; writes the
# (module, first line, qualname) of every package function entered
TRACED = """
import json, sys
from pathlib import Path
import numpy, scipy.ndimage  # imported untraced, so tracing stays cheap

entered = set()

def tracer(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

previous = sys.gettrace()
sys.settrace(tracer)
try:
    from tests.test_reachability import run_cli
    run_cli(Path(sys.argv[1]))
finally:
    sys.settrace(previous)
import inertiafb
package = Path(inertiafb.__file__).parent
Path(sys.argv[1], "entered.json").write_text(json.dumps(
    [(Path(f).stem, line, name) for f, line, name in entered
     if Path(f).parent == package]))
"""


def _functions(code):
    """``(first line, qualname)`` of every function ``code`` defines,
    nested ones included; lambdas, comprehensions and class bodies are not
    functions here."""
    found = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            if (const.co_flags & inspect.CO_NEWLOCALS
                    and not const.co_name.startswith("<")):
                found.add((const.co_firstlineno, const.co_qualname))
            found |= _functions(const)
    return found


def defined_functions() -> dict:
    """``{(module, first line, qualname): "module.qualname"}`` over the
    package's modules."""
    found = {}
    for path in sorted(Path(inertiafb.__file__).parent.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for line, name in _functions(code):
            found[(path.stem, line, name)] = f"{path.stem}.{name}"
    return found


def run_cli(tmp_path):
    """Each problem x solver at size 8 for 3 iterations, certify on each
    trace, then one short fstar."""
    image = tmp_path / "image.pgm"
    imaging.write_pgm(image, imaging.phantom(8))
    for problem in cli.PROBLEMS:
        config = tmp_path / f"{problem}.txt"
        config.write_text(f"problem={problem}\nsize=8\nmax_outer=3\n")
        extra = ["--f_star", "1"]
        if problem != "synthetic-quadratic-l1":
            extra += ["--image", str(image)]
        if problem == "gaussian-sd-tv":
            extra += ["--tau", "0.01"]
        for solver in SOLVERS:
            out = tmp_path / problem / solver
            assert cli.main(["run", "-c", str(config), "--solver", solver,
                             *extra, "--out", str(out)]) == 0
            assert cli.main(["certify", str(out / "trace.csv")]) == 0
    assert cli.main(["fstar", "--fstar_iters", "2", "--solvers", "iista",
                     "--out", str(tmp_path / "fstar")]) == 0


def test_every_function_is_entered(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))
    subprocess.run([sys.executable, "-c", TRACED, str(tmp_path)], env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=300)
    entered = {tuple(key) for key in
               json.loads((tmp_path / "entered.json").read_text())}
    defined = defined_functions()
    assert len(defined) > 100
    assert NOT_ENTERED <= set(defined.values())
    never = {name for key, name in defined.items() if key not in entered}
    assert never == NOT_ENTERED
