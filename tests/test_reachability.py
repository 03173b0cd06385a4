"""Every line in ``src/inertiafb`` is one the program runs.

A fresh interpreter runs the program under ``sys.settrace`` and records the
line events in the package's files; importing the package is traced too.
It runs :func:`run_cli` (``run`` for each problem and solver on a small
instance, ``certify`` on each trace, one short ``fstar``, and commands that
end in exit codes 2, 3 and 4), then ``tools/trace_digest.traces(size=32)``,
the runs of the byte-identity gate, which reach every stop reason, prox
branch and acceptance branch.

The unit is a statement inside a function; a compound statement counts by
its header (the ``if`` test, the ``for`` target and iterable, ...).  It ran
when a line event fell on one of its lines.  A statement that never ran is
code the program does not need, unless one of these rules covers it:

1. it lies in a function that ``NOT_ENTERED`` names: the helpers the
   acceptance criteria call, abstract methods, and the suite worker, which
   runs in a child process of its own.  No statement of such a function
   may run;
2. it is a ``raise`` statement: an error path;
3. it returns ``np.inf`` or ``-np.inf``, alone or first in a tuple: the
   value of an extended-real function off its domain, where the program's
   iterates never go;
4. ``NEVER_RUN`` names it, by module, function and the source text of its
   first line, with the reason the program keeps it.  Each entry must name
   exactly one statement, and that statement must never run.

A rule is no reason to keep a line that a command can reach: a new case in
:func:`run_cli` is preferred to a new ``NEVER_RUN`` entry.  Run as a script,
``python tests/test_reachability.py [--src PATH]`` applies the gate to the
package under PATH (a checkout or its ``src``), prints each statement no
rule covers and exits 1 if there is one.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

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

# (module, function, source text of the statement's first line) -> reason
NEVER_RUN = {
    ("fb", "run", "on_step(k, state, new)"):
        "the transition observer ipila_solve takes; criterion 6 replays the "
        "Armijo inequality through it",
    ("prox_engine", "solve_inexact_prox", "inner_hook(it, h, psi)"):
        "the inner-iterate observer; criterion 3 checks weak duality at "
        "every inner iterate through it",
    ("problem", "power_iteration_sq_norm", "break"):
        "M^T M v = 0 only for a zero operator, whose term the constructor "
        "rejects; dividing by lam = 0 would fill v with NaN",
    ("imaging", "psnr", "return 300.0"):
        "a restoration equal to the truth, where log10 of 1/0 is inf",
}

# run by a fresh interpreter: argv[1] is a scratch directory; writes the
# package directory and the (module, line) of every line event in it
TRACED = """
import importlib.util, json, sys
from pathlib import Path
import numpy  # imported untraced, so tracing stays cheap

package = Path(importlib.util.find_spec("inertiafb").origin).resolve().parent
ran, ours = set(), {}

def in_package(filename):
    if filename not in ours:
        ours[filename] = Path(filename).resolve().parent == package
    return ours[filename]

def local(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return local

def tracer(frame, event, arg):
    return local if in_package(frame.f_code.co_filename) else None

previous = sys.gettrace()
sys.settrace(tracer)
try:
    from tests.test_reachability import run_cli
    from tools.trace_digest import traces
    run_cli(Path(sys.argv[1]))
    traces(size=32)
finally:
    sys.settrace(previous)
Path(sys.argv[1], "ran.json").write_text(json.dumps(
    {"package": str(package),
     "lines": [(Path(f).stem, line) for f, line in ran]}))
"""


def run_cli(tmp_path):
    """Each problem x solver at size 8 for 3 iterations, certify on each
    trace, one short fstar, then commands that reach the rarer paths: a
    config file with a comment, a ``--key=value`` override, a non-square
    PGM image with a header comment, no impulse noise, a one-row i2Piano
    trace, one command for each nonzero exit code, and a prox engine at a
    fixed point of a subproblem that overflows."""
    from inertiafb import cli, imaging
    from inertiafb.certify import SOLVERS

    # a 7x8 image, so the blur builds one band matrix per axis
    image = tmp_path / "image.pgm"
    imaging.write_pgm(image, imaging.phantom(8)[:7])
    image.write_bytes(image.read_bytes().replace(b"P5\n", b"P5\n# 7x8\n", 1))
    for problem in cli.PROBLEMS:
        config = tmp_path / f"{problem}.txt"
        config.write_text(f"# {problem}\n\nproblem={problem}\nsize=8\n"
                          "max_outer=3\n")
        extra = ["--f_star=1"]
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
    assert cli.main(["run", "--problem", "impulse-l1", "--size", "8",
                     "--noise_fraction", "0", "--max_outer", "1",
                     "--out", str(tmp_path / "clean")]) == 0
    one = tmp_path / "one-row"
    assert cli.main(["run", "--max_outer", "1", "--out", str(one)]) == 0
    assert cli.main(["certify", str(one / "trace.csv")]) == 0

    # a config error, a solver failure, a trace that fails certify and one
    # that certify cannot read
    bad = tmp_path / "bad"
    assert cli.main(["run", "--tau", "-1", "--out", str(bad)]) == 2
    assert cli.main(["certify", str(bad / "trace.csv")]) == 2
    assert cli.main(["run", "--tau", "0", "--max_inner", "0",
                     "--out", str(bad)]) == 3
    # every candidate's h overflows, and the dual iterates repeat
    assert cli.main(["run", "--solver", "ipila-strict", "--alpha_max",
                     "1e200", "--max_outer", "4", "--max_inner", "10",
                     "--out", str(bad)]) == 3
    # an iPila row whose lambda_k is NaN, after a blank line
    good = tmp_path / "synthetic-quadratic-l1" / "ipila-strict" / "trace.csv"
    lines = good.read_text().splitlines()
    header = next(line for line in lines if not line.startswith("#"))
    fields = lines[-1].split(",")
    fields[header.split(",").index("lambda_k")] = "nan"
    lines[-1:] = ["", ",".join(fields)]
    (tmp_path / "tampered.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["certify", str(tmp_path / "tampered.csv")]) == 4
    (tmp_path / "empty.csv").write_text("")
    assert cli.main(["certify", str(tmp_path / "empty.csv")]) == 2


def by_rule(node) -> bool:
    """Whether rule 2 or 3 covers the statement ``node``: a ``raise``, or a
    ``return`` of ``np.inf`` or ``-np.inf``, alone or first in a tuple."""
    if isinstance(node, ast.Raise):
        return True
    value = node.value if isinstance(node, ast.Return) else None
    if isinstance(value, ast.Tuple):
        value = value.elts[0]
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
        value = value.operand
    return value is not None and ast.unparse(value) == "np.inf"


def statements(path: Path):
    """``[(qualname, node, lines)]`` for each statement inside a function
    of the module at ``path``; ``lines`` holds the lines whose events mean
    it ran, a compound statement's header only."""
    out = []

    def block(body, qualname):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                first = min(n.lineno for n in [node, *node.decorator_list])
                out.append((qualname, node, range(first, node.body[0].lineno)))
                scope(node, f"{qualname}.<locals>.{node.name}")
            elif hasattr(node, "body"):
                if not isinstance(node, ast.Try):  # a try line runs nothing
                    out.append((qualname, node,
                                range(node.lineno, node.body[0].lineno)))
                for field in ("body", "orelse", "finalbody"):
                    block(getattr(node, field, []), qualname)
                for handler in getattr(node, "handlers", []):
                    block(handler.body, qualname)
            else:
                out.append((qualname, node,
                            range(node.lineno, node.end_lineno + 1)))

    def scope(node, qualname):
        """The statements of the function ``node``, or of a class's
        methods; a docstring runs no code."""
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    scope(item, f"{qualname}.{item.name}")
        else:
            docstring = ast.get_docstring(node) is not None
            block(node.body[docstring:], qualname)

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope(node, node.name)  # module-level code runs at import
    return out


def trace_program(tmp_path, src=REPO / "src") -> dict:
    """Runs ``TRACED`` on the package under ``src``; returns its
    ``{"package": dir, "lines": [(module, line)]}``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(REPO), *filter(None, sys.path)]))
    done = subprocess.run([sys.executable, "-c", TRACED, str(tmp_path)],
                          env=env, cwd=tmp_path, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads((tmp_path / "ran.json").read_text())


def gate(traced: dict) -> list:
    """The gate's findings on a ``trace_program`` result: one line for
    each statement that never ran and no rule covers, for each
    ``NOT_ENTERED`` function that ran, and for each stale ``NEVER_RUN``
    entry."""
    ran = {tuple(key) for key in traced["lines"]}
    findings, named = [], dict.fromkeys(NEVER_RUN, 0)
    functions, entered = set(), set()
    for path in sorted(Path(traced["package"]).glob("*.py")):
        source = path.read_text().splitlines()
        for qualname, node, lines in statements(path):
            function = f"{path.stem}.{qualname}"
            functions.add(function)
            text = source[node.lineno - 1].strip()
            key = (path.stem, qualname, text)
            if any((path.stem, line) in ran for line in lines):
                entered.add(function)
                if key in NEVER_RUN:
                    findings.append(f"NEVER_RUN entry ran: {key}")
                continue
            if key in named:
                named[key] += 1
            elif function not in NOT_ENTERED and not by_rule(node):
                findings.append(f"never run: {path.name}:{node.lineno} "
                                f"({qualname}): {text}")
    findings += [f"NOT_ENTERED names a function that ran: {name}"
                 for name in sorted(NOT_ENTERED & entered)]
    findings += [f"NOT_ENTERED names no function: {name}"
                 for name in sorted(NOT_ENTERED - functions)]
    findings += [f"NEVER_RUN entry names {count} never-run statements: {key}"
                 for key, count in named.items() if count != 1]
    return findings


def test_every_line_is_run_or_allowlisted(tmp_path):
    traced = trace_program(tmp_path)
    assert len(traced["lines"]) > 1000
    assert gate(traced) == []


def main(argv=None) -> int:
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="checkout or src directory to gate")
    args = parser.parse_args(argv)
    src = Path(args.src or REPO / "src").resolve()
    if (src / "src" / "inertiafb").is_dir():
        src = src / "src"
    with tempfile.TemporaryDirectory() as tmp:
        findings = gate(trace_program(Path(tmp), src))
    for finding in findings:
        print(finding)
    print(f"{len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
