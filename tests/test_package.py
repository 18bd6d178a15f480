"""The package surface and the cold start of the CLI without numpy or mpmath."""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import heisencoh

# every name `heisencoh` exports, by the submodule that defines it
EXPORTED = {
    "heisenberg": [
        "G1", "G2", "G3", "IDENTITY", "HeisElement", "HeisElementN", "NormalForm",
        "commutator", "conjugate", "multiply_n", "normal_form", "reconstruct",
    ],
    "coefficients": ["CoefficientField", "read_coefficients", "write_coefficients"],
    "precision": ["PrecisionReal", "continued_fraction", "convergents", "liouville_constant"],
    "diophantine": ["ClassificationReport", "classify", "fan_member", "small_divisor"],
    "coboundary": ["CoboundaryProblem", "coboundary_from", "obstruction", "residual", "solve"],
    "fourier": ["dft", "inverse_dft", "sobolev_norm"],
    "representations": ["IrrepParams", "SemidirectElement", "character", "irrep_matrix"],
    "cohomology": ["AbelianGroupDesc", "binom", "cohomology_table"],
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES)
def test_exported_name_is_the_submodule_attribute(module, name):
    sub = importlib.import_module(f"heisencoh.{module}")
    assert getattr(heisencoh, name) is getattr(sub, name)


def test_dir_and_star_import_list_every_export():
    names = {name for _, name in NAMES}
    assert names <= set(dir(heisencoh))
    assert set(heisencoh.__all__) == names
    star = {}
    exec("from heisencoh import *", star)
    assert names <= set(star)


def test_unknown_name_and_version():
    with pytest.raises(AttributeError):
        heisencoh.no_such_name  # noqa: B018
    assert heisencoh.__version__ == "0.1.0"


# Runs `cli.main` on each (argv, stdin) of a JSON list with the modules of
# another JSON list made unimportable; prints a JSON list of [exit code,
# stdout, stderr].
BLOCKED_CHILD = """
import io, json, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None
from heisencoh import cli
results = []
for argv, stdin in json.loads(sys.argv[2]):
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    rc = cli.main(argv)
    results.append([rc, sys.stdout.getvalue(), sys.stderr.getvalue()])
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(json.dumps(results))
"""


def run_blocked(blocked, commands, child_cwd=None, normal_cwd=None):
    """Run the commands in one child without the blocked modules, and each
    of them normally by `python -m heisencoh`; assert that both exit 0 and
    print the same stdout and stderr."""
    # the package as this process imports it, from whatever directory
    path = [str(Path(heisencoh.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    child = subprocess.run(
        [sys.executable, "-c", BLOCKED_CHILD, json.dumps(blocked), json.dumps(commands)],
        capture_output=True, text=True, timeout=300, cwd=child_cwd, env=env,
    )
    assert child.returncode == 0, child.stderr
    for (argv, stdin), (rc, stdout, stderr) in zip(commands, json.loads(child.stdout)):
        normal = subprocess.run(
            [sys.executable, "-m", "heisencoh", *argv],
            input=stdin.encode(), capture_output=True, timeout=120, cwd=normal_cwd, env=env,
        )
        assert rc == normal.returncode == 0, (argv, stderr)
        assert stdout.encode() == normal.stdout, argv
        assert stderr.encode() == normal.stderr, argv


# Calls every name `heisencoh` exports on inexact input where it takes a
# real, with the modules of a JSON list made unimportable; prints a JSON
# object of each name's result as repr.
LIBRARY_CHILD = """
import io, json, sys
for name in json.loads(sys.argv[1]):
    sys.modules[name] = None
from fractions import Fraction
from heisencoh import *

golden = PrecisionReal.parse("golden")
u = [golden, PrecisionReal.parse("sqrt2")]
f = CoefficientField(2, {(1, 0): 1 + 1j, (0, 2): 0.5, (-1, 1): 2j, (3, -2): 0.25})
g = coboundary_from(f, u)
f1 = CoefficientField(1, {(1,): 1.0, (-2,): 0.5j, (5,): 0.125})
h = HeisElementN((1, 2), (3, -4), 5)
P, a = IrrepParams(3, 0.25, Fraction(2, 3), 0.5), SemidirectElement(1, 2, 4)


def written(field):
    out = io.StringIO()
    write_coefficients(field, out)
    return out.getvalue()


calls = {
    "G1": lambda: G1 * G2,
    "G2": lambda: commutator(G2, G1),
    "G3": lambda: conjugate(G1, G3),
    "IDENTITY": lambda: IDENTITY * G3,
    "HeisElement": lambda: HeisElement(1, -2, 3),
    "HeisElementN": lambda: h.inverse(),
    "NormalForm": lambda: reconstruct(NormalForm(2, -1, 5)),
    "commutator": lambda: commutator(HeisElement(1, 2, 3), HeisElement(-4, 5, 6)),
    "conjugate": lambda: conjugate(HeisElement(1, 2, 3), G1),
    "multiply_n": lambda: multiply_n(h, h),
    "normal_form": lambda: normal_form(HeisElement(7, -3, 2)),
    "reconstruct": lambda: reconstruct(normal_form(HeisElement(7, -3, 2))),
    "CoefficientField": lambda: sorted(g.items()),
    "read_coefficients": lambda: read_coefficients(io.StringIO(written(g))) == g,
    "write_coefficients": lambda: written(g),
    "PrecisionReal": lambda: float(golden),
    "continued_fraction": lambda: continued_fraction(golden, 20),
    "convergents": lambda: convergents(continued_fraction(PrecisionReal.parse("pi"), 12)),
    "liouville_constant": lambda: continued_fraction(liouville_constant(128), 12),
    "ClassificationReport": lambda: isinstance(classify(golden, 10), ClassificationReport),
    "classify": lambda: classify(u, 40, (1.0, 2.5, 3.0)),
    "fan_member": lambda: fan_member(-4, 12, 2),
    "small_divisor": lambda: small_divisor(u, (3, -2)),
    "CoboundaryProblem": lambda: CoboundaryProblem(g, u).u,
    "coboundary_from": lambda: sorted(g.items()),
    "obstruction": lambda: obstruction(g),
    "residual": lambda: residual(f, g, u),
    "solve": lambda: solve(CoboundaryProblem(g, u)),
    "dft": lambda: dft([1, 2, 3]).tolist(),
    "inverse_dft": lambda: inverse_dft(dft([1, 2, 3])).tolist(),
    "sobolev_norm": lambda: sobolev_norm(f1, 1.5),
    "IrrepParams": lambda: P.eta_numerator,
    "SemidirectElement": lambda: a.star(a),
    "character": lambda: character(P, a),
    "irrep_matrix": lambda: irrep_matrix(P, a),
    "AbelianGroupDesc": lambda: AbelianGroupDesc(2, (2, 3)),
    "binom": lambda: binom(7, 3),
    "cohomology_table": lambda: cohomology_table(2),
}
print(json.dumps({name: repr(call()) for name, call in calls.items()}))
"""


def test_library_runs_without_mpmath():
    # every exported name, on golden and sqrt2 where it takes a real, gives
    # the same results with mpmath unimportable as with it
    path = [str(Path(heisencoh.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    results = []
    for blocked in (["mpmath"], []):
        r = subprocess.run(
            [sys.executable, "-c", LIBRARY_CHILD, json.dumps(blocked)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert r.returncode == 0, r.stderr
        results.append(json.loads(r.stdout))
    assert set(results[0]) == set(heisencoh.__all__)
    assert results[0] == results[1]


CLASSIFY_ARGS = [
    ["golden", "--kmax", "3000"],
    ["e", "--kmax", "3000"],
    ["pi", "--kmax", "3000"],
    ["liouville", "--kmax", "3000"],
    ["355/113", "--kmax", "1000"],
    ["22/7", "--kmax", "1000"],
    ["golden,1/3", "--kmax", "100"],
    ["golden,sqrt2", "--kmax", "40"],
    ["golden,sqrt2,sqrt3", "--kmax", "12"],
    ["golden", "--kmax", "2000", "--prec", "256"],
    ["golden", "--kmax", "3000", "--s-grid", "1.5,2.5"],
]
NUMPY_FREE_COMMANDS = [
    *((["classify", "--vector", *args], "") for args in CLASSIFY_ARGS),
    (["group", "mul"], "1 2 3\n4 5 6\n1 0 | 0 0 | 0\n0 0 | 0 1 | 0\n"),
    (["group", "nf"], "1 2 3\n-4 0 7\n"),
    (["rep", "character", "--p", "3", "--eta", "1/3", "--alpha", "0.25", "--range", "2"], ""),
    (["rep", "matrix", "--p", "1", "--xi", "0.1", "--element", "1000000000000000 0 0"], ""),
    (["rep", "matrix", "--p", "5", "--eta", "2/5", "--xi", "0.1", "--element", "1 2 3"], ""),
    (["fan", "--lambda", "-4", "--xi", "12", "--n", "2"], ""),
    (["fan", "--lambda", "3", "--xi", "10", "--n", "1"], ""),
    (["cohomology", "--n", "3"], ""),
    (["cohomology", "--n", "2", "--k", "10"], ""),
]


def test_commands_run_without_numpy():
    run_blocked(["numpy", "mpmath"], NUMPY_FREE_COMMANDS)


GOLDEN = Path(__file__).parent / "golden"
DIM1, DIM2, DIM2_EXACT = "solve_g_dim1_r32.txt", "solve_g_dim2_r8.txt", "solve_g_dim2_r4_exact.txt"
MPMATH_FREE_COMMANDS = [
    (["solve", "--g", DIM2, "--u", "golden,sqrt2", "--verify"], ""),
    (["solve", "--g", DIM2, "--u", "golden,sqrt2", "--alpha-list", "0,1", "--out", "f_dim2_r8.txt"],
     ""),
    (["solve", "--g", DIM2_EXACT, "--u", "1/4,1/3", "--verify", "--out", "f_dim2.txt"], ""),
    (["solve", "--g", DIM1, "--u", "golden", "--alpha-list", "0,1,1.5", "--verify",
      "--out", "f_dim1.txt"], ""),
    (["solve", "--g", DIM1, "--u", "sqrt2", "--alpha-list", "0,2"], ""),
    (["solve", "--g", DIM1, "--u", "e", "--prec", "256"], ""),
    (["sobolev", "--f", DIM1, "--alpha", "1.5"], ""),
    (["sobolev", "--f", DIM1, "--alpha", "0"], ""),
    (["rep", "character", "--p", "3", "--eta", "2/3", "--alpha", "0.25", "--range", "2"], ""),
    (["rep", "matrix", "--p", "3", "--eta", "1/3", "--element", "1 2 0"], ""),
]


def test_solve_sobolev_and_rep_run_without_mpmath(tmp_path):
    # and without numpy: each side reads a copy of the inputs and writes its
    # --out files beside it
    child, normal = tmp_path / "child", tmp_path / "normal"
    for where in (child, normal):
        where.mkdir()
        for name in (DIM1, DIM2, DIM2_EXACT):
            shutil.copy(GOLDEN / name, where / name)
    run_blocked(["numpy", "mpmath"], MPMATH_FREE_COMMANDS, child, normal)
    for name in ("f_dim1.txt", "f_dim2.txt", "f_dim2_r8.txt"):
        assert (child / name).read_bytes() == (normal / name).read_bytes(), name


def test_irrational_classify_leaves_fractions_out():
    # golden and e make no Fraction: classify loads neither fractions nor
    # the decimal module that fractions imports
    code = (
        "import contextlib, io, sys; from heisencoh import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['classify', '--vector', sys.argv[1], '--kmax', '100000'])\n"
        "print(rc, [m for m in ('fractions', 'decimal') if m in sys.modules])"
    )
    for vector in ("golden", "e"):
        r = subprocess.run(
            [sys.executable, "-c", code, vector], capture_output=True, text=True, timeout=120
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == "0 []\n", vector


def test_cli_import_leaves_numpy_out():
    code = "import sys, heisencoh.cli; print('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


def test_cli_import_loads_no_command_module():
    heavy = [
        "mpmath", "numpy", "dataclasses",
        "heisencoh.diophantine", "heisencoh.cohomology", "heisencoh.heisenberg",
    ]
    code = f"import sys, heisencoh.cli; print([m for m in {heavy!r} if m in sys.modules])"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
