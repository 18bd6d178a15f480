"""The package surface and the cold start of the CLI without numpy or mpmath."""

import importlib
import json
import subprocess
import sys

import pytest

import heisencoh

# every name `heisencoh` exports, by the submodule that defines it
EXPORTED = {
    "heisenberg": [
        "G1", "G2", "G3", "IDENTITY", "HeisElement", "HeisElementN", "NormalForm",
        "commutator", "conjugate", "inverse", "is_central", "matrix_embed",
        "multiply", "multiply_n", "normal_form", "reconstruct",
    ],
    "coefficients": ["CoefficientField", "read_coefficients", "write_coefficients"],
    "precision": ["PrecisionReal", "continued_fraction", "convergents", "liouville_constant"],
    "diophantine": ["ClassificationReport", "classify", "fan_member", "small_divisor"],
    "coboundary": ["CoboundaryProblem", "coboundary_from", "obstruction", "residual", "solve"],
    "fourier": ["SampledFunction", "dft", "difference", "inverse_dft", "is_radial", "sobolev_norm"],
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


# Runs `cli.main` on each (argv, stdin) of a JSON list with numpy and mpmath
# made unimportable; prints a JSON list of [exit code, stdout].
NO_NUMPY_CHILD = """
import io, json, sys
sys.modules["numpy"] = None
sys.modules["mpmath"] = None
from heisencoh import cli
results = []
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin, sys.stdout = io.StringIO(stdin), io.StringIO()
    rc = cli.main(argv)
    results.append([rc, sys.stdout.getvalue()])
sys.stdout = sys.__stdout__
print(json.dumps(results))
"""

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
    *(
        (["classify", "--vector", *args, *fmt], "")
        for args in CLASSIFY_ARGS
        for fmt in ([], ["--format", "json"])
    ),
    (["group", "mul"], "1 2 3\n4 5 6\n1 0 | 0 0 | 0\n0 0 | 0 1 | 0\n"),
    (["group", "nf"], "1 2 3\n-4 0 7\n"),
    (["fan", "--lambda", "-4", "--xi", "12", "--n", "2"], ""),
    (["fan", "--lambda", "3", "--xi", "10", "--n", "1", "--format", "json"], ""),
    (["cohomology", "--n", "3"], ""),
    (["cohomology", "--n", "2", "--format", "json"], ""),
]


def test_commands_run_without_numpy():
    child = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_CHILD, json.dumps(NUMPY_FREE_COMMANDS)],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    for (argv, stdin), (rc, stdout) in zip(NUMPY_FREE_COMMANDS, results):
        normal = subprocess.run(
            [sys.executable, "-m", "heisencoh", *argv],
            input=stdin.encode(), capture_output=True, timeout=120,
        )
        assert rc == normal.returncode == 0, argv
        assert stdout.encode() == normal.stdout, argv


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
