"""The import boundary: ``import bohrlab``, ``radius`` and ``curve`` run on
the standard library alone, and the commands that build arrays load numpy
themselves.  Each command runs in a fresh interpreter, because the test
process has imported numpy long before."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bohrlab

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``bohrlab`` with the given arguments, then prints its exit code and
# whether numpy was imported; the report goes to --out, not stdout.
PROBE = """
import json, sys
from bohrlab.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def fresh_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def probe(*argv, out=None):
    args = [*argv, "--out", str(out)] if out is not None else list(argv)
    proc = fresh_python(PROBE, *args)
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


NUMPY_FREE = (
    ("radius", "--op", "cesaro", "--beta", "1"),
    ("radius", "--op", "cbeta", "--beta", "2"),
    ("radius", "--op", "libera"),
    ("radius", "--op", "alexander"),
    ("radius", "--op", "primitive"),
    ("radius", "--op", "bernardi", "--gamma", "1", "--m", "0"),
    ("curve", "--op", "cesaro", "--grid-min", "0.5", "--grid-max", "3", "--grid-points", "5"),
    ("curve", "--op", "bernardi", "--m", "1", "--grid-values", "0,0.5,2"),
)

ARRAY_COMMANDS = (
    ("verify", "--op", "cesaro", "--beta", "2", "--samples", "20"),
    ("sharpness", "--op", "libera", "--r", "0.5", "--a-values", "0.5,0.9"),
    ("selftest",),
)


def test_import_bohrlab_loads_no_numpy():
    proc = fresh_python("import sys, bohrlab; print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_radius_and_curve_load_no_numpy(argv, tmp_path):
    result, _ = probe(*argv, out=tmp_path / "report")
    assert result == {"code": 0, "numpy": False}


def test_refused_corner_loads_no_numpy():
    result, err = probe("radius", "--op", "bernardi", "--gamma", "1e-9", "--m", "0")
    assert result == {"code": 2, "numpy": False}
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=" ".join)
def test_array_commands_still_run(argv, tmp_path):
    result, _ = probe(*argv, out=tmp_path / "report")
    assert result == {"code": 0, "numpy": True}


# The package's exports before they resolved lazily, submodules included.
EXPORTS = [
    "Alexander", "BLASCHKE_ZERO_CAP", "BOHR_BASELINE_RADIUS", "Bernardi", "Blaschke",
    "BohrlabError", "BoundedFunction", "BracketError", "CBeta", "CesaroBeta", "ClassicalBohr",
    "CoefficientSequence", "Constant", "ContinuityError", "CurveRow", "Decomposition",
    "ExtremalPhi", "ExtremalPsi", "Libera", "OperatorKind", "ParameterDomainError",
    "Polynomial", "PreconditionError", "PrimitiveI", "QuadratureError", "RadiusProblem",
    "RadiusResult", "Shifted", "TruncationError", "ViolationReport", "adaptive_simpson",
    "binomial_coeffs", "bohr_majorant", "cauchy_product", "cesaro_series_order",
    "concavity_check", "corpus", "critical_radius", "cumulative_identity_residual",
    "decomposition", "decomposition_bernardi", "decomposition_cesaro", "derive_seed", "errors",
    "evaluate", "expand", "extremal_majorant", "extremal_phi", "extremal_psi", "horner",
    "kernel_integral", "majorant_value", "majorant_values", "multiply_by_z", "operator_coeffs",
    "operators", "quadratic_remainder_check", "quadrature_value", "radii", "radius_curve",
    "radius_equation", "random_schur", "random_schur_block", "required_origin_zeros",
    "schwarz_shift", "series", "series_order", "sharpness", "solve_radius", "suggested_order",
    "sup_bound", "taylor_coeffs", "taylor_matrix", "validate_membership", "violation_search",
]


class TestLazyExports:
    def test_all_is_unchanged(self):
        assert sorted(bohrlab.__all__) == EXPORTS

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from bohrlab import *", namespace)
        for name in EXPORTS:
            assert namespace[name] is getattr(bohrlab, name)

    def test_names_are_the_submodules_bindings(self):
        from bohrlab import operators, radii

        assert bohrlab.solve_radius is radii.solve_radius
        assert bohrlab.Bernardi is operators.Bernardi
        assert bohrlab.radii is radii

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bohrlab.no_such_name
