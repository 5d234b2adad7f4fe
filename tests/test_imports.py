"""The import boundary: ``import bohrlab``, ``radius``, ``curve``,
``sharpness`` and ``verify --r-mode above`` run on the standard library
alone, without ``dataclasses`` or ``inspect`` (which would only add
start-up time), and the commands that build arrays
(``verify --r-mode below`` and ``selftest``) load numpy themselves, with
OpenBLAS held to one thread.  Each command runs in a fresh interpreter,
because the test process has imported numpy long before.  Every function
the benchmark's tracer wraps by name is where it looks for it."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bohrlab

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``bohrlab`` with the given arguments, then prints its exit code and
# whether numpy, dataclasses and inspect were imported; the report goes to
# --out, not stdout.
PROBE = """
import json, sys
from bohrlab.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, **{m: m in sys.modules for m in ("numpy", "dataclasses", "inspect")}}))
"""
STDLIB_ONLY = {"numpy": False, "dataclasses": False, "inspect": False}


def fresh_python(code, *args, **env_overrides):
    # An in-process ``main`` call has set OPENBLAS_NUM_THREADS here already;
    # each child starts without it unless the caller sets it.
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_overrides)
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
    ("sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5", "--a-values", "0,0.5,1"),
    ("sharpness", "--op", "cbeta", "--beta", "2", "--r", "0.5", "--a-values", "0.5,0.9"),
    ("sharpness", "--op", "libera", "--r", "0.5", "--a-values", "0.5,0.9"),
    ("sharpness", "--op", "bernardi", "--gamma", "0.3", "--m", "2", "--r", "0.5"),
    ("verify", "--op", "libera", "--r-mode", "above", "--r", "0.6"),
    ("verify", "--op", "cesaro", "--beta", "1", "--r-mode", "above"),
)

ARRAY_COMMANDS = (
    ("verify", "--op", "cesaro", "--beta", "2", "--samples", "20", "--r-mode", "below"),
    ("selftest",),
)


def test_import_bohrlab_loads_no_numpy():
    proc = fresh_python("import sys, bohrlab; print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_command_loads_no_numpy(argv, tmp_path):
    result, _ = probe(*argv, out=tmp_path / "report")
    assert result == {"code": 0, **STDLIB_ONLY}


def test_refused_corner_loads_no_numpy():
    result, err = probe("radius", "--op", "bernardi", "--gamma", "1e-9", "--m", "0")
    assert result == {"code": 2, **STDLIB_ONLY}
    assert len(err.splitlines()) == 1


def test_refused_draw_flag_loads_no_numpy():
    result, err = probe("verify", "--op", "libera", "--r-mode", "above", "--max-factors", "-1")
    assert result == {"code": 2, **STDLIB_ONLY}
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", ARRAY_COMMANDS, ids=" ".join)
def test_array_commands_still_run(argv, tmp_path):
    result, _ = probe(*argv, out=tmp_path / "report")
    # numpy imports inspect itself; bohrlab adds no dataclasses
    assert (result["code"], result["numpy"], result["dataclasses"]) == (0, True, False)


def test_sharpness_loads_no_corpus(tmp_path):
    # the extremal row is built in sharpness, not drawn from the corpus
    argv = ("sharpness", "--op", "alexander", "--r", "0.7", "--a-values", "0.5,0.999,1")
    proc = fresh_python(PROBE + "print('bohrlab.corpus' in sys.modules)\n",
                        *argv, "--out", str(tmp_path / "report"))
    code, corpus_loaded = proc.stdout.splitlines()[-2:]
    assert json.loads(code)["code"] == 0 and corpus_loaded == "False"


# Runs ``bohrlab`` with the given arguments, then prints its exit code, the
# OpenBLAS thread setting before and after ``main``, whether numpy was
# imported, and the process's thread count.
BLAS_PROBE = """
import json, os, sys
from bohrlab.cli import main
before = os.environ.get("OPENBLAS_NUM_THREADS")
code = main(sys.argv[1:])
threads = len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "before": before,
                  "after": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": threads}))
"""


def test_blas_is_single_threaded_unless_the_user_chose(tmp_path):
    argv = ("verify", "--op", "libera", "--samples", "300")
    default_out, chosen_out = tmp_path / "default", tmp_path / "chosen"
    default = json.loads(
        fresh_python(BLAS_PROBE, *argv, "--out", str(default_out)).stdout.splitlines()[-1]
    )
    chosen = json.loads(
        fresh_python(BLAS_PROBE, *argv, "--out", str(chosen_out),
                     OPENBLAS_NUM_THREADS="2").stdout.splitlines()[-1]
    )
    # importing bohrlab.cli leaves the environment alone; main sets the default
    assert default["code"] == 0 and default["before"] is None and default["after"] == "1"
    assert default["numpy"]
    if sys.platform.startswith("linux"):
        assert default["threads"] == 1  # no OpenBLAS worker beside the main thread
    # a user-set value wins, and the report does not depend on it
    assert chosen["code"] == 0 and chosen["before"] == chosen["after"] == "2"
    assert chosen_out.read_bytes() == default_out.read_bytes()


# The package's exports, submodules included.
EXPORTS = [
    "Alexander", "BLASCHKE_ZERO_CAP", "BOHR_BASELINE_RADIUS", "Bernardi", "Blaschke",
    "BohrlabError", "BracketError", "CBeta", "CesaroBeta", "ClassicalBohr",
    "ContinuityError", "CurveRow", "Decomposition", "Libera",
    "OperatorKind", "ParameterDomainError", "PreconditionError", "PrimitiveI",
    "QuadratureError", "RadiusResult", "Shifted", "TruncationError", "ViolationReport",
    "adaptive_simpson", "binomial_coeffs", "bohr_majorant", "cauchy_product",
    "cesaro_series_order", "concavity_check", "corpus", "critical_radius",
    "cumulative_identity_residual", "decomposition_bernardi",
    "decomposition_cesaro", "decompositions", "derive_seed", "errors", "evaluate", "expand",
    "extremal_majorant",
    "horner", "kernel_integral", "majorant_value", "multiply_by_z",
    "operator_coeffs", "operators", "quadrature_value", "radii",
    "radius_curve", "radius_equation", "random_schur", "random_schur_block",
    "schwarz_shift", "series", "series_order", "sharpness",
    "solve_radius", "sup_bound", "taylor_coeffs",
    "violation_search",
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
        from bohrlab import operators, radii, series

        assert bohrlab.solve_radius is radii.solve_radius
        assert bohrlab.Bernardi is operators.Bernardi
        assert bohrlab.radii is radii
        # one recurrence, defined in operators and imported by series
        assert bohrlab.binomial_coeffs is operators.binomial_coeffs is series.binomial_coeffs

    @pytest.mark.parametrize("module", bohrlab._EXPORTS)
    def test_module_all_is_its_table_entry(self, module):
        # the table is the one list: a module's __all__ and star-import are its entry
        names = bohrlab._EXPORTS[module]
        assert importlib.import_module(f"bohrlab.{module}").__all__ == names
        namespace = {}
        exec(f"from bohrlab.{module} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(names)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bohrlab.no_such_name


def test_corpus_loads_no_series():
    # a Taylor series is a plain complex array; the corpus needs no series type
    proc = fresh_python("import sys, bohrlab.corpus; print('bohrlab.series' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_the_tracer_finds_every_layer():
    # benchmarks/tracing.py looks its layers up by name on bohrlab's modules;
    # a src/ rename or deletion it does not follow would break a traced bench run
    path = SRC.parent / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bohrlab_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in tracing._MODULES:
        importlib.import_module(f"bohrlab.{module}")
    for module, name in tracing.LAYERS:
        found = getattr(importlib.import_module(f"bohrlab.{module}"), name, None)
        assert callable(found), f"bohrlab.{module}.{name}"
