"""Every ``bohrlab`` command-line check in one table, and the one runner that
runs a row in a fresh process of the console script's own code.

A row is an argv plus what its run must show.  ``tests/test_cli_checks.py``
runs every row and holds it to these rules:

* the exit code is the row's ``exit``;
* stderr is the row's ``stderr`` line, or empty where the row names none;
* a non-zero exit leaves stdout empty and writes no ``--out`` file;
* a golden row writes its golden file's bytes, through ``--out`` and on
  stdout alike;
* a row with a ``rows`` count writes a report of that many rows;
* rows with the same argv write the same bytes.

Run them with ``PYTHONPATH=src python -m pytest tests/test_cli_checks.py``,
and only the golden rows with ``-k golden``.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SRC = TESTS.parent / "src"

# What the [project.scripts] entry point runs.
ENTRY = "import sys; from bohrlab.cli import main; sys.exit(main())"


class Check(NamedTuple):
    """One command-line check; ``env`` maps a variable to its value, or to
    None to unset it, over the caller's environment."""

    argv: tuple
    exit: int = 0
    timeout: float = 30.0
    golden: Optional[str] = None
    stderr: Optional[str] = None
    rows: Optional[int] = None
    env: Optional[dict] = None


def run(argv, timeout: float, env: Optional[dict] = None) -> subprocess.CompletedProcess:
    """``argv`` through the console script's code in a fresh process on this
    tree's ``src``, with ``env`` as ``Check.env``; stdout and stderr are
    captured as bytes."""
    environ = {**os.environ, "PYTHONPATH": str(SRC)}
    for name, value in (env or {}).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], env=environ,
                          capture_output=True, timeout=timeout)


# The benchmark's 1003-point sharpness a-grid.
A_GRID = ",".join([str(k / 1000) for k in range(1000)] + ["0.9999", "0.99999", "1"])
VERIFY_500 = ("verify", "--op", "cesaro", "--beta", "1", "--samples", "500")
CURVE_MAX = ("curve", "--op", "cesaro", "--grid-min", "0.05", "--grid-max", "50",
             "--grid-points", "100000")

CHECKS = (
    # The README's command block, in its order: the first row of each golden
    # writes it (PYTHONPATH=src python tests/test_golden.py).
    Check(("radius", "--op", "cesaro", "--beta", "1"), golden="radius_cesaro.json"),
    Check(("radius", "--op", "bernardi", "--gamma", "1", "--m", "0", "--format", "csv"),
          golden="radius_bernardi.csv"),
    Check(("curve", "--op", "cesaro", "--grid-min", "0.5", "--grid-max", "3", "--grid-points",
           "26", "--format", "csv"), golden="curve_cesaro.csv"),
    Check(("verify", "--op", "cesaro", "--beta", "2", "--samples", "1000", "--seed", "7",
           "--r-mode", "below"), golden="verify_cesaro_below.json"),
    Check(("verify", "--op", "libera", "--r-mode", "above", "--r", "0.60"),
          golden="verify_libera_above.json"),
    Check(("sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5", "--format", "csv"),
          golden="sharpness_cesaro.csv"),
    Check(("selftest",), golden="selftest.json"),
    # Alexander is z * L_1[f / z]: it solves Libera's family, L_1, byte for byte.
    Check(("radius", "--op", "alexander", "--format", "csv"), golden="radius_bernardi.csv"),
    Check(("radius", "--op", "libera", "--format", "csv"), golden="radius_bernardi.csv"),

    Check(("selftest", "--seed", "7")),
    Check(("sharpness", "--op", "cesaro", "--beta", "50", "--r", "0.3", "--a-values", "0.5")),
    # Root 0.99978, near the ladder's top.
    Check(("radius", "--op", "bernardi", "--gamma", "0.06", "--m", "0")),
    Check(("radius", "--op", "bernardi", "--gamma", "1", "--m", "52")),
    # The radius equation at unit scale does not overflow at large beta.
    Check(("radius", "--op", "cesaro", "--beta", "2000")),
    Check(("verify", "--op", "bohr", "--samples", "200")),
    Check(("verify", "--op", "bernardi", "--gamma", "1", "--m", "100", "--r-mode", "above")),
    Check(("sharpness", "--op", "alexander", "--r", "0.7", "--a-values", "0.5,0.999,1")),
    # One split weight pass serves every row of the grid.
    Check(("sharpness", "--op", "alexander", "--r", "0.5", "--a-values", A_GRID), rows=1003),
    Check(("verify", "--op", "cbeta", "--beta", "1", "--r-mode", "above", "--r", "0.56")),
    # R = 0.99978 lies above the above-mode cap 0.98, so r defaults to (R + 1)/2.
    Check(("verify", "--op", "bernardi", "--gamma", "0.06", "--m", "0", "--r-mode", "above")),
    # bohrlab defaults OpenBLAS to one thread; no report may depend on that.
    Check(VERIFY_500, env={"OPENBLAS_NUM_THREADS": None}),
    Check(VERIFY_500, env={"OPENBLAS_NUM_THREADS": "4"}),
    # The largest grid streams into its file row by row, in both formats.
    Check(CURVE_MAX, timeout=60.0, rows=100_000),
    Check((*CURVE_MAX, "--format", "csv"), timeout=60.0, rows=100_000),
    # A 600-row warm-started Bernardi curve down to m + gamma = 0.15.
    Check(("curve", "--op", "bernardi", "--m", "3", "--grid-min", "-2.85", "--grid-max", "8",
           "--grid-points", "600"), rows=600),
    # Roots from 0.99978 down to 0.9356: warm rows widen up the ladder's rungs near 1.
    Check(("curve", "--op", "bernardi", "--m", "0", "--grid-min", "0.06", "--grid-max", "0.2",
           "--grid-points", "50"), rows=50),

    # The Cesaro weights are the kernel's moments, which need no c_n(beta+1)
    # (it overflows at n = 521 for beta 500) ...
    Check(("verify", "--op", "cesaro", "--beta", "500", "--samples", "5")),
    # ... up to beta 1700, with the sharp bound 1.5e293 (it overflows from
    # beta 1771 at 0.99 R).
    Check(("verify", "--op", "cesaro", "--beta", "1700", "--samples", "200")),
    # Built in O(N): order 437,469, under the 10**6-term cap ...
    Check(("sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.9999", "--a-values", "0.5")),
    # ... and order 720,349, with 49 moments run up from the bound.
    Check(("sharpness", "--op", "cesaro", "--beta", "100", "--r", "0.999", "--a-values", "0.5"),
          timeout=10.0),
    # beta log(1-r) underflows: the order takes its limit -log(1-r).
    Check(("sharpness", "--op", "cesaro", "--beta", "5e-324", "--r", "0.3", "--a-values", "0.5")),

    # Refused at once with exit 2.
    Check(("radius", "--op", "libera", "--gamma", "5"), 2, 5.0,
          stderr="parameter error: --gamma does not apply to --op libera, which takes no "
                 "operator flag"),
    Check(("curve", "--op", "cesaro", "--m", "2", "--grid-values", "1"), 2, 5.0,
          stderr="parameter error: --m does not apply to --op cesaro, which takes --beta"),
    # The above mode draws no corpus, but it echoes the draw flags.
    Check(("verify", "--op", "libera", "--r-mode", "above", "--max-factors", "-1"), 2, 5.0,
          stderr="parameter error: max_factors must be nonnegative, got -1"),
    Check(("verify", "--op", "cesaro", "--beta", "1", "--max-factors", "100000"), 2, 5.0,
          stderr="parameter error: max_factors must be at most 1000, got 100000"),
    Check(("curve", "--op", "cesaro", "--grid-min", "1", "--grid-max", "2", "--grid-points",
           "100001"), 2, 5.0,
          stderr="parameter error: a grid holds at most 100000 points, got 100001"),
    # r**0 / (0 + 1e-320) overflows to inf: refused before any row is built.
    *(Check(("sharpness", "--op", "bernardi", "--gamma", "1e-320", "--m", "0", "--r", "0.5",
             "--a-values", "0.5", "--format", fmt), 2, 5.0,
            stderr="parameter error: the sharp bound inf at r=0.5 overflows the normal float "
                   "range") for fmt in ("json", "csv")),
    # The bound (at most 1.8e306) is a normal float, but the split's sums or the
    # remainder ratio remainder / (1-a)^2 overflow: refused before any report.
    *(Check(("sharpness", "--op", "cesaro", "--beta", beta, "--r", r, "--format", fmt), 2, 5.0,
            stderr=f"parameter error: the {part} at r={r} overflows the float range")
      for beta, r, part in (("155.12", "0.99", "extremal split"),
                            ("103.75", "0.999", "extremal split"),
                            ("237.93", "0.95", "remainder ratio"))
      for fmt in ("json", "csv")),

    # Refused at once with exit 3: Cesaro weights past the 10**6-term cap,
    # refused unbuilt (the order here is about 4.6e9).
    Check(("verify", "--op", "cesaro", "--beta", "1", "--r-mode", "above", "--r", "0.99999999"),
          3, 5.0, stderr="solver error: Cesaro weights will not reach 1e-12 within 1000000 "
                         "terms at beta=1.0, r=0.99999999"),
)
