"""A checked-in record of every driver's numbers, and the distance to it.

``driver_record.json`` holds, for each case below, every column of the
driver's report (``h``, ``num_elems``, ``columns``, ``slopes``), and for
Newton its iteration count, stop reason and the increment norms above
``NEWTON_FLOOR``.  Floats are written by ``repr``, so the file is exact.

Run from the repository root:

    PYTHONPATH=src python tests/driver_record.py

It recomputes every case, prints each driver's largest distance in
units in the last place (ulp) from the stored values, and writes the
new values over the record.  A change that moves no number prints
``0 ulp`` on every line and leaves the file unchanged; otherwise the
printout states the size of the move and ``git diff`` shows each moved
entry.  ``tests/test_driver_record.py`` checks the same cases at
``RTOL`` and prints the same table.

Left out: Newton's pressure and solution arrays (the pressure mean is
solve rounding amplified by 1/eps) and its increments at or below the
floor; the multigrid path (P1 from refine 5), which acceptance
criterion 3 runs.
"""

import json
import math
from pathlib import Path

import numpy as np

from trifem.problems import default_spec, run_ns_newton, run_problem

RECORD = Path(__file__).with_name("driver_record.json")

# A rounding-only change (another summation order, say) moves an entry
# by far less; a change to the discretization by far more.  1e-7 keeps
# all six printed digits.
RTOL = 1e-7
# Newton's late increments are solve rounding, 1.4e-13 at refine 3; the
# recorded ones above it are compared to this absolute tolerance too
NEWTON_FLOOR = 1e-12

_SCALAR = ("poisson", "elasticity-disp", "elasticity-tensor",
           "biharmonic-block", "biharmonic-vector", "heat")
# (problem, degree, refinements); heat P3 at refine 3 runs 19 s
CASES = tuple((p, k, 2 if (p, k) == ("heat", 3) else 3)
              for p in _SCALAR for k in (1, 2, 3)) + (("stokes", 2, 3),)
NEWTON_REFINEMENTS = (1, 2, 3)


def _report(problem, degree, refinements):
    spec = default_spec(problem, refinements=refinements,
                        degree=None if problem == "stokes" else degree)
    rep = run_problem(spec)
    return {"h": [float(v) for v in rep.h],
            "num_elems": [int(v) for v in rep.num_elems],
            "columns": {name: [float(v) for v in vals]
                        for name, vals in rep.columns.items()},
            "slopes": {name: float(v) for name, v in rep.slopes.items()}}


def _newton(refinements):
    res, _ = run_ns_newton(default_spec("ns-newton", refinements=refinements))
    return {"iterations": res.iterations, "stop_reason": res.stop_reason,
            "increment_norms": [float(v) for v in res.increment_norms
                                if v > NEWTON_FLOOR]}


def compute():
    """The record's cases, keyed like the file."""
    out = {f"{p} P{k} r{r}": _report(p, k, r) for p, k, r in CASES}
    out.update({f"ns-newton r{r}": _newton(r) for r in NEWTON_REFINEMENTS})
    return out


def load():
    return json.loads(RECORD.read_text())


def _ordinal(x):
    """x's place on the line of doubles, as a Python int."""
    i = int(np.float64(x).view(np.int64))
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _pairs(got, stored, path=""):
    """(path, got, stored) for each number and string of the stored
    entry; a dict or list that got does not match in keys or length is
    one pair."""
    if isinstance(stored, dict) and isinstance(got, dict) and got.keys() == stored.keys():
        for k in stored:
            yield from _pairs(got[k], stored[k], f"{path}/{k}")
    elif isinstance(stored, list) and isinstance(got, list) and len(got) == len(stored):
        for i, (g, s) in enumerate(zip(got, stored)):
            yield from _pairs(g, s, f"{path}[{i}]")
    else:
        yield path, got, stored


def _floats(got, stored):
    return isinstance(got, float) and isinstance(stored, float)


def ulps(got, stored):
    """Largest distance in ulp between two entries of the record; inf
    where they differ in shape, in an integer or in a string."""
    return max((abs(_ordinal(g) - _ordinal(s)) if _floats(g, s)
                else 0 if type(g) is type(s) and g == s else math.inf
                for _, g, s in _pairs(got, stored)), default=0)


def mismatches(got, stored):
    """Where got and stored differ by more than RTOL (NEWTON_FLOOR more
    for Newton's increments), as 'path: got vs stored' lines."""
    out = []
    for path, g, s in _pairs(got, stored):
        atol = NEWTON_FLOOR if "increment_norms" in path else 0.0
        if not (abs(g - s) <= atol + RTOL * abs(s) if _floats(g, s)
                else type(g) is type(s) and g == s):
            out.append(f"{path}: {g!r} vs {s!r}")
    return out


def by_driver(got, stored):
    """Each driver's largest ulp distance, over its cases."""
    out = {}
    for case, entry in stored.items():
        driver = case.split()[0]
        out[driver] = max(out.get(driver, 0), ulps(got.get(case), entry))
    return out


def table(distances):
    return "\n".join(f"{driver:<18} {d} ulp" for driver, d in distances.items())


def main():
    got = compute()
    stored = load() if RECORD.exists() else {}
    if stored:
        print(table(by_driver(got, stored)))
    RECORD.write_text(json.dumps(got, indent=1) + "\n")
    print(f"wrote {len(got)} cases to {RECORD}")


if __name__ == "__main__":
    main()
