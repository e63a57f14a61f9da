"""Every driver's numbers against the checked-in record
(``driver_record.py`` says what it holds and how to regenerate it).

The test fails when an entry moves by more than ``RTOL``, and prints
each driver's largest distance in ulp (run with -s to see it), so a
change can state "bit for bit" or the size of a move."""

import math

import pytest

from driver_record import by_driver, compute, load, mismatches, table, ulps


def test_every_driver_matches_its_record():
    got, stored = compute(), load()
    print("\n" + table(by_driver(got, stored)))
    assert got.keys() == stored.keys()
    assert mismatches(got, stored) == []


@pytest.mark.parametrize("got, stored, expected", [
    (1.0, 1.0, 0),
    (1.0, 1.0000000000000002, 1),
    (-0.0, 0.0, 0),
    (-5e-324, 5e-324, 2),
    ([0.5, 2.0], [0.5, 2.0000000000000004], 1),
    ({"a": [1]}, {"a": [1]}, 0),
    ({"a": [1]}, {"a": [2]}, math.inf),
    ([1.0], [1.0, 2.0], math.inf),
    ({"b": 1.0}, {"a": 1.0}, math.inf),
    ("tolerance", "max_iter", math.inf),
])
def test_ulps_counts_the_doubles_between(got, stored, expected):
    assert ulps(got, stored) == expected


def test_a_move_beyond_the_tolerance_is_named():
    stored = {"poisson P1 r3": {"columns": {"L2": [1.0, 2.0]}},
              "ns-newton r1": {"increment_norms": [3e-11]}}
    got = {"poisson P1 r3": {"columns": {"L2": [1.0, 2.0 * (1 + 1e-6)]}},
           "ns-newton r1": {"increment_norms": [3.05e-11]}}
    assert mismatches(got, stored) == [
        "/poisson P1 r3/columns/L2[1]: 2.000002 vs 2.0"]
