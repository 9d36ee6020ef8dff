"""The behaviour lock (``tests/golden``): 45 seeded planning runs, the
seeded data generators and one seeded training run return what
``lock.json`` holds.

Discrete fields (status, details, success, reasons, array sizes; a
generator's subjects, annotations, problem ids and constraint kinds) must
match exactly.  Floats (the objective and the stored entries of theta and of
both trajectories; a generator's frames, goals, problem numbers and ground
truth, and their column sums, which move with any one entry) must match
within a relative bound, not bit for bit: CI's Python 3.10
job runs a different numpy, and OpenBLAS picks its kernels per CPU, so a
product may round differently in the last bit.

- Runs, within ``RTOL``.  Measured when the lock was made: a 1e-15 relative
  perturbation of every model weight moved these outputs by at most 5.1e-12
  by this test's measure and changed no discrete field, so 1e-8 leaves three
  orders of magnitude for such rounding while any change of the math shows.
- Training, within ``RTOL``.  A 1e-15 relative perturbation of every
  initial weight moved its metrics by at most 7.3e-16 and its weights by at
  most 1.0e-13 by this test's measure.
- Generators, within ``GENERATOR_RTOL``.  They run no long product, only
  3×3 rotations, an SVD per blended arm frame and forward kinematics, so a
  last-bit rounding moves their outputs by a few ulps at most.

Bit-exact claims use the digests that ``python tests/golden/lock.py`` prints.

A change that moves the outputs on purpose regenerates the lock with
``python tests/golden/lock.py --write`` and says which entries moved, and
why.
"""

import json

import numpy as np
import pytest

from golden import lock

RTOL = 1e-8
GENERATOR_RTOL = 1e-10
with open(lock.LOCK) as _fh:
    _DOC = json.load(_fh)
LOCKED = _DOC["runs"]
LOCKED_GENERATORS = _DOC["generators"]
LOCKED_TRAINING = _DOC["training"]


def deviation(value, ref, scale):
    """|value - ref| relative to max(|ref|, scale); 0 for equal values."""
    value, ref = np.asarray(value, np.float64), np.asarray(ref, np.float64)
    denom = np.maximum(np.abs(ref), scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(value == ref, 0.0, np.abs(value - ref) / denom)
    return float(np.max(rel, initial=0.0))


def compare(entry, discrete, arrays):
    """The discrete fields that differ and the largest float deviation of
    one fresh run or generator from its locked entry.  A scalar's deviation
    is relative to itself; an array's is taken relative to its largest
    stored entry, and its column sums, where stored, relative to the
    largest sum, so entries near 0 in an array of metres are not held to a
    relative bound of their own."""
    wrong = [k for k in discrete if json.loads(json.dumps(discrete[k])) != entry[k]]
    worst = 0.0
    for name, a in arrays.items():
        ref = entry[name]
        if a is None or ref is None:
            if (a is None) != (ref is None):
                wrong.append(name)
            continue
        if a.ndim == 0:
            worst = max(worst, deviation(a, ref, 0.0))
            continue
        flat = np.asarray(a, np.float64).reshape(-1)
        if flat.size != ref["size"]:
            wrong.append(f"{name} size")
            continue
        stored = np.asarray(ref["value"])
        scale = float(np.max(np.abs(stored), initial=0.0))
        worst = max(worst, deviation(flat[ref["index"]], stored, scale))
        if "sums" in ref:
            sums = np.asarray(ref["sums"])
            worst = max(worst, deviation(lock.column_sums(a), sums,
                                         float(np.max(np.abs(sums)))))
    return wrong, worst


@pytest.fixture(scope="module")
def fresh():
    return {name: rest for name, *rest in lock.runs()}


@pytest.fixture(scope="module")
def fresh_generators():
    return {name: rest for name, *rest in lock.generators()}


def test_the_lock_holds_every_method_on_every_problem(fresh):
    assert list(fresh) == list(LOCKED)
    assert len(LOCKED) == 45


@pytest.mark.parametrize("name", list(LOCKED))
def test_a_run_returns_what_the_lock_holds(fresh, name):
    wrong, worst = compare(LOCKED[name], *fresh[name])
    assert wrong == []
    assert worst <= RTOL


def test_the_lock_holds_every_generator(fresh_generators):
    assert list(fresh_generators) == list(LOCKED_GENERATORS)
    assert [n.split("/")[0] for n in LOCKED_GENERATORS] == ["synth"] * 6 + ["scenarios"] * 4


@pytest.mark.parametrize("name", list(LOCKED_GENERATORS))
def test_a_generator_returns_what_the_lock_holds(fresh_generators, name):
    wrong, worst = compare(LOCKED_GENERATORS[name], *fresh_generators[name])
    assert wrong == []
    assert worst <= GENERATOR_RTOL


def test_training_returns_what_the_lock_holds():
    fresh = {name: rest for name, *rest in lock.training()}
    assert list(fresh) == list(LOCKED_TRAINING) == ["epoch/0", "epoch/1", "params", "best"]
    for name, entry in LOCKED_TRAINING.items():
        wrong, worst = compare(entry, *fresh[name])
        assert wrong == [], name
        assert worst <= RTOL, name
