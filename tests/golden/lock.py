"""The behaviour lock: 45 seeded planning runs and what they return.

The runs: the untrained seed-0 default model; instance 0 of the seed-1
crossing, handover and reach problems and the seed-1 pickup-handover
problem, without and with a human base penalty of 1.0; every method of ``evaluation.METHODS``; ``SolverConfig(2, 8)``;
5 samples; seed 0.  ``lock.json`` keeps, per run, the status, ``details``,
success, reasons and objective, and a seeded subset of the entries of theta
(the modifiers, then the controls) and of both trajectories.
``test_golden.py`` compares a fresh run with it.

    python tests/golden/lock.py           # sha256 digests of the full outputs
    python tests/golden/lock.py --write   # regenerate lock.json

with ``src`` on ``PYTHONPATH``.  The digests cover every bit of every
output, so two trees that print the same digests plan alike bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np

from comotion import evaluation as ev
from comotion import human_model as hm
from comotion import scenarios
from comotion.solver import SolverConfig

LOCK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lock.json")
ENTRIES = 12  # stored entries per array
ARRAYS = ("theta", "human_traj", "robot_traj")


def problems():
    """The five locked problems, by name."""
    return {
        "crossing": scenarios.make_crossing_problems(1, 1)[0].problem,
        "handover": scenarios.make_handover_problems(1, 1)[0].problem,
        "reach": scenarios.make_reach_problems(1, 1)[0].problem,
        "pickup_handover": scenarios.make_pickup_handover_problem(1).problem,
        "pickup_handover_penalty":
            scenarios.make_pickup_handover_problem(1, human_base_penalty=1.0).problem,
    }


def runs():
    """Yields (name, discrete fields, objective, {array name: array or None})
    for each of the 45 runs, problems in order, then methods."""
    model = hm.init_params(hm.ModelConfig(), 0)
    solver_config = SolverConfig(2, 8)
    sample_config = ev.SampleConfig(num_samples=5)
    for pname, problem in problems().items():
        for method in ev.METHODS:
            rec = ev.evaluate_problem(problem, method, model, problem_id=pname,
                                      solver_config=solver_config,
                                      sample_config=sample_config, seed=0)
            res = rec.result
            parts = [a.reshape(-1) for a in (res.modifiers, res.controls) if a is not None]
            arrays = {
                "theta": np.concatenate(parts) if parts else None,
                "human_traj": res.human_traj,
                "robot_traj": res.robot_traj,
            }
            discrete = {"status": rec.solver_status, "details": res.details,
                        "success": rec.success, "reasons": rec.reasons}
            yield f"{pname}/{method}", discrete, res.objective, arrays


def _subset(array, rng):
    if array is None:
        return None
    flat = np.asarray(array, dtype=np.float64).reshape(-1)
    index = np.sort(rng.choice(flat.size, size=min(ENTRIES, flat.size), replace=False))
    return {"size": int(flat.size), "index": [int(i) for i in index],
            "value": [float(flat[i]) for i in index]}


def write_lock(path=LOCK) -> None:
    rng = np.random.default_rng(0)
    doc = {}
    for name, discrete, objective, arrays in runs():
        doc[name] = {**discrete, "objective": float(objective),
                     **{k: _subset(arrays[k], rng) for k in ARRAYS}}
    with open(path, "w") as fh:  # one line per run
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
                 + "\n}\n")


def digests():
    """Per run, the sha256 of its discrete fields, its objective's bytes and
    the bytes of its full arrays; then one digest over all runs."""
    total = hashlib.sha256()
    for name, discrete, objective, arrays in runs():
        h = hashlib.sha256(json.dumps(discrete, sort_keys=True).encode())
        h.update(np.float64(objective).tobytes())
        for k in ARRAYS:
            a = arrays[k]
            h.update(b"none" if a is None
                     else str(a.shape).encode() + np.ascontiguousarray(a, np.float64).tobytes())
        total.update(h.digest())
        yield name, h.hexdigest()
    yield "all", total.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {LOCK}")
    if parser.parse_args().write:
        write_lock()
        print(f"wrote {LOCK}")
        return
    for name, digest in digests():
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
