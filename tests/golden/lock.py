"""The behaviour lock: 45 seeded planning runs and what they return, the
seeded inputs that the data generators write, and one seeded training run.

The runs: the untrained seed-0 default model; instance 0 of the seed-1
crossing, handover and reach problems and the seed-1 pickup-handover
problem, without and with a human base penalty of 1.0; every method of ``evaluation.METHODS``; ``SolverConfig(2, 8)``;
5 samples; seed 0.  ``lock.json`` keeps, per run, the status, ``details``,
success, reasons and objective, and a seeded subset of the entries of theta
(the modifiers, then the controls) and of both trajectories.

The generators: ``data.synth_generate`` on the default record, on the
scenario generators' walkers and on four edge configs (standing still, no
reach, a reach longer than the record, 2 frames), and the four scenario
generators.  ``lock.json`` keeps, per generator, its discrete fields, and
a seeded subset of the entries and the ``column_sums`` of its arrays: a
record's frames and goals, a problem's numbers in file order and its ground
truth.

The training run: ``human_model.train`` with the default ``ModelConfig``
(dropout on) and seed 0, for 2 epochs with augmentation, on the first two
"walkers" records (42 windows: a full 32-window batch and a tail of 10),
scored on the third (21 test windows).  ``lock.json`` keeps every
``EpochMetrics`` field but the wall time, and a seeded subset of the entries
and the ``column_sums`` of every array of the final and the best weights
(the same weights here, since the test loss falls in both epochs).

``test_golden.py`` compares fresh runs, generators and training with it.

    python tests/golden/lock.py           # sha256 digests of the full outputs
    python tests/golden/lock.py --write   # regenerate lock.json

with ``src`` on ``PYTHONPATH``.  The digests cover every bit of every
output, so two trees that print the same digests plan, generate and train
alike bit for bit: ``all`` over the runs, ``generators`` over the generators,
``training`` over the training run.

The ``training`` digest depends on the number of BLAS threads, which
splits the weight GEMMs differently.  On 2 CPUs with numpy 2.4's OpenBLAS
0.3.31, the default thread count gives ``c89e24d0…183f94`` and
``OPENBLAS_NUM_THREADS=1`` gives ``d980842b…1c95``, while ``all`` and
``generators`` are the same under both.  So two trees are compared at one
thread setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import asdict

import numpy as np

from comotion import data
from comotion import evaluation as ev
from comotion import human_model as hm
from comotion import objectives, scenarios
from comotion.solver import SolverConfig

LOCK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lock.json")
ENTRIES = 12  # stored entries per array

# name: (config, seed).  "walkers" is the scenario generators' config.
SYNTH = {
    "default": (data.SynthConfig(num_trajectories=2), 0),
    "walkers": (data.SynthConfig(num_trajectories=3, duration_frames=60,
                                 max_turn_rate=0.25, reach_frames=12), 1),
    "standing": (data.SynthConfig(num_trajectories=2, duration_frames=30, max_speed=0.0), 2),
    "no-reach": (data.SynthConfig(num_trajectories=2, duration_frames=30, reach_frames=0), 3),
    "long-reach": (data.SynthConfig(num_trajectories=2, duration_frames=12), 4),
    "two-frames": (data.SynthConfig(num_trajectories=2, duration_frames=2), 0),
}


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
    """Yields (name, discrete fields, {array name: array or None}) for each of
    the 45 runs, problems in order, then methods; the objective is the array
    "objective"."""
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
            yield f"{pname}/{method}", discrete, {"objective": np.float64(res.objective), **arrays}


def _numbers(doc) -> list[float]:
    """The numbers of a JSON document, in document order."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, (list, tuple)):
        return [x for v in doc for x in _numbers(v)]
    return [float(doc)] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def generators():
    """Yields (name, discrete fields, {array name: array}) for each locked
    generator: the synthetic records, then the scenario problems."""
    for name, (config, seed) in SYNTH.items():
        records = data.synth_generate(config, seed)
        discrete = {"subjects": [r.subject for r in records], "fps": [r.fps for r in records],
                    "annotations": [{k: v for k, v in r.annotations.items() if k != "goal"}
                                    for r in records]}
        yield f"synth/{name}", discrete, {
            "frames": np.stack([r.frames for r in records]),
            "goals": np.array([r.annotations["goal"] for r in records]),
        }
    families = {
        "crossing": scenarios.make_crossing_problems(2, 1),
        "handover": scenarios.make_handover_problems(2, 1),
        "reach": scenarios.make_reach_problems(2, 1),
        "pickup_handover": [scenarios.make_pickup_handover_problem(1)],
    }
    for name, instances in families.items():
        docs = [objectives.problem_to_doc(inst.problem) for inst in instances]
        discrete = {"ids": [inst.problem_id for inst in instances],
                    "kinds": [inst.kind for inst in instances],
                    "constraints": [[[c["kind"], c["agent"], c["link"]] for c in doc["constraints"]]
                                    for doc in docs]}
        yield f"scenarios/{name}", discrete, {
            "problems": np.array([x for doc in docs for x in _numbers(doc)]),
            "ground_truth": np.stack([inst.ground_truth for inst in instances]),
        }


def training():
    """Yields (name, discrete fields, {array name: array}) for the locked
    training run: each epoch's metrics, then the final and the best weights."""
    records = [r.frames for r in data.synth_generate(*SYNTH["walkers"])]
    result = hm.train(records[:2], hm.ModelConfig(), 0, epochs=2, test_records=records[2:])
    for metrics in result.history:
        fields = asdict(metrics)
        del fields["seconds"]
        epoch = fields.pop("epoch")
        yield f"epoch/{epoch}", {"epoch": epoch}, {k: np.float64(v) for k, v in fields.items()}
    for name, params in (("params", result.params), ("best", result.best)):
        yield name, {}, dict(params.arrays)


def _subset(array, rng):
    if array is None:
        return None
    flat = np.asarray(array, dtype=np.float64).reshape(-1)
    index = np.sort(rng.choice(flat.size, size=min(ENTRIES, flat.size), replace=False))
    return {"size": int(flat.size), "index": [int(i) for i in index],
            "value": [float(flat[i]) for i in index]}


def column_sums(array) -> np.ndarray:
    """An array's sums over every axis but its last, or a 1-D array's sum:
    a change of any one entry moves one of them."""
    a = np.asarray(array, dtype=np.float64)
    return a.reshape(-1, a.shape[-1]).sum(axis=0) if a.ndim > 1 else a.sum(keepdims=True)


def _entries(items, rng, sums=False) -> dict:
    """Per item its discrete fields, its scalars and a subset of each array,
    with the array's ``column_sums`` as "sums" when ``sums`` is set."""
    doc = {}
    for name, discrete, arrays in items:
        floats = {}
        for k, a in arrays.items():
            if a is not None and a.ndim == 0:
                floats[k] = float(a)
                continue
            floats[k] = _subset(a, rng)
            if sums:
                floats[k]["sums"] = [float(v) for v in column_sums(a)]
        doc[name] = {**discrete, **floats}
    return doc


def write_lock(path=LOCK) -> None:
    sections = {"runs": _entries(runs(), np.random.default_rng(0)),
                "generators": _entries(generators(), np.random.default_rng(1), sums=True),
                "training": _entries(training(), np.random.default_rng(2), sums=True)}
    with open(path, "w") as fh:  # one line per run or generator
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(section)}: {{\n"
            + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items())
            + "\n}" for section, doc in sections.items()) + "\n}\n")


def _digests(items, total_name):
    """Per item, the sha256 of its discrete fields and of its arrays (a
    scalar's bytes, an array's shape and bytes, or "none"); then one digest
    over all items."""
    total = hashlib.sha256()
    for name, discrete, arrays in items:
        h = hashlib.sha256(json.dumps(discrete, sort_keys=True).encode())
        for a in arrays.values():
            if a is None:
                h.update(b"none")
            else:
                h.update(b"" if a.ndim == 0 else str(a.shape).encode())
                h.update(np.ascontiguousarray(a, np.float64).tobytes())
        total.update(h.digest())
        yield name, h.hexdigest()
    yield total_name, total.hexdigest()


def digests():
    yield from _digests(runs(), "all")
    yield from _digests(generators(), "generators")
    yield from _digests(training(), "training")


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
