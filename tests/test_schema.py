"""The file layer: atomic savers and the row-file parser shared by three formats."""

import builtins
import os
import re

import numpy as np
import pytest

from comotion import data as cd
from comotion import environment as env
from comotion import human_model as hm
from comotion import objectives as obj
from comotion import robot_model as rm
from comotion import schema
from comotion.kinematics import KinematicsError
from helpers import identity_state


def trajectory_record(n=4):
    frames = np.tile(identity_state((0.1, 0.2, 0.9)), (n, 1))
    frames[:, 0] += 0.02 * np.arange(n)
    return cd.TrajectoryRecord("s0", 20.0, frames)


class FailingFile:
    """A file whose second write raises, after its first has reached the disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.fh.flush()
            raise OSError("disk full")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def failing_writes(monkeypatch):
    """Make every file ``schema`` opens fail at its second write."""
    monkeypatch.setattr(schema, "open", lambda *a, **kw: FailingFile(builtins.open(*a, **kw)),
                        raising=False)


def disc_grid():
    return env.build_sdf(env.Scene((env.Disc((0.0, 0.0), 1.0),), env.Rect((0, 0), (2, 2))), 0.25)


def robot_problem():
    return obj.ProblemSpec(steps=3, robot_initial=np.zeros(7),
                           constraints=[obj.ConstraintSpec(kind="goal", agent="robot",
                                                           link="base", target=(0.2, 0.0, 0.0))])


SAVERS = {
    "trajectories": lambda path: cd.save_trajectories(
        [trajectory_record(), cd.TrajectoryRecord("s1", 20.0, np.zeros((3, 129)))], path),
    "robot trajectory": lambda path: rm.save_robot_trajectory(np.zeros((3, 7)), path),
    "sdf": lambda path: env.save_sdf(disc_grid(), path),
    "problem": lambda path: obj.save_problem(robot_problem(), path),
    "params": lambda path: hm.save_params(
        hm.init_params(hm.ModelConfig(num_layers=1, hidden_size=4), seed=0), path),
}


@pytest.mark.parametrize("saver", SAVERS)
def test_a_saver_that_raises_part_way_keeps_the_old_file(tmp_path, monkeypatch, saver):
    """The trajectory saver meets a degenerate second record; the others a
    write error after their first write.  The old bytes stay and no
    temporary file is left."""
    path = tmp_path / "old.file"
    path.write_bytes(b"the old contents")
    if saver != "trajectories":
        failing_writes(monkeypatch)
    with pytest.raises(KinematicsError if saver == "trajectories" else OSError):
        SAVERS[saver](path)
    assert path.read_bytes() == b"the old contents"
    assert os.listdir(tmp_path) == ["old.file"]


ROW_FILES = {
    "trajectory": (lambda path: cd.save_trajectories([trajectory_record()], path),
                   cd.load_trajectories, cd.DataError, "comotion-trajectory"),
    "robot trajectory": (lambda path: rm.save_robot_trajectory(np.arange(21.0).reshape(3, 7),
                                                               path),
                         rm.load_robot_trajectory, rm.RobotError, "comotion-robot-trajectory"),
    "sdf": (lambda path: env.save_sdf(env.SdfGrid((0.0, 0.0), 0.5, np.arange(9.0).reshape(3, 3)),
                                      path),
            env.load_sdf, env.SceneError, "comotion-sdf"),
}


def set_word(lines, line, word, value):
    """``lines`` with entry ``word`` of line ``line`` (1-based) set to ``value``."""
    words = lines[line - 1].split()
    words[word] = value
    return lines[:line - 1] + [" ".join(words)] + lines[line:]


MALFORMED = {
    # case: (edit of the file's lines, the line the error names)
    "a NaN entry": (lambda lines, fmt: set_word(lines, 2, 0, "nan"), 2),
    "a row before the header": (lambda lines, fmt: lines[1:2] + lines, 1),
    "rows of two lengths": (lambda lines, fmt: lines[:2] + [lines[2].rsplit(" ", 1)[0]]
                            + lines[3:], 3),
    "a header of another format": (lambda lines, fmt: [
        lines[0].replace(fmt, "comotion-sdf" if fmt != "comotion-sdf" else "comotion-trajectory")
    ] + lines[1:], 1),
    "a header with no rows": (lambda lines, fmt: lines[:1], 1),
    "a line that is not UTF-8": (lambda lines, fmt: lines[:2] + ["1.0 \udcff 2.0"] + lines[3:], 3),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("kind", ROW_FILES)
def test_row_file_errors_name_the_path_and_line(tmp_path, kind, case):
    save, load, error, fmt = ROW_FILES[kind]
    path = tmp_path / "file.txt"
    save(path)
    load(path)  # the file as saved loads
    edit, line = MALFORMED[case]
    text = "\n".join(edit(path.read_text().splitlines(), fmt)) + "\n"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # \udcff is the byte 0xff
    with pytest.raises(error, match=re.escape(f"{path}: line {line}:")):
        load(path)


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("kind", ROW_FILES)
def test_infinite_entries_are_refused_except_in_an_sdf_grid(tmp_path, kind, value):
    save, load, error, _ = ROW_FILES[kind]
    path = tmp_path / "file.txt"
    save(path)
    path.write_text("\n".join(set_word(path.read_text().splitlines(), 2, 0, value)) + "\n")
    if kind == "sdf":
        assert load(path).values[0, 0] == float(value)
    else:
        with pytest.raises(error, match=re.escape(str(path))):
            load(path)


@pytest.mark.parametrize("kind", ["robot trajectory", "sdf"])
def test_robot_and_sdf_files_hold_one_block(tmp_path, kind):
    save, load, error, _ = ROW_FILES[kind]
    path = tmp_path / "file.txt"
    save(path)
    text = path.read_text()
    path.write_text(text + text)
    with pytest.raises(error, match=re.escape(str(path)) + ".*holds 2"):
        load(path)
    path.write_text("")
    with pytest.raises(error, match=re.escape(str(path)) + ".*holds 0"):
        load(path)
