"""The same-outputs recorder, ``tools/same_outputs.py``, notices a family that
only recorded errors.

Its full run takes about 15 s, so it is not repeated here: these tests run
its family loop and ``main`` on small stand-in families.
"""

import importlib.util
import random
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _recorder():
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _five(sd, rng):
    return range(5)


def test_family_loop_counts_the_records_that_raised():
    rec = _recorder()
    sd = types.SimpleNamespace()

    def always(sd, x):
        # a record that reads a name the namespace lacks, as a broken family would
        return [x, rec.attempt(lambda: sd.sigma.sigma(x + 1, 7, -1))]

    def odd_ones(sd, x):
        return [x, rec.attempt(lambda: 1 // (x % 2))]

    count, raised, digest = rec.record_family(sd, _five, always, random.Random(0))
    assert (count, raised) == (5, 5) and len(digest) == 64
    assert rec.record_family(sd, _five, odd_ones, random.Random(0))[:2] == (5, 3)
    # the digest is of the records alone
    again = rec.record_family(sd, _five, always, random.Random(1))
    assert again == (count, raised, digest)


def test_recorder_exits_1_when_every_record_of_a_family_raised(monkeypatch, capsys):
    rec = _recorder()
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the tree first

    def fine(sd, x):
        return [x, rec.attempt(lambda: sd.sigma.sigma(x + 1, 7, -1))]

    def broken(sd, x):
        return [x, rec.attempt(lambda: sd.sigma(x + 1, 7, -1))]  # the module is not callable

    monkeypatch.setattr(rec, "FAMILIES", {"fine": (_five, fine), "broken": (_five, broken)})
    assert rec.main([str(ROOT)]) == 1
    out, err = capsys.readouterr()
    lines = [line.split() for line in out.splitlines()]
    assert [line[:3] for line in lines] == [["fine", "5", "0"], ["broken", "5", "5"]]
    assert all(len(line) == 4 and len(line[3]) == 64 for line in lines)
    assert err == "every record raised in: broken\n"

    monkeypatch.setattr(rec, "FAMILIES", {"fine": (_five, fine)})
    assert rec.main([str(ROOT)]) == 0
