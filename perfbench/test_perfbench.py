"""The benchmark's own checks: ``python3 -m pytest perfbench``.

The central one: a corrupted reference must turn into failed ops, so a
wrong answer can never pass as a fast one.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fmax  # noqa: E402
import oneshot  # noqa: E402
import serve  # noqa: E402
from harness import Context, program_env, tail  # noqa: E402
from inputs import design_seeds  # noqa: E402
from spans import Spans, self_times  # noqa: E402

REFS = json.loads((HERE / "refs.json").read_text())
SEED = 1


def _corrupt(name: str, refs: dict) -> None:
    """Falsify the reference of the first op of run seed ``SEED``."""
    if name == oneshot.NAME:
        refs[str(design_seeds(SEED, oneshot.CYCLE)[0])]["stdout_sha256"] = "0" * 64
    elif name == serve.NAME:
        cycle = refs["cycle"][str(design_seeds(SEED, 1)[0])]
        cycle[0]["summary_sha256"] = "0" * 64
    else:
        refs[str(design_seeds(SEED, 1)[0])][0] += 1


@pytest.mark.parametrize("module", [oneshot, serve, fmax], ids=lambda m: m.NAME)
def test_corrupted_reference_pushes_fail_share_above_zero(module, tmp_path):
    def run(refs, trace=False):
        ctx = Context(
            out=tmp_path, seed=SEED, ops=2 * module.CYCLE,
            env=program_env(HERE.parent, tmp_path / "pycache"),
            trace=trace, refs=refs, setup_reps=1,
            deadline=time.perf_counter() + 120,
        )
        return module.run(ctx)

    good = run(REFS[module.NAME], trace=True)
    assert good.attempted == 2 * module.CYCLE and good.failed == 0
    assert good.traced and good.layers

    refs = copy.deepcopy(REFS[module.NAME])
    _corrupt(module.NAME, refs)
    bad = run(refs)
    assert bad.attempted == 2 * module.CYCLE
    assert bad.failed / bad.attempted > 0


def test_tail_has_ten_samples_beyond_it():
    assert tail([float(i) for i in range(100)]) == (89.0, 90)
    assert tail([float(i) for i in range(24)]) == (13.0, 58)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_self_times_add_up_to_the_root():
    spans = Spans()
    root = spans.add("op", "unattributed", 0.0, 10.0, None)
    mid = spans.add("verify", "core", 1.0, 7.0, root)
    spans.add("summary", "reporting", 5.0, 6.5, mid)
    spans.add("listing", "reporting", 8.0, 9.0, root)
    times = self_times(spans.records)
    assert times == {"unattributed": 3.0, "core": 4.5, "reporting": 2.5}
    assert sum(times.values()) == 10.0
