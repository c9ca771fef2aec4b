"""Tests of the benchmark's generated inputs.

Run from the root of a checkout:  python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import CONFIG, FieldEval  # noqa: E402


def _field():
    from besovlab import sequences
    from besovlab.atoms import AtomicField
    from besovlab.experiments import config_from_dict
    from besovlab.params import load_config

    config = config_from_dict(load_config(CONFIG))
    blocks = sequences.rearrange(sequences.build_lambda_blocks(config.psi, config.params, FieldEval.J))
    return AtomicField(config.params, blocks, FieldEval.J)


def test_on_cell_windows_are_those_of_the_block_sequence():
    levels = _field().blocks.levels
    assert {lvl.j: (lvl.start, lvl.n) for lvl in levels if lvl.j >= 2} == FieldEval.ON_CELLS


def test_generated_points_are_seeded():
    assert FieldEval().generate(7, 50) == FieldEval().generate(7, 50)
    assert FieldEval().generate(7, 50) != FieldEval().generate(8, 50)


def test_most_points_fall_where_the_field_is_nonzero():
    from besovlab.atoms import eval_f

    x1, x2 = FieldEval().generate(3, 4000)
    f = eval_f(_field(), np.array([[float(a), float(b)] for a, b in zip(x1, x2)]))
    assert 0.75 < np.mean(f != 0) <= FieldEval.ON_SUPPORT_SHARE + 0.02
