import numpy as np
import pytest

from besovlab.params import Params
from besovlab.slowly_varying import constant
from besovlab import sequences
from besovlab.atoms import AtomicField


@pytest.fixture(scope="session")
def flagship_params():
    return Params(p=1.0, q=2.0, s=1.5, M=2, L=0.25)


@pytest.fixture(scope="session")
def psi_one():
    return constant(1.0)


@pytest.fixture(scope="session")
def blocks_j8(flagship_params, psi_one):
    return sequences.rearrange(
        sequences.build_lambda_blocks(psi_one, flagship_params, 8)
    )


@pytest.fixture(scope="session")
def field_j6(flagship_params, blocks_j8):
    return AtomicField(flagship_params, blocks_j8, 6)


@pytest.fixture(scope="session")
def window_field(flagship_params):
    """make(j, start, n, theta=1.7): a flagship-parameter field whose only
    level is j, with on-window (start, n)."""

    def make(j, start, n, theta=1.7):
        levels = [sequences.BlockLevel(i, 0.0, 0, 0) for i in range(j)]
        levels.append(sequences.BlockLevel(j, theta, n, start))
        blocks = sequences.BlockSequence(J=j, levels=tuple(levels), rearranged=True)
        return AtomicField(flagship_params, blocks, j)

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
