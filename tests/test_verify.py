"""Tests for the stacked evaluation of the verify checks."""

import numpy as np
import pytest

from qthermo import VerifySuiteConfig
from qthermo.verify import _REGISTRY


def _residuals(check, index: int, num: int) -> list[str]:
    # The generator run_verify seeds for this check, at seed 0.
    seed = np.random.SeedSequence(0).spawn(len(_REGISTRY))[index]
    cfg = VerifySuiteConfig(num_random_scenarios=num, seed=0)
    return [float(r).hex() for r in check(np.random.default_rng(seed), cfg)]


@pytest.mark.parametrize("index", range(len(_REGISTRY)), ids=[n for n, _, _ in _REGISTRY])
def test_residuals_do_not_depend_on_the_stack_a_case_lands_in(index):
    # 7 and 20 cases split into stacks of different sizes, so a row that read
    # another row, or a draw taken out of case order, changes a residual.
    _, _, check = _REGISTRY[index]
    few, many = _residuals(check, index, 7), _residuals(check, index, 20)
    assert few == many[:len(few)]
