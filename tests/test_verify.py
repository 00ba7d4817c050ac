"""Tests for the stacked evaluation of the verify checks."""

import numpy as np
import pytest

from qthermo import GibbsSolver, VerifySuiteConfig, run_verify
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


def test_endpoint_checks_build_no_gibbs_solver(monkeypatch):
    # Endpoint checks read one validated H_E stack; only the schedules of the
    # trajectory checks build a solver, one each.
    built = []
    init = GibbsSolver.__init__

    def counting(self, h_env):
        built.append(h_env)
        init(self, h_env)

    monkeypatch.setattr(GibbsSolver, "__init__", counting)
    results = run_verify(VerifySuiteConfig(num_random_scenarios=20, seed=1))
    trajectory_cases = sum(r.num_cases for r in results
                           if r.name in ("clausius_split", "rate_formula"))
    assert all(r.passed for r in results)
    assert 0 < len(built) <= trajectory_cases
