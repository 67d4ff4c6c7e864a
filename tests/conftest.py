from fractions import Fraction

import pytest

from zerohalf.core import IlpInstance, as_point
from zerohalf.oracle import DEFAULT_BUDGET, _iter_raw_multipliers, _materialize

# verdict lines queued by the acceptance tests, echoed after the run
# (the summary hook writes outside pytest's output capture)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def triangle_instance(objective=None) -> IlpInstance:
    """Edge formulation of a triangle: one degree row per node, full bounds.

    Variables are the edges (01, 02, 12); row v says x(delta(v)) <= 1.
    """
    return IlpInstance(
        A=((1, 1, 0), (1, 0, 1), (0, 1, 1)),
        b=(1, 1, 1),
        lower_present=(True, True, True),
        upper_present=(True, True, True),
        objective=objective,
    )


def enumerate_valid_multipliers(
    instance: IlpInstance,
    modulus: int = 2,
    support_bound: Fraction | None = None,
    budget: int = DEFAULT_BUDGET,
):
    """All multiplier vectors that derive to an integral cut, in grid order."""
    for nums in _iter_raw_multipliers(instance, modulus, support_bound, budget):
        yield _materialize(nums, modulus)


@pytest.fixture
def triangle() -> IlpInstance:
    return triangle_instance()


@pytest.fixture
def triangle_points():
    return as_point((1, 0, 0)), as_point((Fraction(1, 2),) * 3)
