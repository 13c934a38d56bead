"""Test-side helpers shared by several test modules, as fixtures.

The suites draw nothing; these seeded shell sources serve tests that want
more sources than the one the suites state.
"""

import numpy as np
import pytest


def conjugate_symmetric_basis(shell):
    """The real basis of the shell sources that keep the reality rule
    xi(l, -m) = (-1)^(l+m) conj(xi(l, m)), one row per source: 1 (l even)
    or i (l odd) at m = 0, and 1 or i at m > 0 with its partner at -m."""
    index = {label: i for i, label in enumerate(shell.mode_labels())}
    rows = []
    for (l, m), i in index.items():
        if m < 0:
            continue
        for value in (1.0, 1j) if m > 0 else (1.0 if l % 2 == 0 else 1j,):
            row = np.zeros(len(index), dtype=complex)
            row[i] = value
            row[index[(l, -m)]] = (-1.0) ** (l + m) * np.conj(value)
            rows.append(row)
    return np.array(rows)


def seeded_conjugate_symmetric_xi(shell, rng, scale):
    """A shell source that keeps the reality rule: a seeded normal
    combination of the rows of `conjugate_symmetric_basis`."""
    basis = conjugate_symmetric_basis(shell)
    return scale * (rng.normal(size=len(basis)) @ basis)


@pytest.fixture
def xi_basis():
    """`conjugate_symmetric_basis`, as a function of the shell."""
    return conjugate_symmetric_basis


@pytest.fixture
def seeded_xi():
    """`seeded_conjugate_symmetric_xi(shell, rng, scale)`."""
    return seeded_conjugate_symmetric_xi
