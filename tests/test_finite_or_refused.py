"""Finite or refused: every point API on a fixed corpus of hard inputs returns
finite values or raises a LindbladEPError, with no NaN and no warning.

The point APIs are every public callable that takes one ``ModelParams``:
``classify``, ``discriminant``, ``eigenvalues_closed_form``, ``full_spectrum``,
``eigenvectors_closed_form`` for each decaying mode, ``spectral_evolve``,
``build_lindblad`` and the oracle ``eigenvalues_numeric`` on it,
``equilibrium_state``, ``null_eigenvectors``, ``hamiltonian_rotating`` and
``largest_stable_dt``.

The corpus is 9 shapes at 31 scales, 10^-300 .. 10^300 in steps of 10^20,
plus each shape with one coordinate a signed zero or a subnormal, and each
shape scaled down to subnormals.  Two open defects are named, not hidden:

- a bare OverflowError where the cubic's p**3 or q**2 overflows (ROADMAP
  item 3: the cubic is not yet solved at unit scale);
- an infinite scaled coordinate in ``classify``, where d/delta or gamma/delta
  truly passes the largest double (the quotient is checked exactly).

One documented infinity is named too: ``largest_stable_dt`` is ``inf`` where
the stable step passes the largest double, which needs max|eig(L)| < 8 / DBL_MAX.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lindblad_ep import (
    LindbladEPError,
    ModelParams,
    build_lindblad,
    classify,
    discriminant,
    eigenvalues_closed_form,
    eigenvalues_numeric,
    eigenvectors_closed_form,
    ep2_gamma,
    equilibrium_state,
    full_spectrum,
    hamiltonian_rotating,
    initial_state,
    largest_stable_dt,
    null_eigenvectors,
    spectral_evolve,
)

SHAPES = [
    (1.0, 2.0, 1.0), (1.0, 2.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.5, 1e4), (-1.0, 3.0, 0.3),
    (1.0, 1e-9, 1.0), (1.0, 3.0, 1e-9),
    (1.0, 2.0 * math.sqrt(2.0), 6.0 * math.sqrt(3.0)),  # the triple point
    (1.0, 3.0, math.sqrt(125.0)),  # the minus branch at d/delta = 3
]
SCALES = [10.0**e for e in range(-300, 301, 20)]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310]


def corpus() -> list:
    points = [tuple(s * x for x in shape) for s in SCALES for shape in SHAPES]
    for shape in SHAPES:
        for k in range(3):
            points += [shape[:k] + (v,) + shape[k + 1:] for v in SPECIALS]
        points += [tuple(s * x for x in shape) for s in (1e-310, 5e-324)]
    return points


RHO0 = initial_state("excited")
CALLS = {
    "classify": classify,
    "eigenvalues_closed_form": eigenvalues_closed_form,
    "full_spectrum": full_spectrum,
    "spectral_evolve": lambda params: spectral_evolve(params, RHO0, 0.7),
    "eigenvalues_numeric": lambda params: eigenvalues_numeric(build_lindblad(params)),
    "equilibrium_state": equilibrium_state,
    "discriminant": discriminant,
    "build_lindblad": build_lindblad,
    "null_eigenvectors": null_eigenvectors,
    "hamiltonian_rotating": hamiltonian_rotating,
    **{f"eigenvectors_closed_form-{nu}": lambda params, nu=nu: eigenvectors_closed_form(params, nu)
       for nu in (1, 2, 3)},
    "largest_stable_dt": largest_stable_dt,
}


def numbers(result) -> list:
    """``(field, value)`` for each array, float or complex of a result or of its dataclass
    fields or tuple entries; the field is "" for a bare result and the index for an entry."""
    if dataclasses.is_dataclass(result):
        fields = [(f.name, getattr(result, f.name)) for f in dataclasses.fields(result)]
    elif isinstance(result, tuple):
        fields = [(str(k), x) for k, x in enumerate(result)]
    else:
        fields = [("", result)]
    return [(name, x) for name, x in fields if isinstance(x, (np.ndarray, float, complex))]


def quotient_overflows(num: float, den: float) -> bool:
    """|num / den| in exact arithmetic is past the largest double."""
    return den != 0.0 and abs(Fraction(num) / Fraction(den)) > Fraction(np.finfo(float).max)


def eigenvalues_below_8_over_dbl_max(params: ModelParams) -> bool:
    """max|eig(L)| < 8 / DBL_MAX.  The stable step is below 4 / c for the scale
    c = max(|Re z|, |Im z|) <= max|z|, so it passes the largest double only where
    c < 4 / DBL_MAX, and then max|z| <= sqrt(2) c < 8 / DBL_MAX."""
    zs = np.linalg.eigvals(build_lindblad(params))
    return np.max(np.abs(zs)) < 8.0 / np.finfo(float).max


def test_the_corpus():
    points = corpus()
    assert len(points) == 279 + 9 * (3 * len(SPECIALS) + 2)
    assert ep2_gamma(3.0)[0] == SHAPES[8][2]


@pytest.mark.parametrize("name", list(CALLS))
def test_finite_or_refused_without_nan_or_warning(name):
    call, outcomes = CALLS[name], {"finite": 0, "refused": 0, "overflow": 0}
    for point in corpus():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(ModelParams(*point))
            except LindbladEPError:
                outcomes["refused"] += 1
                continue
            except OverflowError:  # item 3's open defect
                outcomes["overflow"] += 1
                continue
        for field, value in numbers(result):
            values = np.asarray(value)
            assert not np.isnan(values).any(), (name, point, field)
            if field in ("d_tilde", "gamma_tilde") and np.isinf(values):
                delta, d, gamma = point
                assert quotient_overflows(d if field == "d_tilde" else gamma, delta), point
                continue
            if name == "largest_stable_dt" and values == math.inf:
                assert eigenvalues_below_8_over_dbl_max(ModelParams(*point)), point
                continue
            assert np.isfinite(values).all(), (name, point, field)
        outcomes["finite"] += 1
    assert outcomes["finite"] > 0, outcomes
