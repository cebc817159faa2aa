"""The NumPy overflow guard shared by the constructors and the solvers."""

import numpy as np
import pytest

from tubeflood.errors import ArgumentError, overflow_guard


def test_nested_guards_raise_one_argument_error():
    before = np.geterr()
    with pytest.raises(ArgumentError, match="^inner overflows a double") as info:
        with overflow_guard("outer"):
            with overflow_guard("inner"):
                np.array([1e308]) * 10.0
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert np.geterr() == before


@pytest.mark.parametrize("exc", [None, KeyError("other")])
def test_restores_the_error_state_on_every_exit(exc):
    before = np.geterr()
    with np.errstate(all="ignore"):
        inside = np.geterr()
        try:
            with overflow_guard("x"):
                assert np.geterr() == {**inside, "over": "raise", "invalid": "raise",
                                       "divide": "raise"}
                if exc is not None:
                    raise exc
        except KeyError:
            pass
        assert np.geterr() == inside
    assert np.geterr() == before
