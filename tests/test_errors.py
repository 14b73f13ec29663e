import pickle

import pytest

from markov_poisson import errors

#: constructor arguments of every error class with its own __init__
OWN_INIT = {
    errors.RowSumViolation: [(2, 0.125), ("phi", -0.5)],
    errors.DriftViolation: [([1, 3], [0.25, 0.5])],
    errors.Unreachable: [(4,)],
    errors.MaxStepsExceeded: [(7,)],
    errors.BoundViolation: [(3, "g*(3) exceeds its upper bound")],
    errors.SpecFileError: [("bad value",), ("bad value", 12)],
}


def test_every_own_init_is_covered():
    subclasses = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.ToolkitError)]
    assert {cls for cls in subclasses if "__init__" in vars(cls)} == set(OWN_INIT)


@pytest.mark.parametrize(
    "cls, args",
    [(cls, args) for cls, cases in OWN_INIT.items() for args in cases]
    + [(errors.NegativeEntry, ("entry (0, 1) is negative",))],
    ids=lambda v: v.__name__ if isinstance(v, type) else repr(v),
)
def test_errors_survive_pickling(cls, args):
    # a worker process hands its error to the caller through pickle
    err = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(err, protocol=protocol))
        assert type(back) is cls
        assert str(back) == str(err) and back.args == err.args
        assert vars(back) == vars(err) and back.code == err.code
