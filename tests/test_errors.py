"""Errors cross process boundaries: a worker's error must reach the CLI unchanged."""

import pickle

import pytest

from modscore import errors
from modscore.errors import RecursionUnsupported, TemplateError, UnsupportedConstruct


@pytest.mark.parametrize("error, attrs", [
    (UnsupportedConstruct("Match"), {"kind": "Match"}),
    (UnsupportedConstruct("Break", "loop jump outside any loop"), {"kind": "Break"}),
    (RecursionUnsupported(["f", "g", "f"]), {"cycle": ["f", "g", "f"]}),
    (TemplateError("{problem}"), {"placeholder": "{problem}"}),
])
def test_error_with_own_init_survives_pickle(error, attrs):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name, value in attrs.items():
        assert getattr(copy, name) == value


def test_every_error_class_survives_pickle():
    classes = [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.ModscoreError)
    ]
    assert len(classes) > 10
    for cls in classes:
        error = cls("fg")
        copy = pickle.loads(pickle.dumps(error))
        assert (type(copy), str(copy)) == (cls, str(error)), cls.__name__
