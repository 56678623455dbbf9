"""The decorator `_value.record`, which builds the plain result records.

A record is the named tuple that `typing.NamedTuple` builds from the same
class body, and importing the package makes no `typing.ForwardRef`."""

import pickle
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from corrpoly._value import record

SRC = Path(__file__).resolve().parent.parent / "src"


class Typed(NamedTuple):
    """Two fields with defaults."""

    name: str
    weight: int = 1
    label: Optional[str] = None

    def doubled(self) -> int:
        return 2 * self.weight


@record
class Plain:
    """Two fields with defaults."""

    name: str
    weight: int = 1
    label: Optional[str] = None

    def doubled(self) -> int:
        return 2 * self.weight


@record
class Undocumented:
    name: str


def test_a_record_is_the_named_tuple_of_its_body():
    typed, plain = Typed("a", 3), Plain("a", 3)
    assert Plain._fields == Typed._fields
    assert Plain._field_defaults == Typed._field_defaults
    assert (Plain.__name__, Plain.__qualname__, Plain.__module__) == ("Plain", "Plain", __name__)
    assert Plain.__doc__ == Typed.__doc__
    assert Undocumented.__doc__ == "Undocumented(name,)"
    assert repr(plain) == repr(typed).replace("Typed", "Plain")
    assert plain == typed and hash(plain) == hash(typed)
    assert plain.doubled() == 6 and plain._replace(weight=4) == Plain("a", 4)
    assert type(plain._replace(weight=4)) is Plain
    assert pickle.loads(pickle.dumps(plain)) == plain
    with pytest.raises(AttributeError):
        plain.weight = 2
    with pytest.raises(AttributeError):
        plain.extra = 2  # no __dict__


def test_a_field_without_a_default_cannot_follow_one_with_a_default():
    with pytest.raises(TypeError, match="Misordered"):

        @record
        class Misordered:
            weight: int = 1
            name: str


def test_importing_the_package_makes_no_forward_reference():
    code = (
        "import typing\n"
        "made = []\n"
        "init = typing.ForwardRef.__init__\n"
        "typing.ForwardRef.__init__ = lambda self, *a, **k: made.append(a[0]) or init(self, *a, **k)\n"
        "import corrpoly, corrpoly.cli\n"
        "print(made)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
