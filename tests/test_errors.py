"""Every error type is part of a contract: something raises or catches it."""

import inspect
import pathlib
import re

from rollstock import errors

SRC = pathlib.Path(errors.__file__).parent


def test_every_error_is_raised_or_caught():
    text = "\n".join(p.read_text(encoding="utf-8") for p in SRC.rglob("*.py"))
    names = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if cls.__module__ == errors.__name__]
    dead = [name for name in names
            if not re.search(rf"\b(raise|except)\b[^\n]*\b{name}\b", text)]
    assert names and not dead, f"never raised or caught: {dead}"
