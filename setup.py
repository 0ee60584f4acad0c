"""Packaging metadata for the ``repro`` library.

The version is read from ``src/repro/__init__.py`` so it has one
source.  ``pip install .`` installs every package under ``src/``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
