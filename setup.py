"""Setup shim: all metadata is in ``pyproject.toml``.

This file exists so that editable installs work on environments without
the ``wheel`` package (offline clusters), via::

    pip install -e . --no-build-isolation --no-use-pep517
"""

from setuptools import setup

setup()
