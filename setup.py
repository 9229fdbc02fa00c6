"""Setuptools shim.

The execution environment is offline and has no ``wheel`` package, so PEP 660
editable wheels cannot be built; keeping a ``setup.py`` lets
``pip install -e .`` fall back to the legacy develop-mode install.
"""

from setuptools import setup

setup()
