"""Setuptools shim for in-place installs; the metadata is in ``pyproject.toml``.

Setuptools older than 70.1 needs the separate ``wheel`` package for
``pip install -e .`` (a PEP 660 editable wheel).  Where ``wheel`` is
missing and cannot be fetched, ``python setup.py develop`` installs the
package in place from this file instead, console script included.
"""

from setuptools import setup

setup()
