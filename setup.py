"""Setuptools shim.

All project metadata lives in ``pyproject.toml`` (PEP 621).  Online,
``pip install -e ".[test]"`` is the install.  Offline without the
``wheel`` package, PEP 660 editable builds (which need ``bdist_wheel``)
fail, and pip 23.1+ also refuses ``--no-use-pep517`` without ``wheel``.
This shim keeps the legacy editable path, which needs only setuptools::

    python setup.py develop --no-deps

With ``wheel`` present, ``pip install -e . --no-build-isolation
--no-use-pep517`` takes the same path.
"""

from setuptools import setup

setup()
