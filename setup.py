"""Setuptools shim + the optional bitset expansion extension.

The offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs (which build an editable wheel) are unavailable.
This shim lets ``pip install -e .`` take the legacy ``setup.py develop``
path, which works offline.

The one extension is **optional**: ``repro.exec._bitset_native`` (a
set-bit expansion kernel, see ``src/repro/exec/bitset.py``).  Build it in
place with::

    python setup.py build_ext --inplace

``optional=True`` makes a missing compiler a warning, not a failure — the
bitset kernel detects the absent module and runs its pure numpy
expansion with identical output.
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    packages=find_packages("src"),
    package_dir={"": "src"},
    ext_modules=[
        Extension(
            "repro.exec._bitset_native",
            sources=["src/repro/exec/_bitset_native.c"],
            optional=True,
        )
    ],
)
