"""Package metadata: all of it lives in this file.

The library is importable from ``src/`` without installing (``export
PYTHONPATH=src``).  ``pip install -e .`` installs it in editable mode; pip
needs the ``wheel`` package for that, and where ``wheel`` is missing
``python setup.py develop`` does the same install.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
