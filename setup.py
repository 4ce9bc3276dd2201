from setuptools import setup

# Metadata, including the dependency floors (scipy>=1.15 for the L-BFGS-B
# core that repro.synthesis.instantiate drives), lives in pyproject.toml.
setup()
