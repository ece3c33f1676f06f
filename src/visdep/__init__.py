"""Token-level visual dependence: measurement, re-weighted training, evaluation.

The package measures how much each generated token depends on the
conditioning input by comparing its probability under the clean input
against a noise-corrupted one, classifies tokens into image-positive /
image-invariant / image-negative, and uses those signals to re-weight the
training loss, filter training data, and analyze where hallucinated
content appears.
"""

__version__ = "0.1.0"
