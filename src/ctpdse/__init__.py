"""Design-space exploration over binary coding-tool profiles.

Greedy search over which optional coding tools an encoder may use,
scoring each profile with Bjontegaard-Delta bit-rate and decoding-energy
metrics against a fixed anchor, then extracting the Pareto front and
named trade-off profiles.
"""

__version__ = "0.1.0"
