"""Equivariant versal unfoldings of linear retarded delay equations.

The pipeline: describe a point-delay operator (`delays`), check its
symmetry and locate critical imaginary spectra (`frames`, `d3`), build the
normalized eigenframe and the induced group action on the center
coordinates (`frames`), then construct a group-equivariant mini-versal
unfolding realized through finitely many lags (`unfolding`).  `jsonio`
reads and writes every document, `verify` re-checks a decoded artifact,
and `cli` exposes everything as subcommands.
"""

__version__ = "0.1.0"
