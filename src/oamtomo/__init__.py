"""Qutrit quantum-memory characterization pipeline.

Simulate a storage channel on OAM photonic qutrits, generate synthetic
coincidence counts (optionally through a physical-optics measurement chain),
reconstruct density and process matrices by linear-inversion tomography, and
score them against pure references.  Each name is imported from the module
that defines it: oamtomo.qudit, optics, counts, tomography, fileio, config
and cli.
"""

__version__ = "0.1.0"
