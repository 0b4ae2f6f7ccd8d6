"""surftrack: lineage fingerprint surfaces, simulation, and reconstruction.

Subpackages:

* ``surface`` -- placement policies, annotations, genome byte codecs
* ``oracle``  -- brute-force replay and retention-gap audits
* ``phylo``   -- tree reconstruction, serialization, and metrics
* ``sim``     -- distributed-style evolution simulation on a PE grid
* ``tables``  -- the header, row and field rules of every CSV input
* ``cli``     -- command-line entry points
"""

__version__ = "0.1.0"
