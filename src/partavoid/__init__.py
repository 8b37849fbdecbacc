"""Exact combinatorics of set-partition pattern avoidance.

Containment testing in Klazar's subset sense, a pruned brute-force counting
oracle, executable bijections and injections between avoidance classes, exact
generating-function coefficient extraction, and Wilf-equivalence tables.
Each name is imported from its module (partavoid.core, .avoidance,
.bijections, .enumeration, .wilf, .cli); the package re-exports nothing.
"""

__version__ = "0.1.0"
