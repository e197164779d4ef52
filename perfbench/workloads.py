"""The benchmark's workloads: fixed CLI argv lists, one workload per stress.

Each request is (id, argv); argv is exactly what a user would type after
``gradedhh``.  The benchmark seed only permutes the order of the requests
inside a workload; the program never sees it.  Why each workload exists is
recorded in README.md next to this file.
"""

from __future__ import annotations

import random

WORKLOADS = {
    # One large bar complex asked two questions: ranks only, then one exact
    # in_span witness on the same (8,1) window.
    "hh-large": [
        ("hh", ["hh", "--preset", "a:2:2", "--multidegree", "v1:8,eps:1"]),
        ("obstruction", ["obstruction", "--p", "2", "--n", "2", "--exponents", "8"]),
    ],
    # Many small bar complexes: per-call cost and assembly dominate.
    "hkr-sweep": [
        ("hkr-check", ["hkr-check", "--preset", "a:2:3", "--max-weight", "5"]),
    ],
    # Matrix-DGA element arithmetic; elimination is negligible here.
    "mdga-check": [
        ("matrix-dga", ["matrix-dga", "--p", "2", "--n", "2", "--window", "-40:20"]),
        ("quasi-iso", ["quasi-iso", "--p", "2", "--n", "2", "--window", "-40:20"]),
    ],
    # Basis enumeration dominates: many repeated monomial_basis calls.
    "cone-window": [
        ("cone", ["cone", "--preset", "bp:3:3", "--element", "v3", "--window", "0:400"]),
    ],
}

# Small requests of the same subcommands, for the benchmark's self-test.
TINY = {
    "hh-large": [
        ("hh", ["hh", "--preset", "a:2:2", "--multidegree", "v1:1,eps:1"]),
        ("obstruction", ["obstruction", "--p", "2", "--n", "2", "--exponents", "4"]),
    ],
    "hkr-sweep": [
        ("hkr-check", ["hkr-check", "--preset", "a:2:3", "--max-weight", "2"]),
    ],
    "mdga-check": [
        ("matrix-dga", ["matrix-dga", "--p", "2", "--n", "2", "--window", "-8:4"]),
        ("quasi-iso", ["quasi-iso", "--p", "2", "--n", "2", "--window", "-8:4"]),
    ],
    "cone-window": [
        ("cone", ["cone", "--preset", "bp:3:3", "--element", "v3", "--window", "0:40"]),
    ],
}


def ordered(requests, seed: int):
    """The workload's requests in the order the seed picks."""
    out = list(requests)
    random.Random(seed).shuffle(out)
    return out
