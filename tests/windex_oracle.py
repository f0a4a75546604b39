"""The paper's wildcard key set, enumerated one sequence at a time.

Each length-k sequence expands into every variant with up to t_abs positions
replaced by a wildcard byte, sum_{i=0..t_abs} C(k, i) keys per sequence.
`motionlink.windex` stores only the maximal-mask variants, as 8-byte
words; tests count these byte keys against what the index holds.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from motionlink.model import label_codes
from motionlink.windex import _check_budget

WILDCARD_BYTE = 0xFF


def expansion_count(k: int, t_abs: int) -> int:
    """Variants per sequence: sum over i of C(k, i) for i = 0..t_abs."""
    _check_budget(k, t_abs)
    return sum(math.comb(k, i) for i in range(t_abs + 1))


def wildcard_expansions(seq: Sequence, t_abs: int) -> frozenset[bytes]:
    """All masked variants of one sequence, one byte per position and 0xFF
    for the wildcard: the paper's key set, of size expansion_count(k, t_abs)."""
    codes = label_codes(list(seq), "sequence")
    k = codes.size
    _check_budget(k, t_abs)
    out = set()
    for i in range(t_abs + 1):
        for mask in itertools.combinations(range(k), i):
            key = bytearray(codes.tobytes())
            for pos in mask:
                key[pos] = WILDCARD_BYTE
            out.add(bytes(key))
    return frozenset(out)
