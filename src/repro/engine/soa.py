"""Struct-of-arrays helpers behind the fast warmup and core start-up.

Everything here turns per-element Python attribute/arithmetic churn into
flat column operations: whole trace columns are lowered to plain Python
lists in one vectorized pass, and derived columns (line addresses,
instruction numbers) are computed with array ops instead of per-op
interpreter work.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def warmup_columns(arr: np.ndarray) -> Tuple[List[int], List[bool]]:
    """Lower a trace's access stream to (line-address, is-write) columns.

    The fast functional-warmup replay consumes line addresses (``addr >>
    6``) and boolean write flags; computing both columns in one vectorized
    pass and converting to plain lists once is markedly cheaper than
    shifting/boolifying per op inside the replay loop.
    """
    lines = (arr["addr"] >> np.uint64(6)).tolist()
    writes = (arr["is_write"] != 0).tolist()
    return lines, writes


def cumulative_instr_no(gaps: np.ndarray) -> List[int]:
    """Instruction number of each memory op given per-op non-memory gaps.

    Op ``i`` is instruction ``sum(gaps[:i+1]) + i`` — the running total of
    skipped instructions plus the memory ops themselves, as one exact
    integer cumsum.
    """
    return (np.cumsum(gaps.astype(np.int64) + 1) - 1).tolist()
