"""Frozen particle-slot layout of the internal Hilbert space.

The Hilbert space is the 32-dimensional space of 8x4 complex matrices.  A
basis state is a matrix unit E(r, c) with 1-based row r and column c.  Rows
1-4 form the particle sector (order: up-type right, down-type right, up-type
left, down-type left), with leptons in column 1 and the three quark colors in
columns 2-4.  Rows 5-8 form the antiparticle sector in transposed
arrangement: row 5 carries the antileptons and rows 6-8 the antiquark colors,
with columns ordered (up-R, down-R, up-L, down-L).

Operators act on the column-major vectorization of the 8x4 matrix, so the
basis state E(r, c) has flat index (r - 1) + 8 * (c - 1).  All index-based
constructions in the catalog (real structure, gradings, Dirac blocks, witness
operators) rely on this table and nothing else.
"""

from __future__ import annotations

import numpy as np

LEFT_DIM = 8
RIGHT_DIM = 4
HILBERT_DIM = LEFT_DIM * RIGHT_DIM


def unit(n, i, j):
    """n x n matrix unit with a single 1 at 1-based position (i, j)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"unit index ({i}, {j}) out of range for n={n}")
    m = np.zeros((n, n), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def left_unit(i, j):
    """8x8 matrix unit acting on the stacked particle/antiparticle rows."""
    return unit(LEFT_DIM, i, j)


def right_unit(k, l):
    """4x4 matrix unit acting on the column (color/isospin) index."""
    return unit(RIGHT_DIM, k, l)


def slot_index(r, c):
    """Flat column-major index of the basis state E(r, c)."""
    return (r - 1) + LEFT_DIM * (c - 1)


#: Name of each slot, indexed [r-1][c-1].
PARTICLE_NAMES = [
    ["nu_R", "u1_R", "u2_R", "u3_R"],
    ["e_R", "d1_R", "d2_R", "d3_R"],
    ["nu_L", "u1_L", "u2_L", "u3_L"],
    ["e_L", "d1_L", "d2_L", "d3_L"],
    ["nu_R~", "e_R~", "nu_L~", "e_L~"],
    ["u1_R~", "d1_R~", "u1_L~", "d1_L~"],
    ["u2_R~", "d2_R~", "u2_L~", "d2_L~"],
    ["u3_R~", "d3_R~", "u3_L~", "d3_L~"],
]

#: Integer 3*Y_w per particle slot (antiparticle slots carry the negatives).
HYPERCHARGE_EXPONENTS = np.array(
    [
        [0, 4, 4, 4],
        [-6, -2, -2, -2],
        [-3, 1, 1, 1],
        [-3, 1, 1, 1],
        [0, 6, 3, 3],
        [-4, 2, -1, -1],
        [-4, 2, -1, -1],
        [-4, 2, -1, -1],
    ],
    dtype=int,
)
