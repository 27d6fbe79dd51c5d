"""Graph texts and frozen golden values owned by the benchmark.

The texts are the repository's small fixture graphs, kept here so the
benchmark's inputs do not change when test data does.  The RLL(2,10)
t=16 matrices and vector are the published golden values: the per-class
adjacency matrices of the 16th power and the largest joint approximate
eigenvector at (173, 178) with entries <= 2.
"""

TWOSTATE = """\
states: alpha beta
parity0: a b
parity1: c d
edge: alpha a alpha
edge: alpha b beta
edge: alpha c beta
edge: beta d alpha
"""

# same graph, alternative split {a} / {b, c, d}
ALTSPLIT = """\
states: alpha beta
parity0: a
parity1: b c d
edge: alpha a alpha
edge: alpha b beta
edge: alpha c beta
edge: beta d alpha
"""

QUAD = """\
states: alpha beta
parity0: a b
parity1: c d
edge: alpha a alpha
edge: alpha b beta
edge: alpha c beta
edge: alpha d beta
edge: beta a beta
edge: beta b beta
edge: beta c beta
edge: beta d alpha
"""

MIXED = """\
states: u v
parity0: e0_0_0 e0_1_0 e0_1_1 e1_0_0 e1_0_1
parity1: o0_0_0 o0_0_1 o0_1_0 o1_0_0 o1_0_1 o1_0_2 o1_1_0 o1_1_1 o1_1_2 o1_1_3 o1_1_4
edge: u e0_0_0 u
edge: u e0_1_0 v
edge: u e0_1_1 v
edge: u o0_0_0 u
edge: u o0_0_1 u
edge: u o0_1_0 v
edge: v e1_0_0 u
edge: v e1_0_1 u
edge: v o1_0_0 u
edge: v o1_0_1 u
edge: v o1_0_2 u
edge: v o1_1_0 v
edge: v o1_1_1 v
edge: v o1_1_2 v
edge: v o1_1_3 v
edge: v o1_1_4 v
"""

# symbol p lies in both parity classes
OVERLAP = """\
states: u
parity0: p q
parity1: p r
edge: u p u
edge: u q u
edge: u r u
"""

RLL16_A0 = (
    (42, 28, 19, 12, 8, 6, 5, 4, 3, 2, 1),
    (62, 42, 28, 19, 12, 8, 6, 5, 4, 3, 2),
    (90, 62, 42, 28, 19, 12, 8, 6, 5, 4, 3),
    (89, 61, 41, 27, 18, 12, 8, 6, 5, 4, 3),
    (88, 60, 40, 26, 17, 11, 8, 6, 5, 4, 3),
    (86, 59, 39, 25, 16, 10, 7, 6, 5, 4, 3),
    (82, 57, 38, 24, 15, 9, 6, 5, 5, 4, 3),
    (75, 53, 36, 23, 14, 8, 5, 4, 4, 4, 3),
    (65, 46, 32, 21, 13, 7, 4, 3, 3, 3, 3),
    (50, 36, 25, 17, 11, 6, 3, 2, 2, 2, 2),
    (29, 21, 15, 10, 7, 4, 2, 1, 1, 1, 1),
)

RLL16_A1 = (
    (41, 29, 21, 15, 10, 7, 4, 2, 1, 1, 1),
    (60, 41, 29, 21, 15, 10, 7, 4, 2, 1, 1),
    (87, 60, 41, 29, 21, 15, 10, 7, 4, 2, 1),
    (85, 59, 41, 29, 21, 15, 10, 6, 4, 2, 1),
    (82, 57, 40, 29, 21, 15, 10, 6, 3, 2, 1),
    (78, 54, 38, 28, 21, 15, 10, 6, 3, 1, 1),
    (73, 50, 35, 26, 20, 15, 10, 6, 3, 1, 0),
    (67, 45, 31, 23, 18, 14, 10, 6, 3, 1, 0),
    (59, 39, 26, 19, 15, 12, 9, 6, 3, 1, 0),
    (47, 31, 20, 14, 11, 9, 7, 5, 3, 1, 0),
    (28, 19, 12, 8, 6, 5, 4, 3, 2, 1, 0),
)

RLL16_X = (1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 0)
