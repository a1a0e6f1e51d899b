"""Hand-constructed eye landmark sets with exactly known EAR values.

Each case places the corner pair a known integer distance apart and builds
the two lid pairs from pure-vertical offsets or Pythagorean-triple vectors,
so the three distances entering the ratio are exact and the expected value
is plain fraction arithmetic.  An eye is six (x, y) tuples, ordered corner,
upper lid x2, corner, lower lid x2.
"""

from fractions import Fraction


def eye_from_distances(d26_vec, d35_vec, horizontal):
    """Eye whose lid-pair difference vectors and corner span are given."""
    l1 = (0.0, 0.0)
    l4 = (float(horizontal), 0.0)
    l6 = (5.0, -1.0)
    l2 = (5.0 + d26_vec[0], -1.0 + d26_vec[1])
    l5 = (11.0, -2.0)
    l3 = (11.0 + d35_vec[0], -2.0 + d35_vec[1])
    return (l1, l2, l3, l4, l5, l6)


def _case(d26_vec, d26_len, d35_vec, d35_len, horizontal):
    expected = Fraction(d26_len + d35_len, 2 * horizontal)
    return eye_from_distances(d26_vec, d35_vec, horizontal), float(expected)


# Pythagorean vectors: (3,4)->5, (6,8)->10, (5,12)->13, (8,15)->17,
# (7,24)->25, (20,21)->29, (9,40)->41, (12,35)->37.
HAND_CASES = [
    # worked example: l1=(0,0) l2=(1,1) l3=(2,1) l4=(3,0) l5=(2,-1) l6=(1,-1)
    (
        (
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 0.0),
            (2.0, -1.0),
            (1.0, -1.0),
        ),
        float(Fraction(2 + 2, 2 * 3)),
    ),
    # closed eye: both lid pairs coincide
    (
        (
            (0.0, 0.0),
            (1.0, 2.0),
            (2.0, 3.0),
            (4.0, 0.0),
            (2.0, 3.0),
            (1.0, 2.0),
        ),
        0.0,
    ),
    _case((0, 3), 3, (0, 4), 4, 5),
    _case((3, 4), 5, (4, 3), 5, 10),
    _case((6, 8), 10, (5, 12), 13, 4),
    _case((0, 1), 1, (0, 2), 2, 100),
    _case((8, 15), 17, (0, 3), 3, 8),
    _case((7, 24), 25, (20, 21), 29, 27),
    _case((0, 7), 7, (0, 11), 11, 9),
    _case((9, 40), 41, (12, 35), 37, 13),
    _case((3, -4), 5, (-3, 4), 5, 2),
    _case((0, 2), 2, (0, 2), 2, 2),
    _case((-6, -8), 10, (6, 8), 10, 40),
    _case((5, 12), 13, (5, 12), 13, 13),
    _case((0, 1), 1, (0, 1), 1, 1),
    _case((0, 25), 25, (7, 24), 25, 125),
    _case((20, -21), 29, (0, 29), 29, 29),
    _case((4, 3), 5, (8, 15), 17, 11),
    _case((0, 6), 6, (3, 4), 5, 3),
    _case((12, 35), 37, (0, 13), 13, 50),
]
