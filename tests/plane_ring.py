"""The plane ring shared by the tests: R2 = single_ring(2) and its coordinates.

x(i) and xi(i) are the coordinate polynomials x_(i+1) and xi_(i+1), in R2
unless another ring is passed.
"""

from cohomolab.poly import Poly, single_ring

R2 = single_ring(2)


def x(i, ring=R2):
    return Poly.variable(ring, ring.x(i))


def xi(i, ring=R2):
    return Poly.variable(ring, ring.xi(i))
