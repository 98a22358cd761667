"""Desk-scale laboratory for error terms in the Chebotarev density theorem.

Two families indexed by n = 2^r are built and measured: a dihedral one
where no prime below n^2 splits totally, and a cyclotomic one whose
residue set D avoids all primes below T = n * log(n)^alpha.  Measured
error terms are compared against parameterized bound templates; diverging
implied constants falsify a template on the tested range.
"""

__version__ = "0.31.0"
