"""Main-term evaluation: the offset logarithmic integral and its asymptote.

Normalization: li(x) is the integral of dt/log(t) from 2 to x, so
li(2) = 0.  This differs from the 0-based principal-value convention by
the constant li(2) ~ 1.045; divergence conclusions are insensitive to the
offset, but tables compared against other sources must account for it.
All logarithms are natural.  Evaluation is pure Python: math.exp on the
nodes of a fixed quadrature rule, summed with math.fsum.
"""

from __future__ import annotations

import math

# The positive half of the 20-node Gauss-Legendre rule on [-1, 1], as
# (node, weight) pairs; the rule is symmetric, and these are exactly the
# values of numpy.polynomial.legendre.leggauss(20).
_GL_HALF = tuple((float.fromhex(x), float.fromhex(w)) for x, w in (
    ("0x1.3973df98b86b0p-4", "0x1.38d6c490a3380p-3"),
    ("0x1.d281636928bc0p-3", "0x1.31819b52c59a4p-3"),
    ("0x1.7eaccf15652c4p-2", "0x1.230348f34a542p-3"),
    ("0x1.05905c13f7ff7p-1", "0x1.0db2c5db26e08p-3"),
    ("0x1.45a8d3fa710dbp-1", "0x1.e41ff31573b56p-4"),
    ("0x1.7e1f37346a54ep-1", "0x1.a1817a317a834p-4"),
    ("0x1.ada0bd5efd6e7p-1", "0x1.5519fe196e247p-4"),
    ("0x1.d31064173fd92p-1", "0x1.00b467df7e461p-4"),
    ("0x1.ed8dba7bd769fp-1", "0x1.4c9b5ea53b638p-5"),
    ("0x1.fc7b5a0c71ce1p-1", "0x1.209680274e74ep-6"),
))


def li(x: float) -> float:
    """Integral of 1/log(t) over [2, x], relative error well below 1e-10.

    Substituting t = exp(u) turns the integrand into exp(u)/u, which is
    analytic on [log 2, log x]; composite 20-node Gauss-Legendre over
    panels of length <= 1 then converges to machine precision.
    """
    if not x >= 2:              # so that nan fails too
        raise ValueError(f"li is defined for x >= 2, got {x}")
    a = math.log(2.0)
    b = math.log(x)
    if b == a:
        return 0.0
    panels = max(1, math.ceil(b - a))
    step = (b - a) / panels
    edges = [a + i * step for i in range(panels)] + [b]
    terms = []
    for left, right in zip(edges, edges[1:]):
        half = (right - left) / 2.0
        mid = (right + left) / 2.0
        for node, weight in _GL_HALF:
            for u in (mid - half * node, mid + half * node):
                terms.append(half * (math.exp(u) / u * weight))
    return math.fsum(terms)

