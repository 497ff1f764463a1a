"""The operators' laws of real arithmetic, bounded in ulps of the result.

The abstract claims that the four dimension operators "have the usual
properties of the corresponding operations with real numbers". Each law is
evaluated on 20,000 triples of operands at n=3, drawn from a fixed seed
uniform in [1e-3, 1] and log-uniform in [1e-300, 1], and its worst error is
bounded in ulps of the law's right-hand side. A triple off the law's
domain (``sub`` raises), or where a side of the law is not a normal
binary64 (a product that underflows), says nothing in ulps and is left
out. The bounds are what the committed seed reads: they record how far the
rounded rows drift today, not a property of the paper.

sub(add(a, b), b) = a is left out: it reads hundreds of ulps, since sub's
division by b - add(a, b) multiplies add's relative error by about a/b. A
bound for it needs the law's condition term.
"""

import math
import sys

import numpy as np
import pytest

from cantordim import OpDomainError, add, div, mul, sub

N = 3
TRIPLES = 20_000
SEED = 37


def draws(kind):
    """TRIPLES rows of three operands, uniform in [1e-3, 1] or log-uniform in [1e-300, 1]."""
    rng = np.random.default_rng(SEED)
    if kind == "uniform":
        return rng.uniform(1e-3, 1.0, (TRIPLES, 3)).tolist()
    return (10.0 ** rng.uniform(-300.0, 0.0, (TRIPLES, 3))).tolist()


# law -> (left side, right side) of operands a, b, c; OpDomainError off the law's domain
LAWS = {
    "add associative": lambda a, b, c: (
        add(add(a, b, N).d, c, N).d, add(a, add(b, c, N).d, N).d),
    "mul associative": lambda a, b, c: (
        mul(mul(a, b, N).d, c, N).d, mul(a, mul(b, c, N).d, N).d),
    "mul distributes over add": lambda a, b, c: (
        mul(a, add(b, c, N).d, N).d, add(mul(a, b, N).d, mul(a, c, N).d, N).d),
    "(a sub b) add b = a": lambda a, b, c: (add(sub(a, b, N).d, b, N).d, a),
    "(a div b) mul b = a, a <= b": lambda a, b, c: (
        mul(div(min(a, b), max(a, b), N).d, max(a, b), N).d, min(a, b)),
}

# law -> (uniform, log-uniform): the worst error in ulps that the committed seed reads
BOUNDS = {
    "add associative": (4, 3),
    "mul associative": (2, 2),
    "mul distributes over add": (4, 3),
    "(a sub b) add b = a": (3, 2),
    "(a div b) mul b = a, a <= b": (1, 1),
}


def worst_ulps(law, triples):
    """The law's worst error in ulps of its right side, and the triples it was read on."""
    worst, read = 0.0, 0
    for a, b, c in triples:
        try:
            sides = LAWS[law](a, b, c)
        except OpDomainError:
            continue
        if min(sides) < sys.float_info.min:
            continue
        left, right = sides
        worst = max(worst, abs(left - right) / math.ulp(right))
        read += 1
    return worst, read


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("kind", ["uniform", "log-uniform"])
def test_law_holds_within_its_ulps(law, kind):
    worst, read = worst_ulps(law, draws(kind))
    assert read >= TRIPLES // 10  # enough of the draw lies on the law's domain
    bound = BOUNDS[law][kind == "log-uniform"]
    assert worst <= bound, f"{law}: {worst} ulps on {kind} operands, bound {bound}"
