"""Exact arithmetic for iterated partial-sum triangles and their path sums.

The package computes entries of the m-th order partial-sum triangles
(order 1 is Pascal's triangle), sums them along straight lattice paths,
derives the rational polynomials behind the Fibonacci closed forms of
those sums, and cross-checks every construction against brute-force
oracles and published integer sequences.  All arithmetic is exact:
plain int plus fractions.Fraction, never floats.
"""

from .bruteforce import cell_bruteforce
from .exactnum import Natural, Rational, binomial, pow2
from .fibonacci import fib, fib_diag, telescope
from .gfib import lambda_diff, lambda_explicit, lambda_rec, s2_reconstruct
from .identities import (
    REGISTRY,
    IdentityRecord,
    VerifyReport,
    sbar31,
    sbar31diff3,
    sbar41,
    verify,
)
from .oeis import (
    BINDINGS,
    BFile,
    BFileFetchError,
    SequenceBinding,
    crosscheck,
    export_bfile,
    fetch_bfile,
    load_snapshot,
    parse_bfile,
    resolve_offset,
    terms,
)
from .paths import (
    InvalidPathSpec,
    PathSpec,
    PathTrace,
    sum_S,
    sum_Sbar,
    sum_T,
    trace,
)
from .polyderive import (
    QRPair,
    RatPolynomial,
    derive_QR,
    discrete_sum,
    poly_eval,
    tm_closed,
)
from .triangle import TriangleStore

__all__ = [
    "Natural",
    "Rational",
    "binomial",
    "pow2",
    "fib",
    "fib_diag",
    "telescope",
    "TriangleStore",
    "cell_bruteforce",
    "InvalidPathSpec",
    "PathSpec",
    "PathTrace",
    "trace",
    "sum_S",
    "sum_Sbar",
    "sum_T",
    "lambda_diff",
    "lambda_rec",
    "lambda_explicit",
    "s2_reconstruct",
    "RatPolynomial",
    "QRPair",
    "poly_eval",
    "discrete_sum",
    "derive_QR",
    "tm_closed",
    "IdentityRecord",
    "VerifyReport",
    "REGISTRY",
    "verify",
    "sbar31",
    "sbar41",
    "sbar31diff3",
    "BFile",
    "SequenceBinding",
    "BFileFetchError",
    "BINDINGS",
    "parse_bfile",
    "load_snapshot",
    "fetch_bfile",
    "terms",
    "export_bfile",
    "resolve_offset",
    "crosscheck",
]

__version__ = "0.1.0"
