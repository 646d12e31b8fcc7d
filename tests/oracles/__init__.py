"""Scalar reference implementations the vectorised kernels replaced.

Each oracle is the straightforward loop a kernel used to be; the tests
in this package diff the fast kernels against them, so a rewrite must
reproduce the old behaviour bit for bit.
"""
