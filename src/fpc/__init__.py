"""Frameproof-code toolkit: construction, exact verification, and bounds.

Importing the package loads nothing else. Library callers import the
checkers from `fpc.frameproof` and `fpc.cover_free`, the bounds from
`fpc.extremal`, and the construction pipeline from `fpc.construct` and
`fpc.packing`.
"""
