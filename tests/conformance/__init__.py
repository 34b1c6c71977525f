"""The conformance harness: one differential check of the one invariant.

Accepted top alignments are byte-equal to the plainest run there is,
whichever point of the configuration lattice ran them
(:mod:`tests.conformance.lattice`), and they agree with two oracles that
share no code with the search: the O(n⁴) algorithm of Table 1 and a
suffix-array repeat finder (:mod:`tests.conformance.repeats`).
"""
