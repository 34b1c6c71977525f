"""Seeded-violation fixture package for the whole-program analysis.

Each module plants exactly the structures the interprocedural rule
RPR013 and the call-graph resolver look for.  Tests copy this tree to a
tmp dir before analysing it (paths under ``tests/`` are treated as test
code and the ``fixtures`` directory is skipped by file collection, both
on purpose so the seeded violations never leak into the repo's own lint
run).
"""
