"""Simulator and post-processing stack for a short-range free-space BB84 link.

The package covers the full chain from faint-pulse transmission through
detection, time-tag synchronization, sifting, LDPC reconciliation and
privacy amplification, plus the consumable one-time-pad store the final
keys feed into.
"""
