"""End-to-end benchmark of the repro package's four user paths.

``run.py`` (one directory up) is the command line; this package holds the
span store (:mod:`.spans`), the statistics rules (:mod:`.measure`), the
closed-loop HTTP client (:mod:`.client`), the table of timed layer entry
points (:mod:`.layers`) and the workloads (:mod:`.workloads`).
"""
