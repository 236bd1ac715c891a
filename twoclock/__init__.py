"""The two-clock benchmark of the spECK reproduction.

Replays four workloads through the program's public entry points and
reports host wall-clock and modeled (virtual-clock) metrics; a separate
traced run gives per-layer self times and counts.  ``run.py`` is the
entry point, ``steady.py`` the steadiness runner; see ``README.md``.
"""
