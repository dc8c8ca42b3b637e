"""Tracer anchors, not a policy layer.

Every job runs the one pipeline; nothing selects a strategy for it.
``perfbench/tracer.py`` still patches one method in each of
``signature.py`` and ``profiles.py`` by name, so those two never-called
stubs keep ``--trace 1`` importable.
Delete this package together with the ``policy.signature`` and
``policy.record`` rows of the tracer's ``TRACED`` table.
"""
