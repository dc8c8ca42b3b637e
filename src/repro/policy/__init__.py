"""Tracer anchors, not a policy layer.

A job runs on its request's ``backend`` or on the service's resident
backend; nothing selects between them.  ``perfbench/tracer.py`` still
patches one method in each of ``signature.py`` and ``profiles.py`` by
name, so those two never-called stubs keep ``--trace 1`` importable.
Delete this package together with the ``policy.signature`` and
``policy.record`` rows of the tracer's ``TRACED`` table.
"""
