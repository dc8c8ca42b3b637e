"""Tracer anchor for the ``policy.record`` row (see :mod:`repro.policy`)."""


class ProfileStore:
    def record(self, *args: object) -> None:
        raise NotImplementedError("the adaptive policy layer was removed")
