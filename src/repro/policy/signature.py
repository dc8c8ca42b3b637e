"""Tracer anchor for the ``policy.signature`` row (see :mod:`repro.policy`)."""


class WorkloadSignature:
    @classmethod
    def of(cls, dfg: object) -> None:
        raise NotImplementedError("the adaptive policy layer was removed")
