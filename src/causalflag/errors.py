"""Exception hierarchy shared by all modules."""


class CausalFlagError(Exception):
    """Base class for all library errors."""


class NotHermitian(CausalFlagError):
    pass


class NonConvergence(CausalFlagError):
    pass


class Singular(CausalFlagError):
    pass


class ModelMismatch(CausalFlagError):
    pass


class NotTransverse(CausalFlagError):
    pass


class NotPairwiseTransverse(CausalFlagError):
    pass


class NotInChart(CausalFlagError):
    pass


class IllConditioned(CausalFlagError):
    pass


class OddRank(CausalFlagError):
    pass


class NotUnimodular(CausalFlagError):
    pass


class DegenerateSignature(CausalFlagError):
    pass


class EmptyInput(CausalFlagError):
    pass


class PointsNotInBothCharts(CausalFlagError):
    pass


class UnknownPreset(CausalFlagError):
    pass


class BallTooLarge(CausalFlagError):
    pass


class NoGap(CausalFlagError):
    pass


class TooFewPoints(CausalFlagError):
    pass


class NoCertificate(CausalFlagError):
    pass


class NotInLevi(CausalFlagError):
    pass


class LimitSetNotNegative(CausalFlagError):
    pass


class NotInDomain(CausalFlagError):
    pass


class BoundaryNotBracketed(CausalFlagError):
    pass


class InvalidFrame(CausalFlagError):
    pass


class NonFiniteInput(CausalFlagError):
    pass
