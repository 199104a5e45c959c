"""Exception hierarchy shared by all protocol modules."""


class MpcError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(MpcError):
    """Invalid or unsatisfiable parameters (group search, trunc width, config)."""


class MessageSpaceError(MpcError):
    """Plaintext or factor outside the order-q subgroup message space."""


class NonInvertibleError(MpcError):
    """Element has no multiplicative inverse modulo p."""


class EncodingRangeError(MpcError):
    """Signed or fixed-point value outside the encodable range."""


class ShareError(MpcError):
    """Bad share vector: too few parties, missing share, mismatched party sets."""


class TripleReuseError(MpcError):
    """A Beaver triple was presented for a second multiplication."""


class DegenerateTableError(MpcError):
    """Contingency table with a zero inflation-factor denominator."""


class ShapeError(MpcError):
    """Dimension mismatch between basis and vector operands."""


class ParseError(MpcError):
    """Unrecognized allele symbol or malformed input file."""


class NetworkError(MpcError):
    """Runtime setup or routing failure (duplicate party, unknown endpoint)."""


class ProtocolAbort(MpcError):
    """A sub-protocol failed; carries enough context to locate the session."""


class ValidationError(MpcError):
    """Run configuration or input data failed pre-flight validation."""
