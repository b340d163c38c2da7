"""The paper's primary contribution: SecNDP encryption, MAC, and protocols.

Public surface:

* :class:`SecNDPParams` - shared widths and moduli (Table VI).
* :class:`ArithmeticEncryptor` / :class:`EncryptedMatrix` - Alg. 1.
* :class:`LinearChecksum` / :class:`MultiPointChecksum` - Alg. 2 / Alg. 8.
* :class:`EncryptedLinearMac` - Alg. 3.
* :class:`SecNDPProcessor` / :class:`UntrustedNdpDevice` - Alg. 4 / 5, as
  the trusted pad half and the untrusted ciphertext half of one split
  (Sec. V-C: the OTP PU mirrors the NDP PU).
* :class:`WeightedSummationOracles` - Alg. 6 / 7 security-game oracles,
  played against that split.
* :class:`VersionManager` - software version management (Sec. V-A).
"""

from .checksum import LinearChecksum, MultiPointChecksum
from .encryption import ArithmeticEncryptor, EncryptedMatrix
from .mac import EncryptedLinearMac
from .oracles import SignedTranscript, WeightedSummationOracles
from .params import SecNDPParams
from .serialization import deserialize_matrix, serialize_matrix
from .protocol import SecNDPProcessor, UntrustedNdpDevice, WeightedSumResult
from .versions import DEFAULT_VERSION_BUDGET, VersionManager

__all__ = [
    "LinearChecksum",
    "MultiPointChecksum",
    "ArithmeticEncryptor",
    "EncryptedMatrix",
    "EncryptedLinearMac",
    "SignedTranscript",
    "WeightedSummationOracles",
    "SecNDPParams",
    "serialize_matrix",
    "deserialize_matrix",
    "SecNDPProcessor",
    "UntrustedNdpDevice",
    "WeightedSumResult",
    "DEFAULT_VERSION_BUDGET",
    "VersionManager",
]
