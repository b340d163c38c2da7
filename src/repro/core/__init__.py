"""The paper's primary contribution: SecNDP encryption, MAC, and protocols.

Public surface:

* :class:`SecNDPParams` - shared widths and moduli (Table VI).
* :class:`UntrustedNdpDevice` / :class:`EncryptedMatrix` - the untrusted
  memory party and its ciphertext (:mod:`~repro.core.device`, keyless).
* :class:`SecNDPProcessor` - the trusted party (:mod:`~repro.core.protocol`):
  Alg. 4 / 5 as the pad half added to the device's ciphertext half
  (Sec. V-C: the OTP PU mirrors the NDP PU), then verified.
* :class:`ArithmeticEncryptor` - Alg. 1.
* :class:`LinearChecksum` / :class:`MultiPointChecksum` - Alg. 2 / Alg. 8.
* :class:`EncryptedLinearMac` - Alg. 3.
* :class:`WeightedSummationOracles` - Alg. 6 / 7 security-game oracles,
  played against that split.
* :class:`VersionManager` - software version management (Sec. V-A).

Each name is imported from its module on first use, so importing the
device half does not load the trusted one.
"""

import importlib

_EXPORTS = {
    "ArithmeticEncryptor": "encryption",
    "DEFAULT_VERSION_BUDGET": "versions",
    "EncryptedLinearMac": "mac",
    "EncryptedMatrix": "device",
    "LinearChecksum": "checksum",
    "MultiPointChecksum": "checksum",
    "SecNDPParams": "params",
    "SecNDPProcessor": "protocol",
    "SignedTranscript": "oracles",
    "UntrustedNdpDevice": "device",
    "VersionManager": "versions",
    "WeightedSumResult": "protocol",
    "WeightedSummationOracles": "oracles",
    "deserialize_matrix": "serialization",
    "serialize_matrix": "serialization",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
