"""Cryptographic substrate: AES-128, tweaked counter systems, rings, fields.

Everything SecNDP needs from "a block cipher" and "modular arithmetic" is
implemented here from scratch; the :mod:`repro.core` package builds the
paper's algorithms on top of these primitives.  Import each from its
module: the keyless half (:mod:`~repro.crypto.ring`,
:mod:`~repro.crypto.prime_field`, :mod:`~repro.crypto.limb_field`) loads
without the key-holding one (:mod:`~repro.crypto.tweaked`,
:mod:`~repro.crypto.otp`).
"""
