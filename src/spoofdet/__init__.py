"""Uplink pilot-spoofing detection via sparse spatial channel fingerprints.

Modules cover the full pipeline: reference-sequence generation (`zc`),
clustered multipath channel draws (`channel`), sparse fingerprint extraction
(`extractor`), the sequential similarity detector (`detector`), reference
detectors (`baselines`), and the Monte Carlo experiment harness
(`scenario`, `experiments`).  `link` is the full-chain test oracle: the
pilot transmit/receive and least-squares estimation chain that the
harness's closed-form observations are checked against.  No other module
imports it.
"""

__version__ = "0.1.0"
