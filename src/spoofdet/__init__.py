"""Uplink pilot-spoofing detection via sparse spatial channel fingerprints.

Subpackages cover the full pipeline: reference-sequence generation (`zc`),
clustered multipath channel draws (`channel`), the pilot transmit/receive and
least-squares estimation chain (`link`), sparse fingerprint extraction
(`extractor`), the sequential similarity detector (`detector`), reference
detectors (`baselines`), and the Monte Carlo experiment harness
(`scenario`, `experiments`).
"""

__version__ = "0.1.0"
