"""Checks that run around every test.

Every certificate a test builds, through a library builder or an oracle,
passes ``certificates.sealed``.  While a test runs, the modules that call
``sealed`` call it through a recorder that also writes the certificate both
ways, with ``SeriesCertificate.canonical_text`` and with ``canonical_json`` of
``to_json_dict``.  The two must give the same text, or raise the same
exception type.  The recorder returns what ``sealed`` returns and lets its
exceptions through, so no test sees a difference; a certificate written two
ways fails the test that built it, at teardown.

``--hypothesis-profile=ci`` makes the property tests reproducible: their
examples are seeded from a hash of each test function, not drawn at random,
and no example database is read or written.  Example counts are unchanged.
"""

import pytest
from hypothesis import settings

import nilpotent2_oracle
from invariants_oracle import writer_mismatch
from nilcert import certificates, nilpotent2, semidirect

settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(autouse=True)
def every_sealed_certificate_has_one_text(monkeypatch):
    real = certificates.sealed
    mismatches = []

    def recording(*args, **kwargs):
        cert = real(*args, **kwargs)
        found = writer_mismatch(cert)
        if found:
            mismatches.append((cert,) + found)
        return cert

    for module in (semidirect, nilpotent2, nilpotent2_oracle):
        monkeypatch.setattr(module, "sealed", recording)
    yield
    assert not mismatches, mismatches[:3]
