"""Checks that run around every test.

Every certificate a test builds, through a library builder or an oracle,
passes ``certificates.sealed``.  While a test runs, ``sealed`` is a recorder
in ``certificates`` itself, which the library's builders reach through the
package, and in the oracle that imports it by name.  The recorder also
holds each certificate's ``canonical_text`` and ``to_json_dict`` to the
reference writer in ``invariants_oracle``: the text must be the
reference's, and the dict its value with exact types and sorted keys, or
each must raise the reference's exception type.  The recorder returns what
``sealed`` returns and lets its exceptions through, so no test sees a
difference; a certificate written otherwise fails the test that built it,
at teardown.  A test that asks for the fixture by name gets the list of
certificates recorded so far.

``--hypothesis-profile=ci`` makes the property tests reproducible: their
examples are seeded from a hash of each test function, not drawn at random,
and no example database is read or written.  Example counts are unchanged.

A test that asks for ``time_limit`` can run a call under a time limit, so
that a call that would never end without its guard fails the test instead.
"""

import contextlib
import signal

import pytest
from hypothesis import settings

import nilpotent2_oracle
from invariants_oracle import dict_mismatch, writer_mismatch
from nilcert import certificates

settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture(autouse=True)
def every_sealed_certificate_has_one_text(monkeypatch):
    real = certificates.sealed
    recorded, mismatches = [], []

    def recording(*args, **kwargs):
        cert = real(*args, **kwargs)
        recorded.append(cert)
        for found in (writer_mismatch(cert), dict_mismatch(cert)):
            if found:
                mismatches.append((cert,) + found)
        return cert

    for module in (certificates, nilpotent2_oracle):
        monkeypatch.setattr(module, "sealed", recording)
    yield recorded
    assert not mismatches, mismatches[:3]


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` fails the test when its body runs
    longer.  The alarm interrupts Python code only, not a single long C
    call such as one huge ``**``; such a call needs a child process."""

    def expired(signum, frame):
        pytest.fail("still running after the time limit")

    @contextlib.contextmanager
    def limit(seconds):
        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
