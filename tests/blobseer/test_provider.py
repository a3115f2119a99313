"""Unit tests for data providers."""

import pytest

from repro.blobseer.backends import InMemoryPageStore
from repro.blobseer.pages import fresh_page_id
from repro.blobseer.provider import Provider
from repro.common.errors import PageNotFoundError, ProviderUnavailableError


@pytest.fixture()
def provider():
    return Provider("p0", InMemoryPageStore())


def test_put_get_roundtrip(provider):
    pid = fresh_page_id(1, "w")
    provider.put_page(pid, b"hello page")
    assert provider.get_page(pid) == b"hello page"


def test_range_read(provider):
    pid = fresh_page_id(1, "w")
    provider.put_page(pid, b"0123456789")
    assert provider.get_page(pid, 3, 4) == b"3456"


def test_range_validation(provider):
    pid = fresh_page_id(1, "w")
    provider.put_page(pid, b"0123456789")
    with pytest.raises(PageNotFoundError):
        provider.get_page(pid, 5, 10)
    with pytest.raises(PageNotFoundError):
        provider.get_page(pid, -1, 2)


def test_missing_page(provider):
    with pytest.raises(PageNotFoundError):
        provider.get_page(fresh_page_id(1, "ghost"))


def test_empty_page_rejected(provider):
    with pytest.raises(ValueError):
        provider.put_page(fresh_page_id(1, "w"), b"")


def test_failure_injection(provider):
    pid = fresh_page_id(1, "w")
    provider.put_page(pid, b"data")
    provider.fail()
    assert provider._failed
    with pytest.raises(ProviderUnavailableError):
        provider.get_page(pid)
    with pytest.raises(ProviderUnavailableError):
        provider.put_page(fresh_page_id(1, "w2"), b"x")
    provider.recover()
    assert provider.get_page(pid) == b"data"  # data survived the crash


def test_counters(provider):
    pid = fresh_page_id(1, "w")
    provider.put_page(pid, b"abcdef")
    assert provider.get_page(pid, 0, 3) == b"abc"
    assert provider.bytes_stored == 6
    assert provider.pages_stored == 1
