import pytest

from hks import _alloc


class FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


class FakeLibc:
    def __init__(self):
        self.mallopt = FakeMallopt()


def test_policy_goes_through_mallopt(monkeypatch):
    libc = FakeLibc()
    monkeypatch.setattr(_alloc.ctypes, "CDLL", lambda name: libc)
    _alloc._set_malloc_policy()
    assert libc.mallopt.calls == list(_alloc._POLICY)
    # one arena first, so no second arena is made before the thresholds hold
    assert libc.mallopt.calls[0] == (_alloc._M_ARENA_MAX, 1)


@pytest.mark.parametrize("libc", ["missing", "no mallopt"])
def test_no_op_without_glibc_mallopt(monkeypatch, libc):
    def cdll(name):
        if libc == "missing":
            raise OSError(f"{name}: cannot open shared object file")
        return object()

    monkeypatch.setattr(_alloc.ctypes, "CDLL", cdll)
    assert _alloc._set_malloc_policy() is None
