"""One cache policy: every memo of a pure function is a bounded LRU made by
``cached``, and ``clear_caches`` empties them all."""

import functools

CACHE_SIZE = 1 << 14   # entries per memo; E6 w0 needs about 8.7k Poincare polynomials
_memos = []


def cached(fn):
    """fn with a CACHE_SIZE-entry LRU memo; still a plain function of fn's module."""
    memo = functools.lru_cache(maxsize=CACHE_SIZE)(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return memo(*args, **kwargs)

    wrapper.cache_info = memo.cache_info
    _memos.append(memo)
    return wrapper


def clear_caches():
    """Empty every memo, the shared search memo and the Weyl group and root
    system registries (a group's interned elements go with it)."""
    from .freeness import _memo
    from .rootsys import RootSystem
    from .weyl import WeylGroup

    for memo in _memos:
        memo.cache_clear()
    _memo.clear()
    WeylGroup._cache.clear()
    RootSystem._cache.clear()
