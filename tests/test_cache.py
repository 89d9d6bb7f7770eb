"""The cache policy: every memo is a bounded `cached` LRU, and clear_caches
empties all of them together with the shared search memo, the groups and
the root systems."""

import gc
import importlib
import inspect
import pkgutil
import weakref

import weylinv
from weylinv import RootSystem, WeylGroup, clear_caches, freeness
from weylinv.cache import CACHE_SIZE
from weylinv.cli import main


def cached_functions():
    """{"module.qualname": function} for every `cached` function of weylinv."""
    out = {}
    for info in pkgutil.iter_modules(weylinv.__path__):
        mod = importlib.import_module(f"weylinv.{info.name}")
        owners = [mod] + [c for c in vars(mod).values()
                          if inspect.isclass(c) and c.__module__ == mod.__name__]
        for owner in owners:
            for obj in vars(owner).values():
                if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                    out[f"{info.name}.{obj.__qualname__}"] = obj
    return out


def test_the_cached_functions():
    assert sorted(cached_functions()) == [
        "arrangement._deletion", "arrangement._restriction",
        "arrangement._supersolvable_chain", "arrangement.poincare_polynomial",
        "arrangement.quotient_by_center", "cli.build_parser", "polynomials._linear_split",
        "polynomials.cyclotomic",
        "smoothness.complete_chain_bp", "smoothness.pattern_hits",
        "weyl.WeylGroup.bruhat_interval", "weyl.WeylGroup.elements",
    ]
    for fn in cached_functions().values():
        assert fn.cache_info().maxsize == CACHE_SIZE


def test_cached_functions_keep_the_tracers_view():
    # bench/tracer.py wraps only plain functions defined in the module it scans
    for name, fn in cached_functions().items():
        assert inspect.isfunction(fn), name
        assert inspect.isfunction(fn.__wrapped__), name
        assert fn.__module__ == "weylinv." + name.split(".")[0], name


def test_clear_caches_empties_every_memo_and_releases_groups(tmp_path, capsys):
    cert = str(tmp_path / "w.json")
    analyze = ["analyze", "B4", "1", "2", "3", "4", "3", "2", "1", "--json"]
    assert main(["analyze", "B3", "1", "2", "3", "2", "--json"]) == 0
    assert main(["certify", "B3", "1", "2", "3", "1", "2", "3", "1", "2", "3", "--out", cert]) == 0
    assert main(["audit", "A3", "--json"]) == 0
    capsys.readouterr()
    assert main(analyze) == 0
    out = capsys.readouterr().out
    assert [n for n, fn in cached_functions().items() if not fn.cache_info().currsize] == []
    assert freeness._memo
    groups = [weakref.ref(WeylGroup.get(name)) for name in ("A3", "B3")]
    # the pattern scan registers the root system of each subsystem by its datum
    by_datum = [weakref.ref(system) for key, system in RootSystem._cache.items()
                if not isinstance(key, str)]
    assert by_datum
    clear_caches()
    assert [n for n, fn in cached_functions().items() if fn.cache_info().currsize] == []
    assert not freeness._memo
    assert RootSystem._cache == {}
    gc.collect()
    assert [g() for g in groups] == [None, None]
    assert [s() for s in by_datum] == [None] * len(by_datum)
    assert main(analyze) == 0
    assert capsys.readouterr().out == out
