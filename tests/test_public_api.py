"""The public names of the dimeq package: what `from dimeq import *` binds.

The sorted list of names is pinned by its sha256 (55 names, the same on
CPython 3.10 through 3.13), so a name that is added, dropped or renamed shows
up here, whatever way `__all__` is written.
"""

import hashlib
import re
from pathlib import Path
from types import ModuleType

import dimeq

ROOT = Path(__file__).resolve().parent.parent

ALL_SHA256 = "1a0da5856917c06aeba299f356daf31d63bc8bdcb8247fd04b50cab355a4a10e"


def test_names_are_pinned():
    names = sorted(dimeq.__all__)
    assert len(names) == len(set(names)) == 55
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == ALL_SHA256


def test_every_name_resolves_and_none_is_a_module():
    for name in dimeq.__all__:
        assert not isinstance(getattr(dimeq, name), ModuleType), name


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from dimeq import *", ns)
    assert set(ns) - {"__builtins__"} == set(dimeq.__all__)


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert tour is not None
    exec(compile(tour.group(1), "README.md", "exec"), {})
