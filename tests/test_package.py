"""The package's public names: `spinbranch.__all__` lists the classes and
functions that `spinbranch/__init__` imports, and no submodule."""
from types import ModuleType

import spinbranch


def test_all_exports_the_api_and_no_submodule():
    exported = {name: getattr(spinbranch, name) for name in spinbranch.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, ModuleType)]
    assert {"Polynomial", "U0Element", "clear_caches", "lin_reduce"} <= set(exported)
    assert not {"core", "crystal", "indices", "poly", "raising", "sigseq"} & set(exported)
