import orbit_atlas
from orbit_atlas import algebra, canonical, entanglement, gram, states, strata, submaximal

MODULES = (algebra, canonical, entanglement, gram, states, strata, submaximal)


def test_every_module_export_resolves_on_the_package():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(orbit_atlas, name) is getattr(mod, name), (mod.__name__, name)
            assert name in orbit_atlas.__all__, (mod.__name__, name)


def test_package_all_has_no_duplicates():
    assert len(orbit_atlas.__all__) == len(set(orbit_atlas.__all__))
    assert set(orbit_atlas.__all__) == {"__version__"}.union(*(m.__all__ for m in MODULES))
