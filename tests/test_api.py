import symunion

# Names that left the public surface: test oracles and builders that now live
# in tests/helpers.py, and capabilities nothing in the package used.
NOT_EXPORTED = (
    "alexander_from_conway",
    "connected_sum",
    "is_monic",
    "parse_poly",
    "renumber_edges",
    "reverse",
    "reverse_strand",
    "tangle_fraction",
)


def test_every_exported_name_resolves():
    for name in symunion.__all__:
        assert hasattr(symunion, name), name


def test_exports_are_unique():
    assert len(set(symunion.__all__)) == len(symunion.__all__)


def test_test_only_names_are_not_exported():
    for name in NOT_EXPORTED:
        assert name not in symunion.__all__, name
        assert not hasattr(symunion, name), name
