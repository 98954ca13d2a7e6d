"""The package's public surface."""

import ppmbqc


def test_every_exported_name_resolves():
    assert len(set(ppmbqc.__all__)) == len(ppmbqc.__all__)
    for name in ppmbqc.__all__:
        assert getattr(ppmbqc, name) is not None, name
