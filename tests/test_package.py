"""The package namespace: every exported name resolves."""

import symloci


def test_every_exported_name_resolves():
    assert len(set(symloci.__all__)) == len(symloci.__all__)
    missing = [name for name in symloci.__all__ if not hasattr(symloci, name)]
    assert not missing
