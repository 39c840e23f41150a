import hardyheat


def test_every_exported_name_resolves():
    missing = [name for name in hardyheat.__all__ if not hasattr(hardyheat, name)]
    assert not missing
