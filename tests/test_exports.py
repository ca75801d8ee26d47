import isocenter


def test_every_exported_name_resolves():
    assert [name for name in isocenter.__all__ if not hasattr(isocenter, name)] == []
