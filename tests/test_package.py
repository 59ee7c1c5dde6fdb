"""The package's export list: one sorted entry per public name."""

import legarray


def test_all_is_sorted_without_duplicates():
    assert legarray.__all__ == sorted(set(legarray.__all__))


def test_every_exported_name_resolves():
    for name in legarray.__all__:
        assert getattr(legarray, name) is not None, name
