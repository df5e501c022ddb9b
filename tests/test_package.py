import rabinovich


def test_public_names_resolve():
    for name in rabinovich.__all__:
        assert hasattr(rabinovich, name), name
    assert len(set(rabinovich.__all__)) == len(rabinovich.__all__)
    assert "check_state" in rabinovich.__all__
    for removed in ("integrate", "FieldFn", "ReportSettings", "vector_field"):
        assert not hasattr(rabinovich, removed), removed
