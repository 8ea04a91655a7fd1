"""The package's public API: every name it exports resolves."""

import tubeflow


def test_every_name_in_all_resolves():
    missing = [name for name in tubeflow.__all__
               if not hasattr(tubeflow, name)]
    assert missing == []
    namespace = {}
    exec("from tubeflow import *", namespace)
    assert set(tubeflow.__all__) <= set(namespace)
