import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from exact_stdlib_check import make_exact_station


@pytest.fixture
def exact_station():
    return make_exact_station()
