import json
import pathlib

import pytest

import compare_tables

DATA_DIR = pathlib.Path(__file__).parent / "data"
# `recshrink tables ... --format json` cells, keyed by their arguments
FROZEN_TABLES = DATA_DIR / "tables_frozen.json"


@pytest.fixture
def records_csv() -> pathlib.Path:
    return DATA_DIR / "example_records.csv"


@pytest.fixture(scope="session")
def frozen_table():
    """check(key, cells): the cells equal the frozen table ``key`` within 1e-6 per cell.

    This is the "same behaviour" gate of tables 2 and 3: a change that moves
    a cell on purpose rewrites the file and says why.
    """
    frozen = json.loads(FROZEN_TABLES.read_text())

    def check(key, cells):
        _, problems = compare_tables.compare(frozen[key], cells, tol=1e-6)
        assert problems == [], key

    return check
