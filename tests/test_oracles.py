"""The oracle gate in tier-1: every ``queries()`` entry runs at sf0.001.

An entry with an ``oracle_sql()`` twin must match it under the same
``compare`` that ``tools/check_oracles.py`` applies (sorted columns,
row count, order-insensitive values, dtypes). A rows-only entry must
run without raising. One DuckDB connection and the session Ray
fixture serve every entry.
"""

from __future__ import annotations

import duckdb
import pytest

import __ray_entry__ as entry
from tools.check_oracles import TABLES, compare

QUERIES = entry.queries()
ORACLES = entry.oracle_sql()


@pytest.fixture(scope="module")
def oracle_db(sf_dir):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    yield con
    con.close()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_entry_matches_its_twin(name, sf_dir, oracle_db):
    res = QUERIES[name](sf_dir)
    if name not in ORACLES:
        return
    verdict = compare(res, oracle_db.execute(ORACLES[name]).df())
    assert verdict == "OK", verdict
