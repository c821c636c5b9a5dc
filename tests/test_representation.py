"""Pins on the census output and the enumeration order of w(rho) elements."""

import hashlib

import pytest

from levispherical import enumerate_group, length
from levispherical.cli import main
from conftest import spec_of

# sha256 of the sorted F4 all-subsets record lines, computed with the
# earlier matrix representation of group elements.
F4_RECORDS_SHA256 = "787e28166327fa1d485d651e6918924dc7c12965d0c0048a5e2ed7555dfe3c4d"


def test_f4_census_record_set_is_pinned(capsys):
    assert main(["census", "--type", "F4"]) == 0
    records = capsys.readouterr().out.splitlines()[:-1]  # drop the summary
    assert len(records) == 5089
    digest = hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()
    assert digest == F4_RECORDS_SHA256


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2", "D4", "F4"])
def test_enumeration_layers_increase_in_rho_image(type_str):
    spec = spec_of(type_str)
    prev = None
    for w in enumerate_group(spec):
        cur = (length(spec, w), w.rho_image)
        if prev is not None:
            assert prev < cur
        prev = cur
