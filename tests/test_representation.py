"""Pins on the census output and the enumeration order of w(rho) elements."""

import hashlib

import pytest

from levispherical import enumerate_group, length
from levispherical.cli import main
from conftest import spec_of

# sha256 of the sorted F4 all-subsets record lines, computed with the
# earlier matrix representation of group elements.
F4_RECORDS_SHA256 = "787e28166327fa1d485d651e6918924dc7c12965d0c0048a5e2ed7555dfe3c4d"

# sha256 of the whole census stdout, line order included, computed before
# the enumeration held its words as bytes and built only canonical children.
STDOUT_SHA256 = {
    ("F4", "all"): "d4c401f5ff713d52bab3a134f17992cdf67d8fe0f79e392bdf80c0336556e8f7",
    ("D5", "all"): "4d9e3fed62052082a14f083aa4faa00f7f5c893bccd91aeb055b5106a80436d0",
    ("E6", "descents"): "df371e18699267ea7c2faa6e4a3d45356ec3699cf34f2e00cc371b7388e776f5",
}


def test_f4_census_record_set_is_pinned(capsys):
    assert main(["census", "--type", "F4"]) == 0
    records = capsys.readouterr().out.splitlines()[:-1]  # drop the summary
    assert len(records) == 5089
    digest = hashlib.sha256("\n".join(sorted(records)).encode()).hexdigest()
    assert digest == F4_RECORDS_SHA256


@pytest.mark.parametrize("type_str, levi", sorted(STDOUT_SHA256))
def test_census_stdout_is_pinned(capsys, type_str, levi):
    # Unlike the sorted record set above, this pins the order of the lines
    # within each length layer too.
    assert main(["census", "--type", type_str, "--levi", levi]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == STDOUT_SHA256[type_str, levi]


@pytest.mark.parametrize("type_str", ["A3", "B3", "G2", "D4", "F4"])
def test_enumeration_layers_increase_in_rho_image(type_str):
    spec = spec_of(type_str)
    prev = None
    for w in enumerate_group(spec):
        cur = (length(spec, w), w.rho_image)
        if prev is not None:
            assert prev < cur
        prev = cur
