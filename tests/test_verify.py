import dataclasses

from cliffharm import verify
from cliffharm.orbits import spherical_closed_form


def test_sampled_spherical_check_passes():
    result = verify.check_sampled_spherical(degrees=(5, 6))
    assert result.ident == "D2"
    assert result.ok, result.detail


def test_sampled_spherical_check_reports_a_wrong_closed_form(monkeypatch):
    def wrong(q):
        res = spherical_closed_form(q)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(verify, "spherical_closed_form", wrong)
    result = verify.check_sampled_spherical(degrees=(5, 6))
    assert not result.ok
    assert "n=5" in result.detail and "closed" in result.detail
