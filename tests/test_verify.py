import pytest

from acflow.verify import verify_suite


def test_invariants_profile_passes():
    report = verify_suite(("invariants",))
    assert report["passed"], report["failures"]


def test_empty_profile_is_trivial_pass():
    report = verify_suite(())
    assert report["passed"]
    assert report["checks"] == []


def test_undersized_kappa_reports_hypothesis_violation():
    # Negative control: kappa far below the Lipschitz bound must surface as a
    # failed check naming the violated hypothesis, not as a crash.
    report = verify_suite(("invariants",), kappa=0.1 * 8.02)
    assert not report["passed"]
    details = " ".join(f["detail"] for f in report["failures"])
    assert "hypothesis violated" in details


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        verify_suite(("spectra",))


def test_unknown_profile_is_named():
    with pytest.raises(ValueError, match=r"unknown verify profiles: \['bogus'\]"):
        verify_suite(("bogus",))
