"""The value records: how they print, hash, compare and refuse bad fields.

Each record is an immutable value.  Its `repr`, its hash (that of the tuple of
its fields, so set and dict order follow the fields) and its equality with
another record of its class are part of what callers see, as is the
exception each validating record raises."""

import pytest

from ratsurf import (
    Branch,
    ClassParseError,
    CohomologyTable,
    ConditionReport,
    Decomposition,
    DivisorClass,
    GradedBundle,
    Polynomial,
    SeriesCoefficients,
    SheafClass,
    ThetaContext,
    divisor,
    hirzebruch,
    projective_plane,
)

P2 = projective_plane()
F1 = hirzebruch(1)


def _cases():
    """(record, an equal record built apart, a different record of the same
    class, its repr or None, the tuple of its fields, one field name)."""
    report = ConditionReport("A2", True, None, ())
    return [
        (
            divisor(3, 9),
            DivisorClass((3, 9)),
            divisor(3, 8),
            "DivisorClass(3, 9)",
            ((3, 9),),
            "coeffs",
        ),
        (divisor(3), DivisorClass(coeffs=(3,)), divisor(4), "DivisorClass(3,)", ((3,),), "coeffs"),
        (
            F1,
            hirzebruch.__wrapped__(1),
            hirzebruch(0),
            "Surface(F1)",
            (F1.kind, 1, F1.basis, F1.gram, "F1", "Hirzebruch surface F_1", F1.canonical),
            "e",
        ),
        (
            SheafClass(0, divisor(3, 9), 0),
            SheafClass(rank=0, c1=divisor(3, 9), chi=0),
            SheafClass(0, divisor(3, 9), 1),
            "SheafClass(rank=0, c1=DivisorClass(3, 9), chi=0)",
            (0, divisor(3, 9), 0),
            "rank",
        ),
        (
            CohomologyTable(3, 0, 0, 3),
            CohomologyTable(h0=3, h1=0, h2=0, chi=3),
            CohomologyTable(0, 0, 1, 1),
            "CohomologyTable(h0=3, h1=0, h2=0, chi=3)",
            (3, 0, 0, 3),
            "h1",
        ),
        (
            Decomposition((divisor(1, 0), divisor(2, 9))),
            Decomposition(parts=(divisor(1, 0), divisor(2, 9))),
            Decomposition((divisor(1, 1), divisor(2, 8))),
            "Decomposition(parts=(DivisorClass(1, 0), DivisorClass(2, 9)))",
            ((divisor(1, 0), divisor(2, 9)),),
            "parts",
        ),
        (
            report,
            ConditionReport(condition="A2", passed=True, witness=None, details=()),
            ConditionReport("A3", False, divisor(1, 0), ()),
            None,  # a report's repr shows its details object, address and all
            ("A2", True, None, ()),
            "passed",
        ),
        (
            Polynomial((1, 2)),
            Polynomial(coeffs=(1, 2)),
            Polynomial((1,)),
            "Polynomial(coeffs=(1, 2))",
            ((1, 2),),
            "coeffs",
        ),
        (
            SeriesCoefficients(1, (1, 2)),
            SeriesCoefficients(trunc=1, coeffs=(1, 2)),
            SeriesCoefficients(1, (1, 3)),
            "SeriesCoefficients(trunc=1, coeffs=(1, 2))",
            (1, (1, 2)),
            "trunc",
        ),
        (
            GradedBundle.from_summands(((0, 1), (-2, 3))),
            GradedBundle(m=(1, 0, 3)),
            GradedBundle((1,)),
            "GradedBundle(m=(1, 0, 3))",
            ((1, 0, 3),),
            "m",
        ),
        (
            ThetaContext(P2, divisor(3), 1, 9, Branch.GENUS_ONE),
            ThetaContext(surface=P2, L=divisor(3), genus=1, l=9, branch=Branch.GENUS_ONE),
            ThetaContext(P2, divisor(4), 3, 14, Branch.POSITIVE_GENUS_GENERAL),
            "ThetaContext(surface=Surface(P2), L=DivisorClass(3,), genus=1, l=9, "
            "branch=<Branch.GENUS_ONE: 'GenusOne'>)",
            (P2, divisor(3), 1, 9, Branch.GENUS_ONE),
            "l",
        ),
    ]


@pytest.mark.parametrize("record, twin, other, text, fields, name", _cases())
def test_record_prints_hashes_compares_and_stays_fixed(record, twin, other, text, fields, name):
    if text is not None:
        assert repr(record) == text
    assert hash(record) == hash(fields) == hash(twin)
    assert record == twin and not record != twin
    assert record != other and not record == other
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(other, name))
    assert record == twin


def test_records_refuse_bad_fields_with_their_own_errors():
    refusals = [
        (lambda: divisor(1.5), ClassParseError, "divisor coefficients must be integers: (1.5,)"),
        (lambda: SheafClass(-1, divisor(1), 0), ClassParseError, "sheaf rank must be >= 0, got -1"),
        (
            lambda: Polynomial((1, 0)),
            AssertionError,
            "Polynomial coefficients carry a trailing zero; use polynomial()",
        ),
        (lambda: SeriesCoefficients(2, (1, 2)), AssertionError, "expected 3 coefficients, got 2"),
        (
            lambda: GradedBundle((1, 0)),
            AssertionError,
            "trailing zero multiplicity in graded bundle (1, 0)",
        ),
        (
            lambda: GradedBundle((1, -1)),
            AssertionError,
            "non-positive multiplicity -1 in graded bundle",
        ),
        (lambda: SeriesCoefficients(-1, ()), ValueError, "truncation order must be >= 0, got -1"),
        (
            lambda: CohomologyTable(-1, 0, 0, -1),
            AssertionError,
            "negative cohomology dimension in CohomologyTable(h0=-1, h1=0, h2=0, chi=-1)",
        ),
        (
            lambda: CohomologyTable(1, 0, 0, 2),
            AssertionError,
            "chi mismatch in CohomologyTable(h0=1, h1=0, h2=0, chi=2)",
        ),
        (
            lambda: ConditionReport("A2", False, None, ()),
            AssertionError,
            "failing condition report must carry a witness",
        ),
    ]
    for make, error, message in refusals:
        with pytest.raises(error) as caught:
            make()
        assert type(caught.value) is error
        assert str(caught.value) == message
