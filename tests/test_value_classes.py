"""The package's record classes, as callers see them.

For each class: constructor defaults and keywords, every validation
error, value equality (never equal to another class with the same field
values), hashing and immutability of the frozen ones, the mutable and
unhashable CertReport, copy and pickle round trips, and the repr.
"""

import copy
import pickle
import types
from fractions import Fraction

import pytest

from darcais.partitions import HookMultiset, HookSelector
from darcais.pf_tnn import MinorSpec, MinorWitness, PFVerdict, ToeplitzSeq
from darcais.polynomials import DArcaisRecord
from darcais.reports import ARTIFACT_VERSION, REPORT_SCHEMA, CertReport
from darcais.rootcert import RootInterval, RouthVerdict, SturmChain
from darcais.shape import ShapeVerdict

# one instance of each class built positionally, the same built by
# keyword, a third with another value, and the exact repr
CASES = {
    "HookMultiset": (
        HookMultiset(HookSelector.FULL, ((1, 2), (3, 1))),
        HookMultiset(selector=HookSelector.FULL, counts=((1, 2), (3, 1))),
        HookMultiset(HookSelector.TRIVIAL_ARM, ((1, 2), (3, 1))),
        "HookMultiset(selector=<HookSelector.FULL: 'full'>, counts=((1, 2), (3, 1)))",
    ),
    "ToeplitzSeq": (
        ToeplitzSeq((1, Fraction(1, 2))),
        ToeplitzSeq(entries=(Fraction(1), Fraction(1, 2))),
        ToeplitzSeq((1, 2)),
        "ToeplitzSeq(entries=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "MinorSpec": (
        MinorSpec((0, 1), (1, 2)),
        MinorSpec(rows=(0, 1), cols=(1, 2)),
        MinorSpec((0, 1), (1, 3)),
        "MinorSpec(rows=(0, 1), cols=(1, 2))",
    ),
    "MinorWitness": (
        MinorWitness(MinorSpec((0,), (0,)), Fraction(-1)),
        MinorWitness(spec=MinorSpec(rows=(0,), cols=(0,)), determinant=Fraction(-1)),
        MinorWitness(MinorSpec((0,), (0,)), Fraction(-2)),
        "MinorWitness(spec=MinorSpec(rows=(0,), cols=(0,)), "
        "determinant=Fraction(-1, 1))",
    ),
    "PFVerdict": (
        PFVerdict(False, None, False, True, {"minor_search": 1.0}),
        PFVerdict(is_pf=False, witness=None, cross_check=False, search_exhausted=True,
                  timings={"minor_search": 1.0}),
        PFVerdict(True, None, True, False),
        "PFVerdict(is_pf=False, witness=None, cross_check=False, "
        "search_exhausted=True, timings={'minor_search': 1.0})",
    ),
    "DArcaisRecord": (
        DArcaisRecord(2, (3, 1)),
        DArcaisRecord(n=2, numer_coeffs=(3, 1)),
        DArcaisRecord(2, (4, 1)),
        "DArcaisRecord(n=2, numer_coeffs=(3, 1))",
    ),
    "CertReport": (
        CertReport("poly", {"n": 1}, "pass"),
        CertReport(kind="poly", target={"n": 1}, verdict="pass", details={},
                   witnesses=[], timings={}),
        CertReport("poly", {"n": 1}, "fail"),
        "CertReport(kind='poly', target={'n': 1}, verdict='pass', details={}, "
        "witnesses=[], timings={}, schema='darcais-report/1', version='0.1.0')",
    ),
    "RootInterval": (
        RootInterval(Fraction(-1), Fraction(0), 1),
        RootInterval(lower=Fraction(-1), upper=Fraction(0), count=1),
        RootInterval(Fraction(-1), Fraction(1), 1),
        "RootInterval(lower=Fraction(-1, 1), upper=Fraction(0, 1), count=1)",
    ),
    "RouthVerdict": (
        RouthVerdict(False, True, 2),
        RouthVerdict(stable=False, marginal=True, stage=2),
        RouthVerdict(False, True, 3),
        "RouthVerdict(stable=False, marginal=True, stage=2)",
    ),
    "SturmChain": (
        SturmChain(((1, 2), (2,))),
        SturmChain(coeffs=((1, 2), (2,))),
        SturmChain(((1, 2),)),
        "SturmChain(coeffs=((1, 2), (2,)))",
    ),
    "ShapeVerdict": (
        ShapeVerdict(True, None, None, 3),
        ShapeVerdict(unimodal=True, peak_index=3),
        ShapeVerdict(unimodal=True, peak_index=4),
        "ShapeVerdict(unimodal=True, log_concave=None, ultra_log_concave=None, "
        "peak_index=3, failure_witness=None)",
    ),
}
FROZEN = sorted(set(CASES) - {"CertReport"})

# the fields of each class, in constructor order
FIELDS = {
    "HookMultiset": ("selector", "counts"),
    "ToeplitzSeq": ("entries",),
    "MinorSpec": ("rows", "cols"),
    "MinorWitness": ("spec", "determinant"),
    "PFVerdict": ("is_pf", "witness", "cross_check", "search_exhausted", "timings"),
    "DArcaisRecord": ("n", "numer_coeffs"),
    "CertReport": ("kind", "target", "verdict", "details", "witnesses", "timings",
                   "schema", "version"),
    "RootInterval": ("lower", "upper", "count"),
    "RouthVerdict": ("stable", "marginal", "stage"),
    "SturmChain": ("coeffs",),
    "ShapeVerdict": ("unimodal", "log_concave", "ultra_log_concave", "peak_index",
                     "failure_witness"),
}


def values(record, name):
    return tuple(getattr(record, field) for field in FIELDS[name])


@pytest.mark.parametrize("name", sorted(CASES))
class TestEveryClass:
    def test_positional_and_keyword_construction_agree(self, name):
        positional, keyword, other, _ = CASES[name]
        assert values(positional, name) == values(keyword, name)
        assert positional == keyword and not positional != keyword
        assert positional != other and not positional == other

    def test_never_equal_to_another_class_with_the_same_values(self, name):
        record = CASES[name][0]
        fields = {field: getattr(record, field) for field in FIELDS[name]}
        assert record != values(record, name)
        assert record != types.SimpleNamespace(**fields)
        assert types.SimpleNamespace(**fields) != record
        assert record != object()

    def test_repr(self, name):
        assert repr(CASES[name][0]) == CASES[name][3]

    def test_copy_and_pickle_round_trip(self, name):
        record = CASES[name][0]
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert values(twin, name) == values(record, name)
            assert twin == record


@pytest.mark.parametrize("name", FROZEN)
class TestFrozenClasses:
    def test_equal_records_hash_equal(self, name):
        positional, keyword, _, _ = CASES[name]
        assert hash(positional) == hash(keyword)
        assert len({positional, keyword}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = CASES[name][0]
        before = values(record, name)
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert values(record, name) == before


class TestDefaults:
    def test_pf_verdict_timings_default_to_a_fresh_dict(self):
        a = PFVerdict(True, None, True, False)
        b = PFVerdict(True, None, True, False)
        assert a.timings == {} and a.timings is not b.timings

    def test_cert_report_defaults(self):
        a = CertReport("poly", {"n": 1}, "pass")
        b = CertReport("poly", {"n": 1}, "pass")
        assert (a.details, a.witnesses, a.timings) == ({}, [], {})
        assert a.details is not b.details
        assert a.witnesses is not b.witnesses
        assert a.timings is not b.timings
        assert (a.schema, a.version) == (REPORT_SCHEMA, ARTIFACT_VERSION)

    def test_routh_verdict_stage_defaults_to_none(self):
        assert RouthVerdict(True, False).stage is None
        assert RouthVerdict(True, False) == RouthVerdict(True, False, None)

    def test_shape_verdict_fields_default_to_none(self):
        assert values(ShapeVerdict(), "ShapeVerdict") == (None,) * 5
        assert ShapeVerdict(log_concave=False, failure_witness=2) == ShapeVerdict(
            None, False, None, None, 2
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HookMultiset(HookSelector.FULL),
            lambda: ToeplitzSeq(),
            lambda: MinorSpec((0,)),
            lambda: MinorWitness(MinorSpec((0,), (0,))),
            lambda: PFVerdict(True, None, True),
            lambda: DArcaisRecord(1),
            lambda: CertReport("poly", {}),
            lambda: RootInterval(Fraction(0), Fraction(1)),
            lambda: RouthVerdict(True),
            lambda: SturmChain(),
        ],
    )
    def test_required_fields_are_required(self, build):
        with pytest.raises(TypeError):
            build()

    def test_unknown_keywords_are_rejected(self):
        with pytest.raises(TypeError):
            RouthVerdict(True, False, stages=1)
        with pytest.raises(TypeError):
            CertReport("poly", {}, "pass", detail={})


class TestValidation:
    def test_toeplitz_entries_stay_ints_or_become_fractions(self):
        # ints stay ints; with any other entry, every entry is a Fraction.
        # Either way the sequence equals and hashes as its Fraction form
        seq = ToeplitzSeq([1, 2])
        assert seq.entries == (Fraction(1), Fraction(2))
        assert all(type(e) is int for e in seq.entries)
        as_fractions = ToeplitzSeq([Fraction(1), Fraction(2)])
        assert all(type(e) is Fraction for e in as_fractions.entries)
        assert seq == as_fractions and hash(seq) == hash(as_fractions)
        assert all(type(e) is int for e in seq.ints + as_fractions.ints)
        mixed = ToeplitzSeq([1, Fraction(1, 2), 2.5])
        assert mixed.entries == (Fraction(1), Fraction(1, 2), Fraction(5, 2))
        assert all(type(e) is Fraction for e in mixed.entries)

    def test_toeplitz_needs_an_entry(self):
        with pytest.raises(ValueError, match="^a Toeplitz sequence needs at least one entry$"):
            ToeplitzSeq(())

    def test_toeplitz_entries_are_nonnegative(self):
        with pytest.raises(ValueError) as info:
            ToeplitzSeq((1, Fraction(-1, 2)))
        assert str(info.value) == (
            "entry 1 is negative (-1/2); Polya frequency sequences are "
            "nonnegative by definition"
        )

    def test_minor_indices_become_ints(self):
        spec = MinorSpec([0, True], (Fraction(1), 2))
        assert spec.rows == (0, 1) and spec.cols == (1, 2)
        assert all(type(i) is int for i in spec.rows + spec.cols)
        assert spec.order == 2

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            ((0, 1), (0,), "minor must be square: row and column counts differ"),
            ((), (), "minor must have at least one row"),
            ((-1, 0), (0, 1), "row indices must be nonnegative"),
            ((0, 1), (-1, 0), "col indices must be nonnegative"),
            ((1, 1), (0, 1), "row indices must be strictly increasing"),
            ((0, 1), (2, 1), "col indices must be strictly increasing"),
        ],
    )
    def test_minor_spec_errors(self, rows, cols, message):
        with pytest.raises(ValueError) as info:
            MinorSpec(rows, cols)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n, coeffs, message",
        [
            (0, (), "records are defined for n >= 1"),
            (2, (1,), "record for n=2 needs 2 coefficients, got 1"),
            (2, (3, 2), "leading normalized coefficient must be 1"),
            (3, (2, 0, 1), "normalized coefficients must be positive"),
        ],
    )
    def test_record_errors(self, n, coeffs, message):
        with pytest.raises(ValueError) as info:
            DArcaisRecord(n, coeffs)
        assert str(info.value) == message


class TestComparedFields:
    def test_pf_verdict_ignores_timings(self):
        a = PFVerdict(False, None, False, True, {"minor_search": 1.0})
        b = PFVerdict(False, None, False, True, {"minor_search": 2.0})
        assert a == b and hash(a) == hash(b)
        assert a != PFVerdict(False, None, True, True, {"minor_search": 1.0})

    def test_pf_verdict_with_a_witness_hashes(self):
        witness = MinorWitness(MinorSpec((0, 1), (1, 2)), Fraction(-3))
        a = PFVerdict(False, witness, False, False)
        b = PFVerdict(False, MinorWitness(MinorSpec((0, 1), (1, 2)), Fraction(-3)),
                      False, False, {"real_rootedness": 0.5})
        assert a == b and hash(a) == hash(b)

    def test_cert_report_is_mutable_and_unhashable(self):
        report = CertReport("poly", {"n": 1}, "pass")
        report.verdict = "fail"
        report.details["x"] = 1
        assert not report.passed
        assert report == CertReport("poly", {"n": 1}, "fail", details={"x": 1})
        with pytest.raises(TypeError):
            hash(report)

    def test_cert_report_compares_every_field(self):
        base = CertReport("poly", {"n": 1}, "pass")
        assert base != CertReport("poly", {"n": 1}, "pass", timings={"a": 1.0})
        assert base != CertReport("poly", {"n": 1}, "pass", schema="other")
