import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensilab import (
    ArityError,
    BooleanFunction,
    CapExceeded,
    CertificateCollection,
    PartialAssignment,
    TruthTable,
    maf,
    point_bits,
    point_from_bits,
)
from sensilab.core import axis_view


class TestEncoding:
    def test_first_variable_is_lsb(self):
        assert point_from_bits([1, 0, 0]) == 1
        assert point_from_bits([0, 0, 1]) == 4
        assert point_bits(5, 3) == (1, 0, 1)

    def test_round_trip(self):
        for x in range(32):
            assert point_from_bits(point_bits(x, 5)) == x

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            point_from_bits([0, 2])
        with pytest.raises(ArityError):
            point_bits(8, 3)


class TestTruthTable:
    def test_validates_shape_and_entries(self):
        with pytest.raises(ArityError):
            TruthTable(2, np.zeros(3, dtype=np.uint8))
        with pytest.raises(ValueError):
            TruthTable(1, np.array([0, 2], dtype=np.uint8))
        with pytest.raises(ArityError):
            TruthTable(0, np.array([1], dtype=np.uint8))

    def test_indexing(self):
        t = TruthTable(2, np.array([0, 1, 1, 0], dtype=np.uint8))
        assert t[1] == 1 and t[3] == 0
        assert t.ones_count() == 2
        with pytest.raises(ArityError):
            t[4]

    def test_hex_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8):
            t = TruthTable(n, rng.integers(0, 2, 1 << n, dtype=np.uint8))
            back = TruthTable.from_hex(n, t.to_hex())
            assert (back.values == t.values).all()

    def test_hex_width(self):
        # one digit per 4 entries, minimum one digit
        assert len(TruthTable(1, np.array([1, 0], dtype=np.uint8)).to_hex()) == 1
        assert len(TruthTable(3, np.zeros(8, dtype=np.uint8)).to_hex()) == 2
        assert len(TruthTable(5, np.zeros(32, dtype=np.uint8)).to_hex()) == 8

    def test_and2_hex_pin(self):
        # single one at input 3 -> integer 8 -> hex digit "8"
        t = TruthTable(2, np.array([0, 0, 0, 1], dtype=np.uint8))
        assert t.to_hex() == "8"
        assert t.dumps() == "n=2\n8\n"

    def test_file_round_trip(self, tmp_path):
        t = TruthTable(4, np.arange(16, dtype=np.uint8) % 2)
        path = tmp_path / "t.tt"
        t.save(path)
        back = TruthTable.load(path)
        assert back.arity == 4 and (back.values == t.values).all()

    def test_strict_parsing(self):
        with pytest.raises(ValueError):
            TruthTable.loads("n=2\nF0\n")  # uppercase
        with pytest.raises(ValueError):
            TruthTable.loads("n=2\n123\n")  # wrong width
        with pytest.raises(ValueError):
            TruthTable.loads("just one line")
        with pytest.raises(ValueError):
            TruthTable.loads("n=x\nff\n")


class TestBooleanFunction:
    def test_call_and_range(self, and2):
        assert and2(3) == 1 and and2(2) == 0
        with pytest.raises(ArityError):
            and2(4)

    def test_values_batch_matches_point(self):
        fn = BooleanFunction(4, lambda x: (x.bit_count() >> 1) & 1)
        xs = np.arange(16, dtype=np.int64)
        assert (fn.values(xs) == [fn(int(x)) for x in xs]).all()

    @pytest.mark.parametrize("x", [-1, 16])
    def test_values_refuses_inputs_out_of_range(self, x):
        # a negative input would index the table from its end
        fn = BooleanFunction(4, lambda x: x & 1)
        for f in (fn, BooleanFunction.from_table(fn.table())):
            with pytest.raises(ArityError):
                f.values(np.array([0, x]))

    def test_table_cap(self):
        fn = BooleanFunction(10, lambda x: x & 1)
        with pytest.raises(CapExceeded):
            fn.table(cap=9)
        assert fn.table(cap=10).arity == 10
        # no table is indexed past int64, whatever the cap
        with pytest.raises(CapExceeded, match="cap 63"):
            BooleanFunction(64, lambda x: x & 1).table(cap=64)

    def test_evaluator_must_return_bits(self):
        fn = BooleanFunction(1, lambda x: 2)
        with pytest.raises(ValueError):
            fn(0)

    def test_restrict_agrees_with_embedding(self):
        rng = np.random.default_rng(11)
        vals = rng.integers(0, 2, 64, dtype=np.uint8)
        fn = BooleanFunction.from_table(TruthTable(6, vals))
        p = PartialAssignment.from_string("1**0*1")
        sub = fn.restrict(p)
        assert sub.arity == 3
        free = p.free_positions()
        want = []
        for y in range(8):
            x = p.value
            for j, pos in enumerate(free):
                x |= ((y >> j) & 1) << pos
            want.append(fn(x))
        assert [sub(y) for y in range(8)] == want
        # values(xs) evaluates pointwise before the table exists, reads it after
        assert sub.values(np.arange(8)).tolist() == want
        assert sub.table().values.tolist() == want
        assert sub.values(np.arange(8)).tolist() == want

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_maf_with_zero_data_is_the_strict_weight_threshold(self, k):
        # verify maf's threshold_deg claim reads this restriction's degree
        fn = maf(k)
        data = ((1 << (fn.arity - k)) - 1) << k
        thr = fn.restrict(PartialAssignment(fn.arity, data, 0))
        assert thr.arity == k
        want = [int(a.bit_count() > k // 2) for a in range(1 << k)]
        assert thr.table().values.tolist() == want

    def test_batch_evaluator_argument_is_refused(self):
        # meta, name and table_fn are keyword-only: a third positional
        # argument, once a batch evaluator, cannot bind to meta
        with pytest.raises(TypeError):
            BooleanFunction(2, lambda x: x & 1, lambda xs: xs & 1)

    def test_restrict_requires_free_variable(self, and2):
        with pytest.raises(ArityError):
            and2.restrict(PartialAssignment.from_string("10"))

    def test_negate(self, and2):
        neg = and2.negate()
        assert [neg(x) for x in range(4)] == [1, 1, 1, 0]

    def test_nondegenerate(self, and2):
        assert and2.is_nondegenerate()
        ignores_x2 = BooleanFunction(2, lambda x: x & 1)
        assert not ignores_x2.is_nondegenerate()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nondegenerate_on_every_variable(self, n):
        # the low variables' passes read a transposed view (axis_view)
        xs = np.arange(1 << n)
        parity = TruthTable(n, (np.bitwise_count(xs) & 1).astype(np.uint8))
        assert BooleanFunction.from_table(parity).is_nondegenerate()
        rng = np.random.default_rng([11, n])
        for i in range(n):
            values = rng.integers(0, 2, 1 << n, dtype=np.uint8)[xs & ~(1 << i)]
            ignores_i = BooleanFunction.from_table(TruthTable(n, values))
            assert not ignores_i.is_nondegenerate()


class TestAxisView:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    @pytest.mark.parametrize("radix, n", [(2, 7), (3, 5)])
    def test_view_of_the_reshape(self, dtype, radix, n):
        a = np.arange(radix**n).astype(dtype)
        transposed = set()
        for i in range(n):
            v = axis_view(a, radix, i)
            ref = a.reshape(-1, radix, radix**i)
            assert np.shares_memory(v, a)
            flipped = v.strides != ref.strides
            transposed.add(flipped)
            assert np.array_equal(v.T if flipped else v, ref)
            for k in range(radix):
                # v[:, k] holds exactly the entries whose digit i is k
                assert (v[:, k] // radix**i % radix == k).all()
                assert v[:, k].size == radix ** (n - 1)
        # both sides of the switch: short run pairs and long ones
        assert transposed == {True, False}


class TestPartialAssignment:
    def test_string_round_trip(self):
        p = PartialAssignment.from_string("01**1")
        assert p.to_string() == "01**1"
        assert p.codim == 3 and p.dim == 2
        assert p.fixed_positions() == (0, 1, 4)

    def test_contains(self):
        p = PartialAssignment.from_string("1*0")
        assert p.contains(0b001) and p.contains(0b011)
        assert not p.contains(0b000) and not p.contains(0b101)
        xs = np.arange(8, dtype=np.int64)
        assert list(np.flatnonzero(p.contains_batch(xs))) == [1, 3]

    def test_points_enumerates_subcube(self):
        p = PartialAssignment.from_string("*1*")
        assert list(p.points()) == [2, 3, 6, 7]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))))
    def test_to_string_is_the_per_position_loop(self, case):
        n, mask, value = case
        p = PartialAssignment(n, mask, value & mask)
        want = "".join("*" if not (mask >> j) & 1 else "1" if (p.value >> j) & 1 else "0"
                       for j in range(n))
        assert p.to_string() == want
        assert PartialAssignment.from_string(want) == p

    def test_validation(self):
        with pytest.raises(ValueError):
            PartialAssignment(2, mask=1, value=2)
        with pytest.raises(ArityError):
            PartialAssignment(2, mask=4, value=0)
        with pytest.raises(ValueError):
            PartialAssignment.from_entries([0, "x"])


class TestCertificateCollection:
    def test_valid_partition(self, or2, or2_certs):
        assert or2_certs.validation_error(or2) is None
        assert or2_certs.max_codim() == 2

    def test_catches_impure_member(self, and2):
        bad = CertificateCollection(1, (PartialAssignment.from_string("1*"),))
        err = bad.validation_error(and2)
        assert err is not None and "covers input" in err

    def test_catches_uncovered_input(self, or2):
        partial = CertificateCollection(1, (PartialAssignment.from_string("1*"),))
        err = partial.validation_error(or2)
        assert err is not None and "no certificate" in err

    def test_catches_overlap_when_unambiguous(self, or2):
        overlapping = CertificateCollection(
            1,
            (
                PartialAssignment.from_string("1*"),
                PartialAssignment.from_string("*1"),
                PartialAssignment.from_string("01"),
            ),
            unambiguous=True,
        )
        err = overlapping.validation_error(or2)
        assert err is not None and "expected 1" in err
        # the same set is fine as a plain (ambiguous) cover
        relaxed = CertificateCollection(1, overlapping.certificates, unambiguous=False)
        assert relaxed.validation_error(or2) is None

    def test_mixed_arities_rejected(self):
        with pytest.raises(ArityError):
            CertificateCollection(
                1,
                (PartialAssignment.from_string("1*"), PartialAssignment.from_string("1")),
            )
