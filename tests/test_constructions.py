import hashlib
import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sensilab import (
    ArityError,
    BooleanFunction,
    CertificateCollection,
    HammingCode,
    PartialAssignment,
    TruthTable,
    address_fn,
    chaf,
    data_compose,
    desensitize,
    from_descriptor,
    haf,
    maf,
    s0,
    s1,
    to_descriptor,
    tradeoff,
    tradeoff_profile,
)
from sensilab.constructions import FAMILIES, _colex_rank


class TestHaf:
    def test_haf2_pinned_values(self):
        f = haf(2)
        assert f.arity == 5
        t = f.table()
        assert t.ones_count() == 4
        assert t.to_hex() == "81800100"
        # pinned points, written x1 first
        assert f(0b01000) == 1  # (0,0,0,1,0)
        assert f(0b10111) == 1  # (1,1,1,0,1)
        assert f(0b11100) == 0  # (0,0,1,1,1)

    def test_meta_predictions(self):
        f = haf(2)
        assert f.meta.family == "haf" and f.meta.params == {"r": 2}
        assert f.meta.predicted_arity == 5
        assert f.meta.predicted_s0 == 1
        assert f.meta.predicted_s1 == 4
        assert f.meta.predicted_lambda_sq == 4
        assert f.meta.codeword_len == 3 and f.meta.data_len == 2

    def test_negated_meta(self):
        meta = haf(2).meta
        neg = meta.negated()
        assert (neg.family, neg.params) == (None, None)
        assert (neg.predicted_s0, neg.predicted_s1) == (4, 1)
        assert (neg.predicted_arity, neg.predicted_lambda_sq) == (5, 4)
        assert (neg.codeword_len, neg.data_len, neg.certificates_validated) == (3, 2, True)
        assert neg.certificates == CertificateCollection(
            0, meta.certificates.certificates, unambiguous=True
        )
        assert haf(2).negate().meta == neg
        bare = replace(meta, certificates=None, certificates_validated=False)
        assert bare.negated().certificates is None
        assert not bare.negated().certificates_validated

    def test_certificates_valid_and_unambiguous(self):
        f = haf(2)
        certs = f.meta.certificates
        assert certs is not None and len(certs) == 2
        assert certs.unambiguous
        assert certs.validation_error(f) is None
        # each member fixes the codeword section and one data bit
        assert {c.codim for c in certs.certificates} == {4}

    def test_small_instance_keeps_eager_certificates(self):
        f = haf(3)
        assert f.arity == 23
        assert len(f.meta.certificates) == 16
        assert f.meta.predicted_s1 == 8

    def test_large_instance_has_no_eager_certificates(self):
        f = haf(5)
        assert f.meta.certificates is None
        assert f.meta.predicted_s1 == 32

    def test_haf5_evaluator_spot_checks(self):
        f = haf(5)
        assert f.arity == 31 + (1 << 26)
        code = HammingCode(5)
        m0 = 54321
        section = code.encode_index(m0)
        x = section | (1 << (31 + m0))
        assert f(x) == 1
        assert f(section) == 0
        assert f(x ^ (1 << (31 + m0))) == 0
        assert f(x ^ 1) == 0  # corrupted codeword section

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            haf(1)
        with pytest.raises(ValueError):
            haf(6)  # arity budget


class TestChaf:
    def test_profile_2_2(self):
        f = chaf([2, 2])
        assert f.arity == 10
        assert s0(f).value == 1
        assert s1(f).value == 7
        assert f.meta.predicted_s1 == 7

    def test_batch_matches_point_exhaustively(self):
        f = chaf([2, 2])
        xs = np.arange(1 << 10, dtype=np.int64)
        lookup = f.table().values[xs]
        assert all(lookup[x] == f._point(int(x)) for x in xs)

    def test_certificates_partition_the_ones(self):
        f = chaf([2, 2])
        certs = f.meta.certificates
        assert len(certs) == 4
        assert certs.validation_error(f) is None

    def test_mixed_radix_order_is_most_significant_first(self):
        # with codes of sizes 2 and 2, message (1, 0) selects data bit 2
        f = chaf([2, 2])
        c = HammingCode(2)
        section = c.encode_index(1) | (c.encode_index(0) << 3)
        x = section | (1 << (6 + 2))
        assert f(x) == 1

    def test_invalid_section_gives_zero(self):
        f = chaf([2])
        # 0b001 is not a codeword of the length-3 code
        assert all(f(0b001 | (d << 3)) == 0 for d in range(4))

    def test_needs_at_least_one_code(self):
        with pytest.raises(ValueError):
            chaf([])

    # the code orders whose sections make up each function's low bits
    SECTION_CASES = {
        "haf2": (lambda: haf(2), [2]),
        "haf3": (lambda: haf(3), [3]),
        "chaf22": (lambda: chaf([2, 2]), [2, 2]),
        "chaf222": (lambda: chaf([2, 2, 2]), [2, 2, 2]),
        "tradeoff2_2": (lambda: tradeoff([2], [2]), [2]),
    }

    @pytest.mark.parametrize("case", list(SECTION_CASES))
    def test_section_lookup_matches_point(self, case):
        factory, rs = self.SECTION_CASES[case]
        f = factory()
        valid, kbits = valid_sections(rs)
        kmask = (1 << kbits) - 1
        rng = np.random.default_rng(11)
        xs = rng.integers(0, 1 << f.arity, size=4000, dtype=np.int64)
        # half the inputs get a valid section; random sections are mostly invalid
        xs[::2] = (xs[::2] & ~kmask) | rng.choice(valid, size=2000)
        assert not np.isin(xs[1::2] & kmask, valid).all()
        got = f.table().values[xs]
        assert got.tolist() == [f._point(int(x)) for x in xs]
        assert 0 < got.sum() < len(xs)

    @pytest.mark.parametrize("r", [2, 3])
    def test_haf_is_chaf_over_one_code(self, r):
        f, g = haf(r), chaf([r])
        assert (f.name, f.arity) == (f"haf({r})", g.arity)
        assert f.meta == replace(g.meta, family="haf", params={"r": r})
        assert f.meta.certificates == g.meta.certificates
        assert np.array_equal(f.table().values, g.table().values)

    def test_haf3_table_is_pinned(self):
        values = haf(3).table().values
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "63c63a3b91bd8354f9cc16c93031c4febaabbc91364c0463ad208fca6d573b76"
        )


class TestAddress:
    def test_pinned_point(self):
        f = address_fn(2)
        assert f.arity == 6
        assert f(0b000100) == 1  # address 0, data bit 0 set

    def test_output_is_selected_data_bit(self):
        f = address_fn(2)
        for x in range(1 << 6):
            a = x & 3
            assert f(x) == (x >> (2 + a)) & 1

    def test_certificates(self):
        f = address_fn(2)
        assert f.meta.certificates.validation_error(f) is None

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            address_fn(0)


class TestMaf:
    def test_colex_rank_is_bijective_on_fixed_weight(self):
        k, w = 6, 3
        ranks = sorted(
            _colex_rank(a) for a in range(1 << k) if a.bit_count() == w
        )
        assert ranks == list(range(math.comb(k, w)))

    def test_weight_rule(self):
        f = maf(4)
        assert f.arity == 10
        for x in range(1 << 10):
            wt = (x & 15).bit_count()
            if wt > 2:
                assert f(x) == 1
            elif wt < 2:
                assert f(x) == 0

    def test_monotone(self):
        for k in (2, 3, 4):
            t = maf(k).table().values
            for i in range(maf(k).arity):
                v = t.reshape(-1, 2, 1 << i)
                assert (v[:, 1, :] >= v[:, 0, :]).all()

    def test_pinned_profiles(self):
        profiles = {2: (2, 2), 3: (3, 2), 4: (3, 3)}
        for k, (e0, e1) in profiles.items():
            f = maf(k)
            assert s0(f).value == e0 and s1(f).value == e1

    def test_certificates(self):
        f = maf(3)
        certs = f.meta.certificates
        assert certs.validation_error(f) is None
        assert certs.max_codim() == 4  # address bits plus one data bit

    def test_batch_matches_point(self):
        # the lookup-built table against the point evaluator on every input
        for f in [maf(k) for k in range(2, 6)] + [address_fn(k) for k in range(1, 4)]:
            assert f.table().values.tolist() == [f._point(x) for x in range(1 << f.arity)], f.name

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            maf(1)


class TestDesensitize:
    def test_or2_pinned_memberships(self, or2, or2_certs):
        fp = desensitize(or2, or2_certs)
        assert fp.arity == 6
        assert fp(0b110101) == 1  # blocks (1,0),(1,0),(1,1) all inside (1,*)
        assert fp(0b011001) == 0  # blocks straddle different members
        assert s0(fp).value == 1 and s1(fp).value == 6

    def test_diagonal_agrees_with_base(self, or2, or2_certs):
        fp = desensitize(or2, or2_certs)
        for x in range(4):
            diag = x | (x << 2) | (x << 4)
            assert fp(diag) == or2(x)

    def test_dictator_becomes_and3(self):
        d = BooleanFunction(1, lambda x: x & 1, name="x1")
        certs = CertificateCollection(
            1, (PartialAssignment.from_string("1"),), unambiguous=True
        )
        f3 = desensitize(d, certs)
        assert [f3(x) for x in range(8)] == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_meta(self, or2, or2_certs):
        fp = desensitize(or2, or2_certs)
        assert fp.meta.family == "desensitized"
        assert fp.meta.predicted_s0 == 1
        assert fp.meta.predicted_s1 == 6
        assert fp.meta.certificates_validated

    def test_rejects_invalid_collection(self, and2=None):
        f = BooleanFunction.from_table(
            TruthTable(2, np.array([0, 0, 0, 1], dtype=np.uint8))
        )
        impure = CertificateCollection(
            1, (PartialAssignment.from_string("1*"),), unambiguous=True
        )
        with pytest.raises(ValueError):
            desensitize(f, impure)

    def test_rejects_ambiguous_cover(self, or2):
        overlapping = CertificateCollection(
            1,
            (
                PartialAssignment.from_string("1*"),
                PartialAssignment.from_string("*1"),
                PartialAssignment.from_string("01"),
            ),
            unambiguous=True,
        )
        with pytest.raises(ValueError):
            desensitize(or2, overlapping)

    def test_rejects_zero_certificates(self, or2):
        zero = CertificateCollection(0, (PartialAssignment.from_string("0*"),))
        with pytest.raises(ValueError):
            desensitize(or2, zero)

    def test_batch_matches_point(self, or2, or2_certs):
        # the lookup-built table against the point evaluator on every input
        for fp in [desensitize(or2, or2_certs)] + [own_cover(f) for f in (haf(2), maf(3), address_fn(2))]:
            assert fp.table().values.tolist() == [fp._point(x) for x in range(1 << fp.arity)], fp.name


class TestDataCompose:
    def test_matches_manual_composition(self, or2):
        outer = chaf([2])
        composed = data_compose(outer, or2)
        assert composed.arity == 3 + 2 * 2
        for x in range(1 << 7):
            virt = x & 7
            for j in range(2):
                blk = (x >> (3 + 2 * j)) & 3
                virt |= or2(blk) << (3 + j)
            assert composed(x) == outer(virt)

    def test_batch_matches_point(self, or2):
        composed = data_compose(chaf([2]), or2)
        xs = np.arange(1 << 7, dtype=np.int64)
        assert all(composed.table().values[x] == composed._point(int(x)) for x in xs)

    def test_requires_section_split(self, or2, and2):
        with pytest.raises(ValueError):
            data_compose(or2, and2)


def valid_sections(rs) -> tuple[np.ndarray, int]:
    """Every valid section of the codes of orders rs, first code in the low
    bits, as int64 integers; and the section's width in bits."""
    codes = [HammingCode(r) for r in rs]
    offsets = np.cumsum([0] + [c.codeword_len for c in codes[:-1]])
    valid = np.array([
        sum(int(w) << int(off) for w, off in zip(words, offsets))
        for words in itertools.product(*(c._codeword_ints for c in codes))
    ], dtype=np.int64)
    return valid, sum(c.codeword_len for c in codes)


def point_values(fn: BooleanFunction, xs: np.ndarray) -> np.ndarray:
    """fn at xs by its point evaluator alone."""
    return np.fromiter((fn._point(int(x)) for x in xs), np.uint8, len(xs))


def sampled_inputs(fn: BooleanFunction, as_, bs_, size: int, seed: int = 5) -> np.ndarray:
    """size random inputs of tradeoff(as_, bs_) = fn. Every other one gets a
    valid outer section, and each inner block of those a valid section of
    its own with probability 1/2: random sections are mostly invalid."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 1 << fn.arity, size=size, dtype=np.int64)
    outer, k_out = valid_sections(as_)
    xs[::2] = (xs[::2] & ~((1 << k_out) - 1)) | rng.choice(outer, size=len(xs[::2]))
    if bs_:
        inner, k_in = valid_sections(bs_)
        t = fn.meta.data_len
        n_in = (fn.arity - k_out) // t
        for j in range(t):
            off = k_out + j * n_in
            pick = np.zeros(size, dtype=bool)
            pick[::2] = rng.random(len(xs[::2])) < 0.5
            xs[pick] = (xs[pick] & ~(((1 << k_in) - 1) << off)) | (
                rng.choice(inner, size=int(pick.sum())) << off
            )
    return xs


# sha256 of each chaf and tradeoff table in reach, tradeoff(as, bs), as the
# int64 batch evaluator built it before every table was built by lookup;
# (3;) is haf(3)'s table
TRADEOFF_TABLES = {
    ((2,), ()): "2b6ab6e4809b54d4c6d2be4336e76b8976eef4f2b199df03e4d2f2c6a553ed8d",
    ((2,), (2,)): "be1ae10f6c7e2b26c8c5485a7daedb630569b3e0c914138f31084c54030ade83",
    ((2, 2), ()): "5b5481a33213a327bc8c04b5fa44681b88b1d9611b2d20c94ab0c58be50f1ea2",
    ((2, 2, 2), ()): "db21cc2da35769d3532c9c8adf1e9a027baeb08c071ebce501966e3389e547c6",
    ((3,), ()): "63c63a3b91bd8354f9cc16c93031c4febaabbc91364c0463ad208fca6d573b76",
    ((2,), (2, 2)): "50485c07ccab6a7c746d431bee211f21dc9a43b9365e29da5596c1604b93aaf4",
    ((2, 2), (2,)): "1337291deac8fbe0661b850df73106789cc8969a2a7eee49229fcbc2eb213efe",
}


def check_tradeoff_table(as_, bs_) -> None:
    """tradeoff(as_, bs_)'s lookup-built table equals its pin, and its point
    evaluator on every input up to arity 17, else on 2^16 sampled inputs.
    The point evaluator decodes each section through HammingCode.syndrome
    and message_index; the builder encodes each data position's sections
    through encode_index."""
    fn = tradeoff(as_, bs_)
    values = fn.table().values
    assert values.dtype == np.uint8
    digest = TRADEOFF_TABLES[(tuple(as_), tuple(bs_))]
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest, fn.name
    if fn.arity <= 17:
        xs = np.arange(1 << fn.arity, dtype=np.int64)
    else:
        xs = sampled_inputs(fn, as_, bs_, 1 << 16)
    got = values[xs]
    assert np.array_equal(got, point_values(fn, xs)), fn.name
    assert 0 < got.sum() < len(xs)


# every chaf and tradeoff instance of arity at most 23, as tradeoff(as, bs)
BUILDER_INSTANCES = [
    (as_, bs_)
    for as_ in ([2], [2, 2], [2, 2, 2], [3])
    for bs_ in ([], [2], [2, 2])
    if tradeoff_profile(as_, bs_)["arity"] <= 23
]


class TestTableBuilders:
    """Address functions build their tables by lookup; each chaf and
    tradeoff table equals the batch evaluator's, pinned, and the point
    evaluator's."""

    def test_instances(self):
        assert len(BUILDER_INSTANCES) == 6

    @pytest.mark.parametrize("as_, bs_", BUILDER_INSTANCES)
    def test_tradeoff_and_chaf_tables_match_the_batch_path(self, as_, bs_):
        check_tradeoff_table(as_, bs_)
        if bs_:
            return
        digest = TRADEOFF_TABLES[(tuple(as_), ())]
        same = [chaf(as_).table().values, chaf(as_).negate().table().values ^ 1]
        if len(as_) == 1:
            same.append(haf(as_[0]).table().values)
        for values in same:
            assert hashlib.sha256(values.tobytes()).hexdigest() == digest

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(outer=st.sampled_from([[2], [2, 2]]), n_in=st.integers(1, 3),
           bits=st.integers(0, 255))
    def test_data_compose_of_a_random_inner_table(self, outer, n_in, bits):
        values = np.array([(bits >> x) & 1 for x in range(1 << n_in)], dtype=np.uint8)
        inner = BooleanFunction.from_table(TruthTable(n_in, values))
        fn = data_compose(chaf(outer), inner)
        # every input up to arity 12; above, 2^11 of them, every other one
        # with a valid outer section
        if fn.arity <= 12:
            xs = np.arange(1 << fn.arity, dtype=np.int64)
        else:
            xs = sampled_inputs(fn, outer, [], 1 << 11)
        assert np.array_equal(fn.table().values[xs], point_values(fn, xs)), fn.name
        assert np.array_equal(fn.negate().table().values, 1 - fn.table().values)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(rs=st.sampled_from([[2], [2, 2], [2, 2, 2]]), twice=st.booleans())
    def test_negate(self, rs, twice):
        fn = chaf(rs).negate()
        if twice:
            fn = fn.negate()
        assert np.array_equal(fn.table().values, chaf(rs).table().values ^ (not twice))


def own_cover(base: BooleanFunction) -> BooleanFunction:
    return desensitize(base, base.meta.certificates)


# sha256 of each table as the int64 batch evaluators built it, before these
# families built their tables by lookup; each maker takes (or2, or2_certs)
LOOKUP_TABLES = {
    "maf(4)": (lambda or2: maf(4),
               "e382152fcca88775645acd46f413511aeba370896bfdc598024061b90566b472"),
    "maf(5)": (lambda or2: maf(5),
               "9abe8254c14d21093f27f6c12e9c1513ae24af4d9ba4d4af57102d276567a4dd"),
    "maf(6)": (lambda or2: maf(6),
               "5df9e98c3bfeefe90ebb37c4500e8d1f3add08f858c5e2eeedac95fc5314edec"),
    "address(3)": (lambda or2: address_fn(3),
                   "b5c9924fd181c6eac0b4bc03b8e1f31f9ecc1e0686bc42b9ac49d118eecd8e48"),
    "address(4)": (lambda or2: address_fn(4),
                   "9167461a1fd373cc91d6b51782bfabd59fd78e242e0c863cd54f9fffb4e9bbbc"),
    "desens(or2)": (lambda or2: desensitize(*or2),
                    "f66a604f5990115635322031b750c3c1d4f3afc0d697cab44f0f630f9a15cf26"),
    "desens(haf(2))": (lambda or2: own_cover(haf(2)),
                       "eee4e4982f88b3442ee2396b4443b453ae460de237a04dfaed0c86ec704b2754"),
    "desens(maf(3))": (lambda or2: own_cover(maf(3)),
                       "218a0a3fe91127c979aa167dd44e533e1235ec693f2335afe29bc7a7e6897349"),
    "desens(address(2))": (lambda or2: own_cover(address_fn(2)),
                           "e0795e7af50bc9d2c168fdb503eef9288ce164b5988aaa5cee4f9baaf8355358"),
}


@pytest.mark.parametrize("name", list(LOOKUP_TABLES))
def test_lookup_tables_are_pinned(name, or2, or2_certs):
    make, digest = LOOKUP_TABLES[name]
    fn = make((or2, or2_certs))
    assert fn.name == name
    assert hashlib.sha256(fn.table().values.tobytes()).hexdigest() == digest


# (size, sha256 of the member strings joined by newlines, in order) of each
# address family's certificate list, as the per-family certificate loops
# listed them before one constructor read every family's picks; chaf's
# members go by data position, address's and maf's by address
CERTIFICATE_LISTS = {
    "haf(2)": (lambda: haf(2), 2,
               "f977c01d9bd1d882ab1a0cde2a0298353493fc3462b4371e307e01378b4d7ae1"),
    "haf(3)": (lambda: haf(3), 16,
               "6b3e118cb142fc1d9f9bc85757aa9333ffba11b52d378ce5d46831d0fa4fe57e"),
    "haf(4)": (lambda: haf(4), 2048,
               "dc292fe095c29c03fb90e8eefe33343eb62a2ea8d8bdacf33a03b6184211d0a2"),
    "chaf(2,2)": (lambda: chaf([2, 2]), 4,
                  "76634618c8252e971f80bd5a633211f668cfe183ea56ba11a4e4e4ab8e4c3274"),
    "chaf(2,2,2)": (lambda: chaf([2, 2, 2]), 8,
                    "bb44051db3f61dd4677e8934031d7f40a6a33b10f18145fade7b30a96b189247"),
    "chaf([2]*12)": (lambda: chaf([2] * 12), 4096,
                     "74bb092fed2c42531124c7d10fea21aae67efca86a1408d3edf97f1b9eea496b"),
    "address(1)": (lambda: address_fn(1), 2,
                   "40778441ef4c952cbc5de2f6234f59b6bf58b69bf7c016a0d4711fedd5a60894"),
    "address(2)": (lambda: address_fn(2), 4,
                   "12d3e1b4b3081e6da334f7df32437326f873c6f849cba8a2e522cc010c0acfe7"),
    "address(3)": (lambda: address_fn(3), 8,
                   "345482690f746436756d2d90f92cfbd8c0b2d60e519585af6641fb26f7eb8a0e"),
    "address(4)": (lambda: address_fn(4), 16,
                   "94f200de46ae31958127b3c9629bb75fa2645bc95b2c4b301c0a497afcc9ba3c"),
    "address(12)": (lambda: address_fn(12), 4096,
                    "a4ef14f2e07c259c253b4c09915f4e40127031ab67cc1108d5bf0d1668079394"),
    "maf(2)": (lambda: maf(2), 3,
               "fc2c4ce55e2ac84e4c90a3c5b83b9c5e6d846e9533f961495f45f07b4011b496"),
    "maf(3)": (lambda: maf(3), 7,
               "ff6b21a0286dc2cbccd58d2256e9f907045b7cb8aa7a1783ee76ed3cbe8cf4e2"),
    "maf(4)": (lambda: maf(4), 11,
               "1533a406413ac089197df744e4cef9c81ac1da4543f81a5a2d475644aff7f2f0"),
    "maf(5)": (lambda: maf(5), 26,
               "49e2ab4d2e9cd633fc1302ab147248a408ea45aeb33d56907acd0e15e8c041a7"),
    "maf(6)": (lambda: maf(6), 42,
               "4c89b8cbedbb2d2700bc90f8c5949ad1cfa61ad3622c4ffbb21d88a5feaf6b97"),
    "maf(12)": (lambda: maf(12), 2510,
                "55001acdf593c65c4913bfbf920d01ee1c5844e1ba6b606c7a203b46d5e8ecb9"),
}


@pytest.mark.parametrize("name", list(CERTIFICATE_LISTS))
def test_certificate_lists_are_pinned(name):
    make, size, digest = CERTIFICATE_LISTS[name]
    fn = make()
    certs = fn.meta.certificates
    assert certs.target_value == 1 and certs.unambiguous
    assert len(certs) == size
    text = "\n".join(c.to_string() for c in certs.certificates)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if fn.arity <= 20:
        assert certs.validation_error(fn) is None


# the smallest instance of each family whose list passes MAX_EAGER_CERTIFICATES
@pytest.mark.parametrize("make", [lambda: haf(5), lambda: chaf([2] * 13),
                                  lambda: address_fn(13), lambda: maf(13)],
                         ids=["haf(5)", "chaf([2]*13)", "address(13)", "maf(13)"])
def test_certificate_lists_past_the_eager_limit_are_not_listed(make):
    assert make().meta.certificates is None


# the largest listed instance of each family, all past the table: the
# certificate list (chaf's own codeword listing, the scan of the read map for
# address and maf) against the point evaluator
@pytest.mark.parametrize("make", [lambda: haf(4), lambda: address_fn(12),
                                  lambda: maf(12), lambda: chaf([2] * 12)],
                         ids=["haf(4)", "address(12)", "maf(12)", "chaf([2]*12)"])
def test_listing_agrees_with_the_evaluator_past_the_table(make):
    fn = make()
    K, t = fn.meta.codeword_len, fn.meta.data_len
    data = ((1 << t) - 1) << K
    listed = set()
    for c in fn.meta.certificates.certificates:
        a, bit = c.value & ((1 << K) - 1), c.value & data
        listed.add(a)
        if bit:  # a reads this data bit and no other
            assert bit.bit_count() == 1
            assert (fn(a | bit), fn(a), fn(a | data ^ bit)) == (1, 0, 0)
        else:  # a forces 1
            assert fn(a) == 1
    assert len(listed) == len(fn.meta.certificates)
    # an address not listed gives 0 with every data bit set
    rng = np.random.default_rng(0)
    addresses = range(1 << K) if K <= 16 else map(int, rng.integers(0, 1 << K, 4096))
    unlisted = [a for a in addresses if a not in listed]
    assert len(unlisted) >= (0 if fn.meta.family == "address" else 1000)
    assert all(fn(a | data) == 0 for a in unlisted)


class TestTradeoff:
    def test_profile_closed_forms(self):
        assert tradeoff_profile([2], [2]) == {
            "arity": 13,
            "s0": 4,
            "s1": 4,
            "lambda_sq": 7,
        }
        assert tradeoff_profile([3], [3]) == {
            "arity": 375,
            "s0": 8,
            "s1": 8,
            "lambda_sq": 15,
        }
        assert tradeoff_profile([2, 2], [2]) == {
            "arity": 26,
            "s0": 4,
            "s1": 7,
            "lambda_sq": 10,
        }

    def test_empty_inner_reduces_to_chaf(self):
        f = tradeoff([2], [])
        g = chaf([2])
        assert f.arity == g.arity
        xs = np.arange(1 << f.arity, dtype=np.int64)
        assert (f.values(xs) == g.values(xs)).all()
        assert f.meta.family == "tradeoff"
        assert f.meta.predicted_s0 == 1

    def test_composed_meta(self):
        f = tradeoff([2], [2])
        assert f.arity == 13
        assert f.meta.predicted_s0 == 4
        assert f.meta.predicted_s1 == 4
        assert f.meta.predicted_lambda_sq == 7

    def test_measured_profile_small_instance(self):
        f = tradeoff([2], [2])
        assert s0(f).value == 4
        assert s1(f).value == 4

    def test_profile_is_the_meta_on_every_instance_in_budget(self):
        # outer orders 2..4 in up to 3 codes, inner orders 2..3 in up to 2:
        # 230 of the 273 sequences fit the construction budget
        outers = [list(p) for k in (1, 2, 3) for p in itertools.product((2, 3, 4), repeat=k)]
        inners = [list(p) for k in (0, 1, 2) for p in itertools.product((2, 3), repeat=k)]
        built = 0
        for as_, bs_ in itertools.product(outers, inners):
            try:
                f = tradeoff(as_, bs_)
            except ValueError:
                continue
            built += 1
            meta = f.meta
            assert tradeoff_profile(as_, bs_) == {
                "arity": meta.predicted_arity,
                "s0": meta.predicted_s0,
                "s1": meta.predicted_s1,
                "lambda_sq": meta.predicted_lambda_sq,
            }, (as_, bs_)
            assert meta.predicted_arity == f.arity and f._table is None
            neg = meta.negated()
            assert (neg.predicted_arity, neg.predicted_s0, neg.predicted_s1) == (
                meta.predicted_arity, meta.predicted_s1, meta.predicted_s0
            )
        assert built == 230


class TestDescriptors:
    def test_round_trip_all_families(self, or2, or2_certs):
        fns = [
            haf(2),
            chaf([2, 2]),
            address_fn(2),
            maf(3),
            tradeoff([2], [2]),
            desensitize(or2, or2_certs),
        ]
        assert {to_descriptor(fn)["family"] for fn in fns} == set(FAMILIES)
        for fn in fns:
            back = from_descriptor(to_descriptor(fn))
            assert back.arity == fn.arity
            if fn.arity <= 13:
                xs = np.arange(1 << fn.arity, dtype=np.int64)
                assert (back.values(xs) == fn.values(xs)).all()

    def test_tradeoff_inner_orders_may_be_omitted(self):
        fn = from_descriptor({"family": "tradeoff", "params": {"as": [2]}})
        assert to_descriptor(fn) == {"family": "tradeoff", "params": {"as": [2], "bs": []}}

    def test_desensitized_descriptor_embeds_table_base(self, or2, or2_certs):
        d = to_descriptor(desensitize(or2, or2_certs))
        assert d["family"] == "desensitized"
        assert d["params"]["base"]["family"] == "table"
        assert d["params"]["certificates"] == ["1*", "01"]

    def test_desensitized_descriptor_keeps_construction_base(self):
        base = address_fn(2)
        d = to_descriptor(desensitize(base, base.meta.certificates))
        assert d["params"]["base"] == {"family": "address", "params": {"k": 2}}

    def test_plain_function_has_no_descriptor(self, or2):
        with pytest.raises(ValueError):
            to_descriptor(BooleanFunction(2, lambda x: x & 1))

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            from_descriptor({"family": "haf"})
        with pytest.raises(ValueError):
            from_descriptor({"family": "haf", "params": {"r": "2"}})
        with pytest.raises(ValueError):
            from_descriptor({"family": "nope", "params": {}})
        with pytest.raises(ValueError):
            from_descriptor({"family": "chaf", "params": {"rs": [2, True]}})
        with pytest.raises(ValueError, match="string list 'certificates'"):
            from_descriptor(
                {
                    "family": "desensitized",
                    "params": {"base": {"family": "haf", "params": {"r": 2}},
                               "certificates": [3]},
                }
            )


class TestArityBudget:
    """Orders whose data section alone is over budget are refused by its
    exponent, before any code or 2^e is formed: each call returns at once."""

    def _refused_fast(self, call, match):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=match):
            call()
        assert time.perf_counter() - t0 < 1.0

    def test_haf_names_the_size_by_its_exponent(self):
        self._refused_fast(lambda: haf(12), r"data section of 2\^4083 bits")

    def test_huge_order(self):
        self._refused_fast(lambda: haf(40), "code order 40")

    def test_tradeoff_inner_order(self):
        self._refused_fast(lambda: tradeoff([2], [40]), "code order 40")

    def test_descriptor(self):
        self._refused_fast(
            lambda: from_descriptor({"family": "chaf", "params": {"rs": [2, 40]}}),
            "code order 40",
        )

    def test_address_width(self):
        self._refused_fast(lambda: address_fn(1 << 40), "over the arity budget")
        self._refused_fast(lambda: maf(1 << 40), "over the arity budget")

    def test_profile_stays_within_int64(self):
        assert tradeoff_profile([5], [5])["arity"] == 31 + (1 << 26) * (31 + (1 << 26))
        self._refused_fast(lambda: tradeoff_profile([6], [6]), "over the budget")
        self._refused_fast(lambda: tradeoff_profile([62], [2]), r"2\^4611686018427387841 ")
        self._refused_fast(lambda: tradeoff_profile([2], [99]), "code order 99")
