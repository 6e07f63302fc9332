import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kschannel import (Codebook, DecodeError, code_lengths, elias_delta_decode,
                       elias_delta_encode)
from kschannel.coding import whole_indices


class TestEncode:
    @pytest.mark.parametrize("i,word", [
        (1, "1"),
        (2, "0100"),
        (3, "0101"),
        (15, "00100111"),
        (16, "001010000"),
    ])
    def test_known_codewords(self, i, word):
        assert elias_delta_encode(i) == word

    def test_rejects_nonpositive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                elias_delta_encode(bad)

    # a batch's accepted_index[t] is an np.int64
    @pytest.mark.parametrize("i", [np.int64(5), np.uint64(5), np.int32(5), 5.0, np.float64(5.0)])
    def test_numpy_integers_encode_like_the_int(self, i):
        assert elias_delta_encode(i) == elias_delta_encode(5) == "01101"

    @pytest.mark.parametrize("bad", [True, False, np.True_, 1.5, float("nan"), float("inf"),
                                     "5", None])
    def test_rejects_booleans_and_non_integral_values(self, bad):
        with pytest.raises(ValueError, match="whole number"):
            elias_delta_encode(bad)


class TestDecode:
    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_roundtrip(self, i):
        assert elias_delta_decode(elias_delta_encode(i)) == i

    @pytest.mark.parametrize("bits", ["", "0", "01", "010", "00100", "0100" + "1", "10"])
    def test_malformed_raises(self, bits):
        with pytest.raises(DecodeError):
            elias_delta_decode(bits)

    # int(..., 2) would read each of these as a number
    @pytest.mark.parametrize("bits", ["0 1", "0\t1", "001_00", "\u0661", "+1", " 1", "1\n",
                                      "0100 ", "-1", "0b1"])
    def test_non_binary_characters_raise(self, bits):
        with pytest.raises(DecodeError):
            elias_delta_decode(bits)

    # a list of characters passed the character check and died in int(..., 2) with a
    # TypeError; bytes, None and numbers raised unrelated TypeErrors
    @pytest.mark.parametrize("bits", [["1"], ["0", "1", "0", "0"], ("1",), b"1",
                                      bytearray(b"0100"), None, 1, 4.0, np.array(["1"])])
    def test_input_that_is_not_a_str_raises(self, bits):
        with pytest.raises(DecodeError, match="a codeword is a str of '0'/'1' characters"):
            elias_delta_decode(bits)

    def test_str_subclasses_decode(self):
        assert elias_delta_decode(np.str_("0100")) == 2

    def test_indices_past_the_rule_do_not_decode(self):
        # encode refuses 2**63 and up, so decode does too: every decoded index re-encodes
        top = 2**63 - 1
        assert elias_delta_decode(elias_delta_encode(top)) == top
        for i in (2**63, 2**63 + 5, 2**100):
            n = i.bit_length() - 1
            bits = "0" * ((n + 1).bit_length() - 1) + format(n + 1, "b") + format(i, "b")[1:]
            with pytest.raises(DecodeError, match="below 2"):
                elias_delta_decode(bits)

    @settings(max_examples=1000)
    @given(st.one_of(st.text(), st.text(alphabet="01"), st.text(alphabet="01 _+\t\u0661")))
    def test_any_text_decodes_to_its_codeword_or_raises(self, text):
        try:
            i = elias_delta_decode(text)
        except DecodeError:
            return
        assert elias_delta_encode(i) == text


def test_prefix_free_kraft_sum():
    assert np.exp2(-code_lengths(np.arange(1, 2**16 + 1))).sum() <= 1.0


def test_vectorized_lengths_match_codewords():
    idx = np.arange(1, 4097)
    lengths = code_lengths(idx)
    assert np.array_equal(lengths, [len(elias_delta_encode(int(i))) for i in idx])
    big = np.array([10**6, 10**9, 2**40 + 17])
    assert np.array_equal(code_lengths(big), [len(elias_delta_encode(int(i))) for i in big])


def test_lengths_rejects_nonpositive():
    with pytest.raises(ValueError):
        code_lengths([0])


@pytest.mark.parametrize("bad", [[1.5], [True], np.array([True, False]), np.True_, [0.5],
                                 [float("nan")], [float("inf")], [2.0**63], [3, 2**70]])
def test_lengths_reject_booleans_and_non_integral_values(bad):
    # [1.5] gave [1] and [True] gave [1], where elias_delta_encode rejects 1.5 and True
    with pytest.raises(ValueError, match="whole numbers"):
        code_lengths(bad)


def test_lengths_take_whole_floats_as_their_int():
    assert np.array_equal(code_lengths([1.0, 2.0, 2.0**40 + 17]), code_lengths([1, 2, 2**40 + 17]))


@pytest.mark.parametrize("bad", [[1, True, 4], (3, np.True_), [[2, 3], [True, 5]]],
                         ids=["list", "tuple", "nested"])
def test_lengths_reject_booleans_among_integers(bad):
    # numpy turns [1, True, 4] into int64, and the lengths came out [1, 1, 5]
    with pytest.raises(ValueError, match="not booleans"):
        code_lengths(bad)


@pytest.mark.parametrize("bad", [0, -3, 2**63, 2**64, True, np.True_, 1.5, float("nan"), "5",
                                 None])
def test_one_index_rule_for_codes_and_codebook(bad):
    # encode, code_lengths and the codebook read the index rule from one helper
    rule = r"whole numbers in \[1, 2\*\*63\), not booleans"
    codebook = Codebook(seed=5)
    for check in (elias_delta_encode, codebook.entry, lambda i: code_lengths([1, i]),
                  lambda i: codebook.entries([1, i])):
        with pytest.raises(ValueError, match=rule):
            check(bad)
    assert whole_indices(np.float64(7.0)) == 7 and type(whole_indices(np.int64(7))) is int


def test_lengths_are_exact_past_2_to_the_53():
    # the float image of 2**54 - 1 is 2**54, and frexp gave 65 bits for its 64
    cases = [2**63 - 1] + [2**k + d for k in range(63) for d in (-1, 0, 1) if 2**k + d >= 1]
    got = code_lengths(np.array(cases, dtype=np.int64))
    assert got.tolist() == [len(elias_delta_encode(i)) for i in cases]
    assert np.array_equal(code_lengths(np.array(cases, dtype=np.uint64)), got)
    assert code_lengths([2**54 - 1, 2**62 - 1, 2**63 - 1]).tolist() == [64, 72, 73]
