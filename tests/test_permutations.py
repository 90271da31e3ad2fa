import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_parity.core import QutritState
from qutrit_parity.permutations import (
    NAMED_MAPS,
    CauchyParseError,
    Parity,
    PermutationMap,
    UnclassifiableStateError,
    classify_final_state,
    compose,
    fourier,
    name_of,
    parity_by_counting,
    parse_cauchy,
    resolve,
    run_parity_algorithm,
    unitary_of,
)

W = np.exp(2j * np.pi / 3)

#: U1..U6 as printed, row by row: the reference the derived matrices must equal
PRINTED_UNITARIES = {
    "f1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "f2": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    "f3": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    "f4": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    "f5": [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    "f6": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
}


class TestParseCauchy:
    def test_identity(self):
        assert parse_cauchy("(1 0 -1 / 1 0 -1)").images == NAMED_MAPS["f1"].images

    def test_f2(self):
        assert parse_cauchy("(1 0 -1 / 0 -1 1)").images == NAMED_MAPS["f2"].images

    def test_repeated_label_rejected(self):
        with pytest.raises(CauchyParseError, match="repeated"):
            parse_cauchy("(1 0 -1 / 1 1 0)")

    def test_unknown_token_rejected_with_position(self):
        with pytest.raises(CauchyParseError) as exc:
            parse_cauchy("(1 0 -1 / 1 x 0)")
        assert exc.value.position == len("(1 0 -1 / 1 ")

    def test_wrong_row_length(self):
        with pytest.raises(CauchyParseError, match="expected 3"):
            parse_cauchy("(1 0 / 0 1)")

    def test_unknown_label(self):
        with pytest.raises(CauchyParseError, match="unknown label"):
            parse_cauchy("(1 0 -1 / 1 0 2)")

    def test_shuffled_top_row(self):
        # columns pair top with bottom regardless of top order
        assert parse_cauchy("(0 1 -1 / 1 0 -1)").images == NAMED_MAPS["f4"].images

    def test_resolve_accepts_names_and_text(self):
        assert resolve("f5") is NAMED_MAPS["f5"]
        assert resolve("(1 0 -1 / 0 -1 1)").images == NAMED_MAPS["f2"].images

    @pytest.mark.parametrize("text", ["  1 0 -1 / 1 x 0", " ( 1 0 -1 / 1 x 0) "])
    def test_position_counts_leading_whitespace(self, text):
        with pytest.raises(CauchyParseError) as exc:
            parse_cauchy(text)
        assert text[exc.value.position] == "x"


#: Cauchy-like text: labels, near-labels and separators, mixed with any text
CAUCHY_TEXT = st.one_of(
    st.lists(st.sampled_from(["1", "0", "-1", "+1", "2", "-0", "x", "/", "(", ")", " ",
                              "\t", "\n", "1/", "/0", "\u3000", "\u0661"]),
             max_size=14).map("".join),
    st.text(max_size=30))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=CAUCHY_TEXT)
@example(text="")
def test_fuzzed_cauchy_text_parses_or_reports_a_position(text):
    """Any text parses to a named map or raises CauchyParseError at a position
    inside it; an error about a token points at that token's first character."""
    try:
        p = parse_cauchy(text)
    except CauchyParseError as exc:
        pos, message = exc.position, str(exc)
        assert 0 <= pos <= len(text), (text, message)
        if not message.startswith(("unbalanced", "expected two rows", "top row has 0",
                                   "bottom row has 0")):
            assert pos < len(text) and not text[pos].isspace(), (text, message)
            assert pos == 0 or text[pos - 1].isspace() or text[pos - 1] in "(/", (text, message)
    else:
        assert p is NAMED_MAPS[name_of(p)]


class TestParity:
    def test_identity_even(self):
        assert parity_by_counting(NAMED_MAPS["f1"]) is Parity.EVEN

    def test_f4_odd(self):
        assert parity_by_counting(NAMED_MAPS["f4"]) is Parity.ODD

    @pytest.mark.parametrize("name,expected", [
        ("f1", Parity.EVEN), ("f2", Parity.EVEN), ("f3", Parity.EVEN),
        ("f4", Parity.ODD), ("f5", Parity.ODD), ("f6", Parity.ODD),
    ])
    def test_all_six(self, name, expected):
        assert parity_by_counting(NAMED_MAPS[name]) is expected


class TestUnitaryOf:
    def test_f1_identity(self):
        assert np.array_equal(unitary_of(NAMED_MAPS["f1"]).entries, np.eye(3))

    def test_f4_rows(self):
        expected = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert np.array_equal(unitary_of(NAMED_MAPS["f4"]).entries, expected)

    @pytest.mark.parametrize("name", PRINTED_UNITARIES)
    def test_derived_from_images_equals_printed(self, name):
        assert np.array_equal(unitary_of(NAMED_MAPS[name]).entries,
                              np.array(PRINTED_UNITARIES[name]))

    def test_all_are_permutation_matrices(self):
        for p in NAMED_MAPS.values():
            u = unitary_of(p).entries.real
            assert np.array_equal(np.sort(u, axis=0)[-1], np.ones(3))
            assert np.allclose(u.sum(axis=0), 1) and np.allclose(u.sum(axis=1), 1)
            assert np.allclose(u @ u.T, np.eye(3))


class TestFourier:
    def test_d3_matches_printed_pattern(self):
        expected = np.array([
            [1, 1, 1],
            [1, W, W.conjugate()],
            [1, W.conjugate(), W],
        ]) / np.sqrt(3)
        assert np.allclose(fourier(3), expected, atol=1e-15)

    def test_d2_is_hadamard(self):
        assert np.allclose(fourier(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_d3_on_minus1(self):
        col = fourier(3) @ np.array([0, 0, 1])
        assert np.allclose(col, np.array([1, W.conjugate(), W]) / np.sqrt(3))

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            fourier(1)

    def test_unitary_for_several_d(self):
        for d in (2, 3, 4, 5):
            f = fourier(d)
            assert np.max(np.abs(f @ f.conj().T - np.eye(d))) < 1e-12


class TestRunParityAlgorithm:
    def test_f1_final_is_minus1(self):
        tr = run_parity_algorithm(NAMED_MAPS["f1"])
        assert tr.verdict is Parity.EVEN
        assert abs(tr.final.overlap(QutritState.ket(-1))) ** 2 == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("name,phase", [
        ("f4", -2 * np.pi / 3), ("f5", 0.0), ("f6", 2 * np.pi / 3),
    ])
    def test_odd_branch_phases(self, name, phase):
        tr = run_parity_algorithm(NAMED_MAPS[name])
        assert tr.verdict is Parity.ODD
        assert tr.global_phase == pytest.approx(phase, abs=1e-9)

    def test_f2_post_oracle_state(self):
        # U2 column picked from F|-1>: (w*, w, 1)/sqrt(3), then final on |-1>
        tr = run_parity_algorithm(NAMED_MAPS["f2"])
        expected = np.array([W.conjugate(), W, 1]) / np.sqrt(3)
        assert np.allclose(tr.post_oracle.amplitudes, expected, atol=1e-12)
        assert abs(tr.final.overlap(QutritState.ket(-1))) ** 2 == pytest.approx(1, abs=1e-12)

    def test_verdicts_match_counting_for_all_six(self):
        for p in NAMED_MAPS.values():
            tr = run_parity_algorithm(p)
            assert tr.verdict is parity_by_counting(p)
            ref = QutritState.ket(-1 if tr.verdict is Parity.EVEN else 0)
            assert abs(tr.final.overlap(ref)) ** 2 == pytest.approx(1, abs=1e-12)

    def test_oracle_called_exactly_once(self):
        for p in NAMED_MAPS.values():
            assert run_parity_algorithm(p).oracle_calls == 1

    def test_trace_record_serializable(self):
        rec = run_parity_algorithm(NAMED_MAPS["f6"]).to_record()
        assert rec["verdict"] == "odd"
        assert len(rec["final"]) == 3


class TestClassifyFinalState:
    def test_minus1_even(self):
        assert classify_final_state(QutritState.ket(-1)) is Parity.EVEN

    def test_phased_zero_odd(self):
        s = QutritState(W * QutritState.ket(0).amplitudes)
        assert classify_final_state(s) is Parity.ODD

    def test_equal_weights_unclassifiable(self):
        s = QutritState(np.array([0, 1, 1]) / np.sqrt(2))
        with pytest.raises(UnclassifiableStateError) as exc:
            classify_final_state(s)
        assert exc.value.p_even == pytest.approx(0.5)
        assert exc.value.p_odd == pytest.approx(0.5)


class TestCompose:
    def test_swap_involution(self):
        assert compose(NAMED_MAPS["f4"], NAMED_MAPS["f4"]) is NAMED_MAPS["f1"]

    def test_swap_products_give_three_cycles(self):
        s12, s23 = NAMED_MAPS["f4"], NAMED_MAPS["f5"]
        assert compose(s12, s23) is NAMED_MAPS["f2"]
        assert compose(s23, s12) is NAMED_MAPS["f3"]

    def test_matrix_convention_reversed_product(self):
        # printed U2/U3 are inverse-map matrices, so the product order flips
        for p, q in itertools.product(NAMED_MAPS.values(), repeat=2):
            lhs = unitary_of(compose(p, q)).entries
            rhs = unitary_of(q).entries @ unitary_of(p).entries
            assert np.array_equal(lhs, rhs), (name_of(p), name_of(q))

    def test_parity_xor_on_all_36_pairs(self):
        for p, q in itertools.product(NAMED_MAPS.values(), repeat=2):
            assert parity_by_counting(compose(p, q)) is (
                parity_by_counting(p) ^ parity_by_counting(q))

    def test_associativity_on_all_216_triples(self):
        maps = list(NAMED_MAPS.values())
        for p, q, r in itertools.product(maps, repeat=3):
            assert compose(compose(p, q), r) is compose(p, compose(q, r))

    def test_inverse_gives_identity(self):
        inverse_name = {"f1": "f1", "f2": "f3", "f3": "f2", "f4": "f4", "f5": "f5", "f6": "f6"}
        for name, p in NAMED_MAPS.items():
            assert p.inverse() is NAMED_MAPS[inverse_name[name]]
            assert compose(p, p.inverse()) is NAMED_MAPS["f1"]
            assert compose(p.inverse(), p) is NAMED_MAPS["f1"]


class TestPermutationMap:
    def test_equal_images_make_equal_maps(self):
        p = PermutationMap((0, 1, -1))
        assert p == NAMED_MAPS["f4"]
        assert hash(p) == hash(NAMED_MAPS["f4"])
        assert name_of(p) == "f4"

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            PermutationMap((1, 1, 0))

    def test_cauchy_roundtrip(self):
        for p in NAMED_MAPS.values():
            assert parse_cauchy(p.cauchy()).images == p.images
