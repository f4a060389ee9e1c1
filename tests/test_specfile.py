"""The spec-file loader: one message and line per mistake, work bounded by
the file's length, and no exception but SpecError for any text."""

import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linconn.specfile import SpecError, SpecFile, loads

M = '\n[space]\nbase_dim = 1\nfiber_dim = 1\n[connection]\ngamma_1_1 = "y1^2"\n'
TWO = '[space]\nbase_dim = 2\nfiber_dim = 1\n[connection]\ngamma_1_1 = "y1"\ngamma_1_2 = "x1"\n'
WIDE = '[space]\nbase_dim = 200\nfiber_dim = 1\n[connection]\n' + "".join(f'gamma_1_{i} = "x{i}"\n' for i in range(1, 201))

# (id, spec with one mistake, the loader's message).  An unknown key is
# reported at its own line, the first in file order (the rows marked).
CORPUS = [
    ("content_before_header", "base_dim = 1\n" + M, 'line 1: content before any section header'),
    ("unknown_kind", M + "[spaces]\n", "line 7: unknown section kind 'spaces'"),
    ("nameless_field", M + "[field]\nX_1 = \"1\"\n", 'line 7: [field] needs a name'),
    ("bad_header_name", M + "[field a b]\n", "line 7: expected key = value, got '[field a b]'"),
    ("no_space", '[connection]\ngamma_1_1 = "y1"\n', 'need exactly one [space] section'),
    ("two_spaces", M + "[space]\nbase_dim = 1\nfiber_dim = 1\n", 'need exactly one [space] section'),
    ("no_connection", "[space]\nbase_dim = 1\nfiber_dim = 1\n", 'need exactly one [connection] section'),
    ("missing_base_dim", M.replace("base_dim = 1\n", ""), 'line 2: missing base_dim'),
    ("missing_fiber_dim", M.replace("fiber_dim = 1\n", ""), 'line 2: missing fiber_dim'),
    ("base_dim_not_int", M.replace("base_dim = 1", "base_dim = a"), "line 3: base_dim must be an integer, got 'a'"),
    ("fiber_dim_not_int", M.replace("fiber_dim = 1", "fiber_dim = 1.5"), "line 4: fiber_dim must be an integer, got '1.5'"),
    ("base_dim_zero", M.replace("base_dim = 1", "base_dim = 0"), 'line 2: base_dim and fiber_dim must be >= 1'),
    ("space_unknown_key", M.replace("fiber_dim = 1\n", "fiber_dim = 1\nrank = 2\n"), "line 5: unknown key 'rank' in [space]"),  # own line
    ("space_duplicate_key", M.replace("fiber_dim = 1\n", "fiber_dim = 1\nbase_dim = 1\n"), "line 5: duplicate key 'base_dim'"),
    ("unterminated_quote", M.replace('"y1^2"', '"y1^2'), 'line 6: unterminated quote'),
    ("no_equals", M + "gamma_1_1\n", "line 7: expected key = value, got 'gamma_1_1'"),
    ("gamma_out_of_range", M + 'gamma_2_1 = "0"\n', 'line 7: gamma_2_1 is out of range for 1 x 1'),
    ("gamma_zero_index", M + 'gamma_0_1 = "0"\n', 'line 7: gamma_0_1 is out of range for 1 x 1'),
    ("gamma_zero_padded", M + 'gamma_01_1 = "0"\n', "line 7: unknown key 'gamma_01_1' in [connection]"),
    ("gamma_three_indices", M + 'gamma_1_1_1 = "0"\n', "line 7: unknown key 'gamma_1_1_1' in [connection]"),
    ("connection_unknown_key", M + 'extra = "0"\n', "line 7: unknown key 'extra' in [connection]"),
    ("connection_duplicate_key", M + 'gamma_1_1 = "0"\n', "line 7: duplicate key 'gamma_1_1'"),
    ("missing_gamma", TWO.replace('gamma_1_2 = "x1"\n', ""), 'missing gamma_1_2'),
    ("missing_gamma_first_row", TWO.replace('gamma_1_1 = "y1"\n', ""), 'missing gamma_1_1'),
    ("gamma_parse_error", M.replace('"y1^2"', '"y1 +"'), 'line 6: gamma_1_1: expected a value (at offset 5)'),
    ("gamma_bad_character", M.replace('"y1^2"', '"y1 $ 2"'), "line 6: gamma_1_1: unexpected character '$' (at offset 4)"),
    ("gamma_unknown_function", M.replace('"y1^2"', '"tan(y1)"'), "line 6: gamma_1_1: unknown function 'tan' (at offset 1)"),
    ("gamma_bad_variable", M.replace('"y1^2"', '"z1 + t"'), "line 6: gamma_1_1 may reference x1, y1 only, found t, z1"),
    ("gamma_other_dimension", M.replace('"y1^2"', '"x2"'), "line 6: gamma_1_1 may reference x1, y1 only, found x2"),
    # the allowed names as ranges: this message listed all 201, x2 after x199
    ("gamma_bad_variable_wide", WIDE.replace('"x1"', '"z1 + z2 + z3 + t"'), "line 5: gamma_1_1 may reference x1..x200, y1 only, found t, z1..z3"),
    ("gamma_overflowing_literal", M.replace('"y1^2"', '"1e999*y1"'), "line 6: gamma_1_1: number '1e999' does not fit in a float (at offset 1)"),
    ("gamma_trailing_input", M.replace('"y1^2"', '"y1 y1"'), "line 6: gamma_1_1: trailing input 'y1' (at offset 4)"),
    ("domain_parse_error", M + 'domain = "y1 >"\n', 'line 7: domain: expected a value (at offset 5)'),
    ("domain_no_comparison", M + 'domain = "y1"\n', 'line 7: domain: expected a comparison operator (at offset 3)'),
    ("domain_z", M + 'domain = "z1 > 0"\n', 'line 7: z not allowed in domain'),
    ("domain_t", M + 'domain = "t > 0"\n', "line 7: domain may reference x/y only, found ['t']"),
    ("field_y_variable", M + '[field f]\nX_1 = "y1"\neta_1 = "0"\n', "line 8: field f may reference x1 only, found y1"),
    ("field_missing_eta", M + '[field f]\nX_1 = "1"\n', 'line 7: missing eta_1'),
    ("field_missing_X", TWO + '[field f]\nX_2 = "1"\neta_1 = "0"\n', 'line 7: missing X_1'),
    ("field_out_of_range", M + '[field f]\nX_1 = "1"\nX_2 = "1"\neta_1 = "0"\n', 'line 9: X_2 is out of range'),
    ("field_zero_index", M + '[field f]\nX_0 = "1"\nX_1 = "1"\neta_1 = "0"\n', 'line 8: X_0 is out of range'),
    ("field_zero_padded", M + '[field f]\nX_01 = "1"\neta_1 = "0"\n', "line 8: unknown key 'X_01' in [field f]"),  # own line
    ("field_unknown_keys", M + '[field f]\nX_1 = "1"\nzeta = "0"\nalpha = "0"\neta_1 = "0"\n', "line 9: unknown key 'zeta' in [field f]"),  # own line
    ("field_typo_key", M + '[field f]\nX1 = "1"\neta_1 = "0"\n', 'line 7: missing X_1'),
    ("field_parse_error", M + '[field f]\nX_1 = "1 +"\neta_1 = "0"\n', 'line 8: field f: expected a value (at offset 4)'),
    ("field_duplicate_key", M + '[field f]\nX_1 = "1"\nX_1 = "2"\neta_1 = "0"\n', "line 9: duplicate key 'X_1'"),
    ("field_duplicate_section", M + '[field f]\nX_1 = "1" ; eta_1 = "0"\n[field f]\nX_1 = "2" ; eta_1 = "0"\n', 'line 9: duplicate [field f]'),
    ("section_missing", M + '[section s]\n', 'line 7: missing sigma_1'),
    ("section_z_variable", M + '[section s]\nsigma_1 = "z1"\n', "line 8: section s may reference x1, y1 only, found z1"),
    ("section_unknown_key", M + '[section s]\nsigma_1 = "y1"\ntau_1 = "0"\n', "line 9: unknown key 'tau_1' in [section s]"),  # own line
    ("section_duplicate", M + '[section s]\nsigma_1 = "y1"\n[section s]\nsigma_1 = "3"\n', 'line 9: duplicate [section s]'),
    ("curve_missing_t0", M + '[curve c]\nx_1 = "t" ; y_1 = "1" ; t1 = 1\n', 'line 7: missing t0 in [curve c]'),
    ("curve_missing_t1", M + '[curve c]\nx_1 = "t" ; y_1 = "1" ; t0 = 0\n', 'line 7: missing t1 in [curve c]'),
    ("curve_nan_bound", M + '[curve c]\nx_1 = "t" ; y_1 = "1"\nt0 = 0 ; t1 = nan\n', "line 9: t1 must be a finite real, got 'nan'"),
    ("curve_text_bound", M + '[curve c]\nx_1 = "t" ; y_1 = "1"\nt0 = abc ; t1 = 1\n', "line 9: t0 must be a finite real, got 'abc'"),
    ("curve_x_variable", M + '[curve c]\nx_1 = "x1" ; y_1 = "1" ; t0 = 0 ; t1 = 1\n', "line 8: curve c may reference t only, found x1"),
    ("curve_missing_y", M + '[curve c]\nx_1 = "t" ; t0 = 0 ; t1 = 1\n', 'line 7: missing y_1'),
    ("curve_out_of_range", M + '[curve c]\nx_1 = "t" ; y_1 = "1" ; y_2 = "1" ; t0 = 0 ; t1 = 1\n', 'line 8: y_2 is out of range'),
    ("curve_unknown_key", M + '[curve c]\nx_1 = "t" ; y_1 = "1"\nt0 = 0 ; t1 = 1 ; t2 = 3\n', "line 9: unknown key 't2' in [curve c]"),  # own line
    ("curve_duplicate_key", M + '[curve c]\nx_1 = "t" ; y_1 = "1" ; t0 = 0 ; t1 = 1 ; t1 = 2\n', "line 8: duplicate key 't1'"),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_each_mistake_has_one_message_and_line(text, message):
    with pytest.raises(SpecError) as err:
        loads(text)
    assert str(err.value) == message
    line = re.match(r"line ([0-9]+): ", message)
    assert err.value.line == (int(line.group(1)) if line else None)


@pytest.mark.parametrize("n, k", [(10**6, 10**6), (10**9, 1)])
def test_a_large_dimension_costs_nothing_before_the_first_missing_gamma(n, k):
    text = f'[space]\nbase_dim = {n}\nfiber_dim = {k}\n[connection]\ngamma_1_1 = "y1"\n'
    tracemalloc.start()
    try:
        with pytest.raises(SpecError, match="^missing gamma_1_2$"):
            loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_DEEP = (
    lambda d: "(" * d + "y1" + ")" * d,
    lambda d: "-" * d + "y1",
    lambda d: "+".join(["y1"] * d),
    lambda d: "y1^" * d + "2",
)
_EXPRESSIONS = st.one_of(
    st.sampled_from(["y1^2", "x1*y1 - 3", "sin(x2)/y1", "z1", "t", "1e999", "y1 +", "(y1", "2 $ 1"]),
    st.builds(lambda shape, d: shape(d), st.sampled_from(_DEEP), st.integers(1, 3000)),
    st.text(max_size=12),
)
_KEYS = st.one_of(
    st.sampled_from(
        ["base_dim", "fiber_dim", "domain", "gamma_1_1", "gamma_1_2", "gamma_2_1", "gamma_01_1",
         "X_1", "X_2", "X_01", "eta_1", "sigma_1", "x_1", "y_1", "t0", "t1", "zeta"]
    ),
    st.text(max_size=8),
)
_VALUES = st.one_of(
    _EXPRESSIONS.map(lambda e: f'"{e}"'),
    st.integers(-2, 10**12).map(str),
    st.sampled_from(["0", "1", "nan", "-inf", "1.5"]),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.sampled_from(["[space]", "[connection]", "[field f]", "[section s]", "[curve c]", "[field]", "[other]"]),
    st.builds(lambda key, value: f"{key} = {value}", _KEYS, _VALUES),
    st.text(max_size=20),
)
SPEC_TEXT = st.builds(
    lambda start, lines: start + "\n".join(lines),
    st.one_of(st.sampled_from(["", TWO]), _EXPRESSIONS.map(lambda e: M.replace("y1^2", e))),
    st.lists(_LINES, max_size=10),
)


@settings(max_examples=300, deadline=None)
@given(SPEC_TEXT)
def test_any_text_gives_a_spec_or_a_spec_error(text):
    try:
        spec = loads(text)
    except SpecError:
        return
    assert isinstance(spec, SpecFile)
