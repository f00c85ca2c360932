import pytest

from hmap import (
    Dim,
    ParseError,
    RingItem,
    Void,
    is_well_formed,
    make_map,
    parse_map,
    parse_ring,
    serialize_map,
    serialize_ring,
    to_dot,
)
from hmap.jordan import random_map

d0 = Dim.zero


def test_serialize_empty():
    assert serialize_map(Void()) == "hmap 1\n"


def test_parse_two_dart_edge(two_dart_edge):
    assert parse_map("hmap 1\ni 1\ni 2\nl 0 1 2\n") == two_dart_edge


def test_round_trip_fixture(fixture15):
    assert parse_map(serialize_map(fixture15)) == fixture15


def test_round_trip_canonical_text(digon):
    text = serialize_map(digon)
    assert serialize_map(parse_map(text)) == text


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random(seed):
    m = random_map(seed, 3 + seed, 2 * seed)
    assert parse_map(serialize_map(m)) == m


def test_comments_and_blanks_ignored():
    text = "# a map\nhmap 1\n\n i 1  # the dart\n\ni 2\nl 0 1 2 # link\n"
    assert parse_map(text) == make_map([1, 2], [(d0, 1, 2)])


def test_missing_header():
    with pytest.raises(ParseError, match="header"):
        parse_map("i 1\n")
    with pytest.raises(ParseError, match="header"):
        parse_map("")


def test_bad_lines_report_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_map("hmap 1\ni x\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_map("hmap 1\ni 1\nl 2 1 1\n")
    with pytest.raises(ParseError, match="line 2.*unrecognized"):
        parse_map("hmap 1\nq 1\n")
    with pytest.raises(ParseError, match="line 4"):
        parse_map("hmap 1\ni 1\ni 2\nl 0 1\n")


HUGE = "9" * 5000

# (text, line number, message) of the ParseError each text raises
PARSE_ERRORS = [
    ("", 1, "missing header 'hmap 1'"),
    ("# only\n  # comments\n\n", 1, "missing header 'hmap 1'"),
    ("hmap 2\ni 1\n", 1, "expected header 'hmap 1', got 'hmap 2'"),
    ("hmap 1\ni 1\nhmap 1\n", 3, "unrecognized line 'hmap 1'"),
    ("hmap　1\n", 1, "expected header 'hmap 1', got 'hmap\\u30001'"),
    ("hmap 1\ni ²\n", 2, "expected a dart number, got '²'"),
    ("hmap 1\ni -1\n", 2, "expected a dart number, got '-1'"),
    ("hmap 1\ni 1 2\n", 2, "unrecognized line 'i 1 2'"),
    (f"hmap 1\ni {HUGE}\n", 2, f"expected a dart number, got '{HUGE}'"),
    ("hmap 1\nl 2 1 2\n", 2, "dimension must be 0 or 1, got '2'"),
    ("hmap 1\nl 00 1 2\n", 2, "dimension must be 0 or 1, got '00'"),
    ("hmap 1\nl ١ 1 2\n", 2, "dimension must be 0 or 1, got '١'"),
    ("hmap 1\nl 0 1\n", 2, "unrecognized line 'l 0 1'"),
    ("hmap 1\nl 0 a 2\n", 2, "expected a dart number, got 'a'"),
    ("hmap 1\nl 1 1 2 3\n", 2, "unrecognized line 'l 1 1 2 3'"),
    ("hmap 1\nx\n", 2, "unrecognized line 'x'"),
    ("hmap 1\nI 1\n", 2, "unrecognized line 'I 1'"),
    # the dimension is read before the darts, and x before y
    ("hmap 1\nl 2 a b\n", 2, "dimension must be 0 or 1, got '2'"),
    ("hmap 1\nl 0 a b\n", 2, "expected a dart number, got 'a'"),
    # lines are counted as str.splitlines counts them, comments cut first
    ("hmap 1\r\ni 1\x0cx # why\n", 3, "unrecognized line 'x'"),
    ("#\nhmap 1\n\t i  1 　 2 #\n", 3, "unrecognized line 'i  1 \\u3000 2'"),
]


@pytest.mark.parametrize("text,line_no,message", PARSE_ERRORS,
                         ids=[f"case{i}" for i in range(len(PARSE_ERRORS))])
def test_parse_error_table(text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse_map(text)
    err = info.value
    assert (err.line_no, err.message) == (line_no, message)
    assert str(err) == f"line {line_no}: {message}"


# (text, line number, message) of the ParseError parse_ring raises
RING_ERRORS = [
    ("1 x\n", 1, "expected '<dart> <t|f>', got '1 x'"),
    ("1\n", 1, "expected '<dart> <t|f>', got '1'"),
    ("1 t f\n", 1, "expected '<dart> <t|f>', got '1 t f'"),
    ("1 T\n", 1, "expected '<dart> <t|f>', got '1 T'"),
    ("t 1\n", 1, "expected '<dart> <t|f>', got 't 1'"),
    ("a t\n", 1, "expected a dart number, got 'a'"),
    ("-1 f\n", 1, "expected a dart number, got '-1'"),
    ("² t\n", 1, "expected a dart number, got '²'"),
    (f"{HUGE} t\n", 1, f"expected a dart number, got '{HUGE}'"),
    ("hmap 1\n", 1, "expected '<dart> <t|f>', got 'hmap 1'"),
    ("hmap t\n", 1, "expected a dart number, got 'hmap'"),
    # the item's shape is read before its dart
    ("a b\n", 1, "expected '<dart> <t|f>', got 'a b'"),
    # lines are counted as str.splitlines counts them, comments cut first
    ("# ring\n\n1 t\n  2 q  # why\n", 4, "expected '<dart> <t|f>', got '2 q'"),
    ("1 t\r\n2 f\x0c3 # c\n", 3, "expected '<dart> <t|f>', got '3'"),
    ("\t 1 　 t\n 2\tf  f\n", 2, "expected '<dart> <t|f>', got '2\\tf  f'"),
    ("1 t#2 f\n3 t # 4\n#5\n6\n", 4, "expected '<dart> <t|f>', got '6'"),
]


@pytest.mark.parametrize("text,line_no,message", RING_ERRORS,
                         ids=[f"case{i}" for i in range(len(RING_ERRORS))])
def test_parse_ring_error_table(text, line_no, message):
    with pytest.raises(ParseError) as info:
        parse_ring(text)
    err = info.value
    assert (err.line_no, err.message) == (line_no, message)
    assert str(err) == f"line {line_no}: {message}"


def test_whitespace_variants_parse_as_canonical_text():
    canonical = "hmap 1\ni 1\ni 2\ni 3\nl 0 1 2\nl 1 2 3\n"
    text = ("# a digon's half\r\n\r\nhmap 1  # header\r\n"
            "\ti 1\r\ni　2\x0c\r\n  i 3\t\r\n\x0c\n"
            "l 0\t1 2 # edge\r\n\r\n l　1 2　 3 \r\n# end")
    m = parse_map(text)
    assert m == parse_map(canonical)
    assert serialize_map(m) == canonical


def test_invariant_violations_are_not_parse_errors():
    m = parse_map("hmap 1\ni 1\ni 1\n")
    assert not is_well_formed(m)
    m = parse_map("hmap 1\ni 0\n")
    assert not is_well_formed(m)


def test_non_ascii_digits_are_parse_errors():
    # '²' passes str.isdigit but not int(); '٣' passes both
    for token in ("²", "٣", "1²"):
        with pytest.raises(ParseError, match="line 2"):
            parse_map(f"hmap 1\ni {token}\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_map(f"hmap 1\ni 1\nl 0 1 {token}\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_ring(f"{token} t\n")


def test_oversized_dart_number_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2"):
        parse_map("hmap 1\ni " + "9" * 5000 + "\n")


def test_negative_dart_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_map("hmap 1\ni -3\n")


def test_ring_round_trip():
    items = [RingItem(1, True), RingItem(3, False)]
    assert parse_ring("1 t\n3 f\n") == items
    assert serialize_ring(items) == "1 t\n3 f\n"
    assert parse_ring(serialize_ring(items)) == items


def test_ring_empty():
    assert serialize_ring([]) == ""
    assert parse_ring("") == []


def test_ring_bad_lines():
    with pytest.raises(ParseError, match="line 1"):
        parse_ring("1 x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_ring("1 t\n2\n")


def test_ring_comments():
    assert parse_ring("# break order\n1 t\n") == [RingItem(1, True)]


class TestDot:
    def test_digon(self, digon):
        text = to_dot(digon)
        assert text.startswith("digraph")
        assert "cluster_0" in text
        assert "1 -> 2 [style=solid];" in text
        assert "2 -> 3 [style=dashed];" in text

    def test_one_cluster_per_component(self, fixture15):
        text = to_dot(fixture15)
        assert "cluster_2" in text and "cluster_3" not in text

    def test_empty(self):
        text = to_dot(Void())
        assert text.startswith("digraph")
