"""Value system tests: the calendar against a brute-force day-counting
oracle, the date grammar, the canonical value order and CSV output."""

import csv
import io
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdc import model
from vdc.errors import ParseError
from vdc.model import (
    CIRCA_WIDENING_DAYS,
    ItemRef,
    UncertainDate,
    csv_text,
    date_gap_days,
    date_near,
    date_within,
    day_number,
    day_to_date,
    days_in_month,
    format_uncertain_date,
    little_endian,
    parse_uncertain_date,
    value_sort_key,
)


def oracle_day_number(year: int, month: int, day: int) -> int:
    """Counts days year by year from year 1; deliberately dumb, and with
    its own leap rule rather than the code under test's."""

    def year_length(y: int) -> int:
        return 366 if y % 4 == 0 else 365

    n = 0
    if year >= 1:
        for y in range(1, year):
            n += year_length(y)
    else:
        for y in range(year, 1):
            n -= year_length(y)
    february = 29 if year_length(year) == 366 else 28
    month_lengths = (31, february, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    return n + sum(month_lengths[: month - 1]) + day - 1


class TestCalendar:
    def test_epoch(self):
        assert day_number(1, 1, 1) == 0

    def test_day_number_matches_oracle_on_1000_random_dates(self):
        rng = random.Random(20260808)
        for _ in range(1000):
            y = rng.randint(-600, 2600)
            m = rng.randint(1, 12)
            d = rng.randint(1, days_in_month(y, m))
            assert day_number(y, m, d) == oracle_day_number(y, m, d)
            assert day_to_date(day_number(y, m, d)) == (y, m, d)

    @pytest.mark.parametrize("years", [range(-12, 13), range(100, 421)])
    def test_every_day_round_trips(self, years):
        """Every date of these years, in order, has the next day number,
        and converts back to itself: each cycle position, leap day and
        month end, on both sides of year 1."""
        n = day_number(years[0], 1, 1)
        for y in years:
            for m in range(1, 13):
                for d in range(1, days_in_month(y, m) + 1):
                    assert day_number(y, m, d) == n
                    assert day_to_date(n) == (y, m, d)
                    n += 1

    def test_leap_rule_includes_year_zero_and_negatives(self):
        def year_length(y):
            return day_number(y + 1, 1, 1) - day_number(y, 1, 1)

        assert year_length(0) == 366
        assert year_length(-4) == 366
        assert year_length(-1) == 365
        assert days_in_month(4, 2) == 29
        assert days_in_month(5, 2) == 28


class TestParseDates:
    def test_day_precise_is_zero_width(self):
        d = parse_uncertain_date("0213-03-15")
        assert d.latest_day - d.earliest_day == 0

    def test_day_number_of_second_year(self):
        # year 1 is not a leap year: 365 days before 0002-01-01
        assert oracle_day_number(2, 1, 1) == 365
        assert parse_uncertain_date("0002-01-01").earliest_day == 365

    def test_fifty_year_span_width(self):
        expected = (
            oracle_day_number(249, 12, 31) - oracle_day_number(200, 1, 1)
        )
        assert expected == 18262
        span = parse_uncertain_date("0200/0249")
        assert span.latest_day - span.earliest_day == expected

    def test_whole_month_and_year(self):
        feb = parse_uncertain_date("0212-02")
        assert feb.latest_day - feb.earliest_day == 28  # 212 is a leap year
        year = parse_uncertain_date("0200")
        assert year.latest_day - year.earliest_day == 365  # 200 is a leap year

    def test_circa_widens_both_ends(self):
        plain = parse_uncertain_date("0213")
        circa = parse_uncertain_date("ca. 0213")
        assert circa.earliest_day == plain.earliest_day - CIRCA_WIDENING_DAYS
        assert circa.latest_day == plain.latest_day + CIRCA_WIDENING_DAYS

    def test_negative_year(self):
        d = parse_uncertain_date("-0045")
        assert format_uncertain_date(d) == "-0045-01-01/-0045-12-31"

    def test_mixed_range_bounds(self):
        d = parse_uncertain_date("0200-05/0201")
        assert d.earliest_day == day_number(200, 5, 1)
        assert d.latest_day == day_number(201, 12, 31)

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "ca. ", "0199-02-30", "0200-13", "0200-00-01", "abc",
         "0249/0200", "0200/0249/0300", "02-2-05", "0200-5", "0200--05",
         # ASCII digits only, and a bound ends where its text ends
         "\u0660\u0661\u0665\u0660", "0150-03\n/0151"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_uncertain_date(text)

    def test_error_carries_byte_offset(self):
        with pytest.raises(ParseError) as e:
            parse_uncertain_date("0199-02-30")
        assert e.value.offset == 8
        with pytest.raises(ParseError) as e:
            parse_uncertain_date("ca. 0199-02-30")
        assert e.value.offset == 12

    @pytest.mark.parametrize("prefix, offset", [("", 0), ("-", 0), ("ca. ", 4), ("-0100/", 6)])
    def test_year_of_more_than_16_digits(self, prefix, offset):
        """A year has at most 16 digits (the sign is not a digit, a leading
        zero is): more is a ParseError at its bound."""
        for year in ("1" * 17, "0" * 16 + "1", "1" * 5000):
            with pytest.raises(ParseError) as e:
                parse_uncertain_date(prefix + year + "-01")
            assert e.value.message == f"year of {len(year)} digits exceeds 16 digits"
            assert e.value.offset == offset
        assert parse_uncertain_date(prefix + "9" * 16 + "-01")

    def test_whitespace_trimmed(self):
        assert parse_uncertain_date("  0213 ") == parse_uncertain_date("0213")


class TestFormat:
    def test_zero_width(self):
        d = parse_uncertain_date("0213-03-15")
        assert format_uncertain_date(d) == "0213-03-15/0213-03-15"

    def test_year_expansion(self):
        assert format_uncertain_date(parse_uncertain_date("0200")) == "0200-01-01/0200-12-31"

    @given(
        lo=st.integers(min_value=-400000, max_value=1000000),
        width=st.integers(min_value=0, max_value=40000),
    )
    @settings(max_examples=300)
    def test_roundtrip_on_generated_intervals(self, lo, width):
        d = UncertainDate(lo, lo + width)
        back = parse_uncertain_date(format_uncertain_date(d))
        assert (back.earliest_day, back.latest_day) == (lo, lo + width)


_DATE_TEXTS = st.one_of(
    st.builds(lambda y: f"{y:04d}", st.integers(-999, 2600)),
    st.builds(lambda y, m: f"{y:04d}-{m:02d}", st.integers(0, 999), st.integers(1, 12)),
    st.builds(
        lambda y, m, d: f"{y:04d}-{m:02d}-{d:02d}",
        st.integers(0, 999), st.integers(1, 12), st.integers(1, 28),
    ),
    st.builds(lambda y, s: f"{y:04d}/{y + s:04d}", st.integers(0, 999), st.integers(0, 120)),
    st.builds(lambda y: f"ca. {y:04d}", st.integers(0, 999)),
)


class TestIntervalPredicates:
    def test_gap_of_identical_intervals(self):
        d = parse_uncertain_date("0213")
        assert date_gap_days(d, d) == 0

    def test_gap_endpoint_arithmetic(self):
        a = UncertainDate(0, 10)
        b = UncertainDate(20, 30)
        assert date_gap_days(a, b) == 10
        assert date_gap_days(b, a) == 10

    def test_gap_between_years_matches_oracle(self):
        a, b = parse_uncertain_date("0213"), parse_uncertain_date("0215")
        expected = oracle_day_number(215, 1, 1) - oracle_day_number(213, 12, 31)
        assert expected == 366
        assert date_gap_days(a, b) == expected

    def test_near_uses_flat_years(self):
        a, b = parse_uncertain_date("0213"), parse_uncertain_date("0215")
        assert not date_near(a, b, 1)
        assert date_near(a, b, 2)
        assert date_near(a, a, 0)

    @given(texts=st.tuples(_DATE_TEXTS, _DATE_TEXTS, _DATE_TEXTS))
    @settings(max_examples=300)
    def test_gap_symmetry_and_triangle_bound(self, texts):
        a, b, c = (parse_uncertain_date(t) for t in texts)
        assert date_gap_days(a, b) == date_gap_days(b, a)
        assert date_gap_days(a, c) <= (
            date_gap_days(a, b) + (b.latest_day - b.earliest_day) + date_gap_days(b, c)
        )

    @given(ta=_DATE_TEXTS, tb=_DATE_TEXTS, k=st.integers(0, 50))
    @settings(max_examples=200)
    def test_near_monotone_in_k(self, ta, tb, k):
        a, b = parse_uncertain_date(ta), parse_uncertain_date(tb)
        if date_near(a, b, k):
            assert date_near(a, b, k + 1)

    def test_within_containment(self):
        a = parse_uncertain_date("0213-03-15")
        lo, hi = parse_uncertain_date("0200"), parse_uncertain_date("0250")
        assert date_within(a, a, a)
        assert date_within(a, lo, hi)
        span = parse_uncertain_date("0200/0249")
        assert not date_within(
            span, parse_uncertain_date("0210"), parse_uncertain_date("0260")
        )


_VALUES = st.one_of(
    st.none(),
    st.integers(-10**6, 10**6),
    st.text(max_size=6),
    st.builds(
        lambda lo, w: UncertainDate(lo, lo + w),
        st.integers(-10**5, 10**5),
        st.integers(0, 10**4),
    ),
)


class TestValueOrder:
    def test_kind_ranks(self):
        assert value_sort_key(None) < value_sort_key(0)
        assert value_sort_key(0) < value_sort_key("")
        assert value_sort_key("z") < value_sort_key(UncertainDate(0, 0))

    def test_text_code_point_order(self):
        assert value_sort_key("a") < value_sort_key("b")
        assert value_sort_key("B") < value_sort_key("a")  # code points, not locale

    def test_date_order_by_bounds(self):
        assert value_sort_key(parse_uncertain_date("0213")) < value_sort_key(
            parse_uncertain_date("0213-03-15")
        )

    @given(a=_VALUES, b=_VALUES, c=_VALUES)
    @settings(max_examples=400)
    def test_total_order(self, a, b, c):
        # totality + antisymmetry
        ka, kb = value_sort_key(a), value_sort_key(b)
        assert [ka < kb, ka == kb, ka > kb].count(True) == 1
        assert (ka < kb, ka == kb) == (kb > ka, kb == ka)
        # transitivity via the sort key (a total preorder by construction)
        ks = sorted([ka, kb, value_sort_key(c)])
        assert ks[0] <= ks[1] <= ks[2]

    def test_interval_equality_ignores_source_text(self):
        assert parse_uncertain_date("0213") == parse_uncertain_date("213")


class TestItemRef:
    def test_round_trip(self):
        ref = ItemRef("src", "table", "a/b c")
        assert ItemRef.parse(ref.text()) == ref

    @pytest.mark.parametrize("text", ["a/b", "", "a//x", "/b/c", "a/b/"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            ItemRef.parse(text)

    def test_rejects_format_breaking_characters(self):
        with pytest.raises(ValueError):
            ItemRef("s", "t", "a,b")
        with pytest.raises(ValueError):
            ItemRef("s", "t", "a\tb")

    @pytest.mark.parametrize("parts, message", [
        (("", "t", "k"), "empty source_id in item ref"),
        (("s", "", "k"), "empty container in item ref"),
        (("s", "t", ""), "empty item_id in item ref"),
        (("s,x", "t", "k"), "source_id contains a forbidden character: 's,x'"),
        (("s", "t\nx", "k"), "container contains a forbidden character: 't\\nx'"),
        (("s", "t", "k\r"), "item_id contains a forbidden character: 'k\\r'"),
        (("s/x", "t", "k"), "source_id and container must not contain '/'"),
        (("s", "t/x", "k"), "source_id and container must not contain '/'"),
        (("s/x", "", "k"), "empty container in item ref"),
        (("s/x", "t", "k\t"), "item_id contains a forbidden character: 'k\\t'"),
    ])
    def test_rejection_messages(self, parts, message):
        with pytest.raises(ValueError) as e:
            ItemRef(*parts)
        assert str(e.value) == message

    @given(st.tuples(*[st.text(alphabet="ab/é\t\n\r, ", max_size=4)] * 3))
    @settings(max_examples=400)
    def test_accepts_or_rejects_as_the_part_rules_say(self, parts):
        """The first rule a part breaks, in part order, names the fault;
        a slash in the source id or the container only after that."""
        expected = None
        for part, label in zip(parts, ("source_id", "container", "item_id")):
            if not part:
                expected = f"empty {label} in item ref"
            elif set(part) & set("\t\n\r,"):
                expected = f"{label} contains a forbidden character: {part!r}"
            if expected:
                break
        else:
            if "/" in parts[0] or "/" in parts[1]:
                expected = "source_id and container must not contain '/'"
        if expected is None:
            ref = ItemRef(*parts)
            assert ItemRef.parse(ref.text()) == ref
        else:
            with pytest.raises(ValueError) as e:
                ItemRef(*parts)
            assert str(e.value) == expected


_LF_CHARS = ["a", "λ", ",", '"', " ", "\n"]


def _tables(chars: list[str]):
    return st.lists(st.lists(st.lists(st.sampled_from(chars), max_size=4).map("".join),
                             max_size=4), max_size=5)


class TestCsvText:
    @given(rows=_tables([*_LF_CHARS, "\r", "\r\n"]))
    @settings(max_examples=300, deadline=None)
    def test_a_reader_reads_the_rows_back(self, rows):
        assert list(csv.reader(io.StringIO(csv_text(rows), newline=""))) == rows

    @given(rows=_tables(_LF_CHARS))
    @settings(max_examples=300, deadline=None)
    def test_without_a_carriage_return_the_bytes_of_an_lf_writer(self, rows):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        assert csv_text(rows) == out.getvalue()


class TestLittleEndian:
    def test_a_platform_of_other_item_widths_is_refused(self, monkeypatch):
        monkeypatch.setitem(model._ITEM_BYTES, "I", 8)
        with pytest.raises(RuntimeError, match=r"^array\('I'\) items are 4 bytes on this "
                                               r"platform, where images store 8$"):
            little_endian(array("I", [1]))
