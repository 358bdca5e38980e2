import hashlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdladder as rl
from rdladder import ingest
from rdladder.errors import (
    ConflictError,
    ParseError,
    RDLadderError,
    SchemaVersionError,
    ValidationError,
)
from rdladder.ingest import MEASUREMENT_HEADER

from helpers import grouped_vectors, measurement_csv, reference_parse, reference_resample

# Golden checksum of the built-in model's canonical serialization; it must
# never drift across runs or refactors.
BUILTIN_SHA256 = "b4705c202dd7e0ce1347316d906d4d1fa61a5c6b40ba51edcb65d1da1a7a5a48"


class TestParse:
    def test_header_plus_one_row(self):
        text = f"{MEASUREMENT_HEADER}\ngop1,720p,1.5,33.25\n"
        mset = rl.parse_measurements(text, source="unit")
        assert len(mset) == 1
        assert mset.groups == (("gop1", rl.tier_from_name("720p")),)
        bitrates, psnr = mset.rows(0)
        assert bitrates.tolist() == [1.5] and psnr.tolist() == [33.25]

    def test_comments_and_blank_lines_ignored(self):
        text = f"# comment\n\n{MEASUREMENT_HEADER}\n# another\ngop1,360p,1.0,30.0\n\n"
        assert len(rl.parse_measurements(text)) == 1

    def test_rows_sorted_by_bitrate_within_group(self):
        text = (
            f"{MEASUREMENT_HEADER}\n"
            "g,1080p,3.0,38.0\n"
            "g,1080p,1.0,33.0\n"
            "g,1080p,2.0,36.0\n"
        )
        mset = rl.parse_measurements(text)
        bitrates, psnr = mset.rows(0)
        assert bitrates.tolist() == [1.0, 2.0, 3.0]
        assert psnr.tolist() == [33.0, 36.0, 38.0]

    def test_malformed_row_names_line(self):
        text = f"{MEASUREMENT_HEADER}\ngop1,720p,1.5\n"
        with pytest.raises(ParseError, match="line 2"):
            rl.parse_measurements(text)

    def test_negative_bitrate_names_line(self):
        text = f"{MEASUREMENT_HEADER}\ngop1,720p,-1,33.0\n"
        with pytest.raises(ValidationError, match="line 2"):
            rl.parse_measurements(text)

    def test_psnr_out_of_range(self):
        text = f"{MEASUREMENT_HEADER}\ngop1,720p,1.0,133.0\n"
        with pytest.raises(ValidationError, match="line 2"):
            rl.parse_measurements(text)

    def test_only_newline_ends_a_line(self):
        # Form feed, \x1c and NEL are whitespace inside a row, not line breaks.
        text = f"{MEASUREMENT_HEADER}\r\ng,720p,2\x0c,31\r\ng,720p,1\x1c,30\x85\ng,720p\n"
        with pytest.raises(ParseError, match="line 4: expected 4 comma-separated fields, got 2"):
            rl.parse_measurements(text)
        mset = rl.parse_measurements(text.rsplit("g,720p\n", 1)[0])
        bitrates, psnr = mset.rows(0)
        assert bitrates.tolist() == [1.0, 2.0]
        assert psnr.tolist() == [30.0, 31.0]

    def test_unknown_resolution(self):
        text = f"{MEASUREMENT_HEADER}\ngop1,700i,1.0,33.0\n"
        with pytest.raises(ParseError, match="line 2"):
            rl.parse_measurements(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            rl.parse_measurements("a,b,c,d\n1,2,3,4\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            rl.parse_measurements("")

    def test_conflicting_duplicate_rows(self):
        text = (
            f"{MEASUREMENT_HEADER}\n"
            "g,1080p,1.0,33.0\n"
            "g,1080p,1.0,34.0\n"
        )
        with pytest.raises(ConflictError, match="line 3"):
            rl.parse_measurements(text)

    def test_first_fault_in_file_order_is_reported(self):
        conflict = "g,1080p,1.0,33.0\ng,1080p,1.0,34.0"
        bad_row = "h,1080p,1.0"
        with pytest.raises(ConflictError, match="line 3: .* from line 2"):
            rl.parse_measurements(f"{MEASUREMENT_HEADER}\n{conflict}\n{bad_row}\n")
        with pytest.raises(ParseError, match="line 2: expected 4"):
            rl.parse_measurements(f"{MEASUREMENT_HEADER}\n{bad_row}\n{conflict}\n")
        # Group g sorts first, but group h's conflict comes first in the file.
        rows = ["g,1080p,3.0,33.0", "h,1080p,1.0,30.0", "h,1080p,1.0,31.0", "g,1080p,3.0,34.0"]
        with pytest.raises(ConflictError, match="line 4: gop 'h' .* from line 3"):
            rl.parse_measurements("\n".join([MEASUREMENT_HEADER, *rows]))

    def test_exact_duplicate_rows_collapse(self):
        text = (
            f"{MEASUREMENT_HEADER}\n"
            "g,1080p,1.0,33.0\n"
            "g,1080p,1.0,33.0\n"
        )
        mset = rl.parse_measurements(text)
        assert len(mset) == 1

    def test_parse_format_parse_idempotence(self, paper_model):
        rng = np.random.default_rng(2)
        text = measurement_csv(
            [1, 4, 6], paper_model.tiers, paper_model.grid.bitrates,
            paper_model, noise=0.2, rng=rng,
        )
        first = rl.parse_measurements(text)
        second = rl.parse_measurements(rl.format_measurements(first))
        assert first.groups == second.groups
        for column in ("offsets", "bitrates", "psnr"):
            assert np.array_equal(getattr(first, column), getattr(second, column))

    def test_grid_aligned_file_resamples_to_identity_and_assigns(self, paper_model, tables, t1080):
        model = paper_model.model(4, t1080)
        grid = paper_model.grid
        rows = [MEASUREMENT_HEADER] + [
            f"g,1080p,{b:.17g},{rl.eval_cubic(model, b):.17g}" for b in grid.bitrates
        ]
        mset = rl.parse_measurements("\n".join(rows) + "\n")
        vectors = rl.resample_to_grid(mset, grid)[t1080]
        assert vectors.gop_ids == ("g",)
        assert vectors.psnr[0].tolist() == pytest.approx(
            [rl.eval_cubic(model, b) for b in grid.bitrates], abs=1e-12
        )
        batch = rl.ObservationBatch(gop_ids=["g"], tiers=[t1080], offsets=mset.offsets,
                                    bitrates=mset.bitrates, psnr=mset.psnr, errors=[None])
        clusters, _, errors = tables.assign(batch)
        assert clusters.tolist() == [4] and errors == [None]


# Bitrates every generated group measures, so it covers DIFF_GRID unless a
# fault says otherwise.
DIFF_GRID = rl.BitrateGrid((0.5, 1.0, 2.0, 4.0))
GRID_ENDS = (0.5, 4.0)
# One faulty row each: bad field counts, unknown tiers, non-numeric
# fields, bitrates <= 0, PSNR outside (0, 100], empty GOP ids, and groups
# too short for the grid or with a single sample (one of them written with
# a form feed, which is whitespace, not a line break). A conflicting
# duplicate ("conflict") is drawn from the file's own rows.
FAULTS = [
    "g9,720p,1.0", "g9,720p,1.0,30.0,1", "g9",
    "g9,700i,1.0,30.0", "g9,p,1.0,30.0", "g9,12345p,1.0,30.0",
    "g9,720p,abc,30.0", "g9,720p,1.0, x ", "g9,720p,,30.0",
    "g9,720p,0,30.0", "g9,720p,-1.5,30.0", "g9,720p,nan,30.0", "g9,720p,inf,30.0",
    "g9,720p,1.0,0", "g9,720p,1.0,100.5", "g9,720p,1.0,nan", "g9,720p,1.0,-inf",
    ",720p,1.0,30.0", " ,720p,1.0,30.0",
    "g9,1440p,1.0,30.0\ng9,1440p,2.0,31.0", "g9,1440p,0.5,30.0\ng9,1440p,1.5,31.0",
    "g9,480p,1.0,30.0", "g9,0720p,1.0,30.0", "g9,720p,2\x0c,31.0",
    "conflict",
]
NOISE_LINES = ["", "   ", "\xa0", "# comment", "  # indented, comment,with,commas"]
# Whitespace that strip() removes; \x0c is a form feed, not a line break.
PADS = ["", " ", "\t ", "\xa0", "\u2003", "\x0c"]
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def spelled(draw, value: float) -> str:
    """``value`` written as float() reads it back: as repr gives it, in
    Arabic-Indic digits, or with an underscore between two digits."""
    text = repr(value)
    style = draw(st.sampled_from(["repr", "repr", "arabic-indic", "underscore"]))
    if style == "arabic-indic":
        return text.translate(ARABIC_INDIC_DIGITS)
    if style == "underscore":
        for i in range(1, len(text)):
            if text[i - 1].isdigit() and text[i].isdigit():
                return f"{text[:i]}_{text[i:]}"
    return text


@st.composite
def measurement_files(draw):
    """A measurement CSV as a file may arrive: comments and blank lines
    anywhere, fields padded with ASCII or Unicode whitespace, numbers in
    any spelling float() reads, \\n or \\r\\n line ends, a gop id holding a
    lone surrogate, non-standard NNNp tiers, groups in order or
    interleaved with unsorted bitrates, exact duplicate rows, and up to
    two injected faults (a conflicting duplicate is one)."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(["g0", "g1", "g2", "g\ud800"]),
                  st.sampled_from(["360p", "540p", "720p", "1080p", "240p", "1440p"])),
        min_size=1, max_size=8, unique=True,
    ))
    rows = []
    for gop_id, tier in keys:
        extra = draw(st.lists(st.floats(0.1, 8.0), max_size=5))
        for bitrate in dict.fromkeys([*GRID_ENDS, *extra]):
            rows.append((gop_id, tier, bitrate, draw(st.floats(0.5, 99.0))))
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    else:  # as a measurement harness writes them: group by group, by bitrate
        rows.sort(key=lambda row: (keys.index(row[:2]), row[2]))
    pad = draw(st.sampled_from(PADS))
    lines = [pad.join(["", gop_id, ",", tier, ",", spelled(draw, b), ",", spelled(draw, q), ""])
             for gop_id, tier, b, q in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), lines[draw(st.integers(0, len(lines) - 1))])
    for bad in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        if bad == "conflict":
            gop_id, tier, b, q = rows[draw(st.integers(0, len(rows) - 1))]
            bad = f"{gop_id},{tier},{b!r},{q + 0.5!r}"
        lines.insert(draw(st.integers(0, len(lines))), bad)
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NOISE_LINES)))
    header = draw(st.sampled_from([MEASUREMENT_HEADER] * 9 + ["gop,resolution,bitrate,psnr"]))
    head = draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([*head, header, *lines]) + draw(st.sampled_from(["", "\n", "\r\n"]))


@st.composite
def block_files(draw):
    """(text, block): a measurement file read in blocks of ``block``
    lines, with comment, blank, faulty and conflicting lines put just
    before, on and just after block boundaries."""
    block = draw(st.integers(2, 4))
    lines = draw(measurement_files()).split("\n")
    rows = [line for line in lines if line.count(",") == 3 and not line.strip().startswith("#")]
    spots = st.tuples(st.integers(1, max(1, len(lines) // block)), st.sampled_from([-1, 0, 1]))
    for boundary, step in sorted(draw(st.lists(spots, min_size=1, max_size=3))):
        line = draw(st.sampled_from([*FAULTS, *NOISE_LINES]))
        if line == "conflict" and rows:  # a conflict, or an exact duplicate
            gop_id, tier, bitrate, psnr = draw(st.sampled_from(rows)).split(",")
            line = ",".join([gop_id, tier, bitrate, draw(st.sampled_from([psnr, "50.5"]))])
        # Inserted in ascending order, each line keeps the index it is put at.
        lines.insert(min(boundary * block + step, len(lines)), line)
    return "\n".join(lines), block


def outcome(fn):
    """``fn()`` and no error, or None and the (type, message) it raised."""
    try:
        return fn(), None
    except RDLadderError as exc:
        return None, (type(exc), str(exc))


def assert_matches_reference(text: str):
    """``parse_measurements`` and ``resample_to_grid`` give what the
    row-by-row reference gives for ``text``, bit for bit, or raise the
    same error type with the same message."""
    expected, expected_error = outcome(lambda: reference_parse(text, "gen.csv"))
    mset, error = outcome(lambda: rl.parse_measurements(text, "gen.csv"))
    assert error == expected_error
    if error:
        return
    assert mset.groups == tuple(expected)
    samples = [s for group in expected.values() for s in group]
    assert mset.bitrates.tobytes() == np.array([s.bitrate for s in samples]).tobytes()
    assert mset.psnr.tobytes() == np.array([s.psnr for s in samples]).tobytes()
    assert mset.offsets.tolist() == np.cumsum([0, *map(len, expected.values())]).tolist()

    def resample_each():
        by_tier: dict = {}
        for (gop_id, tier), group in expected.items():
            ids, rows = by_tier.setdefault(tier, ([], []))
            ids.append(gop_id)
            rows.append(reference_resample(group, DIFF_GRID))
        return by_tier

    expected_vectors, expected_error = outcome(resample_each)
    vectors, error = outcome(lambda: rl.resample_to_grid(mset, DIFF_GRID))
    assert error == expected_error
    if error:
        return
    assert list(vectors) == list(expected_vectors)
    for tier, (ids, rows) in expected_vectors.items():
        assert vectors[tier].gop_ids == tuple(ids)
        assert vectors[tier].psnr.tobytes() == np.array(rows).tobytes()


class TestColumnarIngest:
    @settings(max_examples=600, derandomize=True, deadline=None)
    @given(text=measurement_files(), block=st.sampled_from([1, 3, ingest.PARSE_BLOCK_LINES]))
    def test_matches_row_by_row_reference(self, text, block):
        with mock.patch.object(ingest, "PARSE_BLOCK_LINES", block):
            assert_matches_reference(text)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=block_files())
    def test_faults_at_block_boundaries(self, case):
        text, block = case
        with mock.patch.object(ingest, "PARSE_BLOCK_LINES", block):
            assert_matches_reference(text)


class TestBuiltinModel:
    def test_shape(self, paper_model):
        assert paper_model.k == 6
        assert len(paper_model.models) == 24
        assert [t.name for t in paper_model.tiers] == ["360p", "540p", "720p", "1080p"]
        assert paper_model.provenance == "paper-table-2"

    def test_reference_coefficient_rows(self, paper_model, t360, t1080):
        assert paper_model.model(1, t1080).coefficients == (15.749, 7.627, -1.643, 0.133)
        assert paper_model.model(1, t360).coefficients == (16.857, 6.307, -1.554, 0.129)
        assert rl.eval_cubic(paper_model.model(6, t1080), 0.0) == 33.335

    def test_centroids_lie_on_curves(self, paper_model):
        for (cluster, tier), centroid in paper_model.centroids.items():
            model = paper_model.model(cluster, tier)
            expected = [rl.eval_cubic(model, b) for b in paper_model.grid.bitrates]
            assert centroid == tuple(expected)

    def test_serialization_checksum_is_stable(self, paper_model):
        text = rl.save_model(paper_model)
        assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_SHA256


class TestModelFile:
    def test_round_trip_builtin(self, paper_model):
        # Equality contract is bit-identity at the serialization precision
        # of 12 significant digits.
        def sig12(values):
            return tuple(f"{v:.12g}" for v in values)

        text = rl.save_model(paper_model)
        loaded = rl.load_model(text)
        assert loaded.k == paper_model.k
        assert loaded.tiers == paper_model.tiers
        for key in paper_model.models:
            assert loaded.model(*key).coefficients == paper_model.model(*key).coefficients
            assert sig12(loaded.centroid(*key)) == sig12(paper_model.centroid(*key))
        assert rl.save_model(loaded) == text

    def test_round_trip_trained_model_preserves_decisions(self, paper_model, cfg):
        rng = np.random.default_rng(31)
        grid = paper_model.grid
        clusters = [c for c in range(1, 7) for _ in range(6)]
        by_tier = grouped_vectors(clusters, paper_model.tiers, grid, paper_model, 0.05, rng)
        trained, _ = rl.train_details(by_tier, grid, k=6, seed=42)
        loaded = rl.load_model(rl.save_model(trained))
        for cluster in trained.clusters:
            lt = rl.build_ladder(trained, cluster)
            ll = rl.build_ladder(loaded, cluster)
            assert [s.tier for s in lt.segments] == [s.tier for s in ll.segments]
            assert lt.breakpoints == pytest.approx(ll.breakpoints, abs=1e-9)
            for tier in trained.tiers:
                a = rl.vl_threshold(trained.model(cluster, tier), cfg)
                b = rl.vl_threshold(loaded.model(cluster, tier), cfg)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.bitrate == pytest.approx(b.bitrate, abs=1e-9)

    def test_unknown_schema_version(self, paper_model):
        doc = json.loads(rl.save_model(paper_model))
        doc["schema_version"] = "99"
        with pytest.raises(SchemaVersionError, match="99"):
            rl.load_model(json.dumps(doc))

    def test_truncated_file(self, paper_model):
        text = rl.save_model(paper_model)
        with pytest.raises(ParseError, match="line"):
            rl.load_model(text[: len(text) // 2])

    def test_missing_field(self, paper_model):
        doc = json.loads(rl.save_model(paper_model))
        del doc["grid"]
        with pytest.raises(ParseError, match="grid"):
            rl.load_model(json.dumps(doc))


def test_row_validation():
    cases = [
        (",720p,1.0,30.0", "line 2: gop_id must be non-empty"),
        ("g,720p,0.0,30.0", "line 2: gop 'g': bitrate must be finite and > 0"),
        ("g,720p,1.0,0.0", "line 2: gop 'g': psnr must be in (0, 100] dB"),
        ("g,720p,1.0,120.0", "line 2: gop 'g': psnr must be in (0, 100] dB"),
    ]
    for row, message in cases:
        with pytest.raises(ValidationError) as exc:
            rl.parse_measurements(f"{MEASUREMENT_HEADER}\n{row}\n")
        assert str(exc.value) == message


# Peak memory that parse_measurements allocates, per character of input,
# measured once (Python 3.11, tracemalloc) on the row-by-row parser the
# block parser replaced. Splitting the whole file into fields at once
# takes about twice that on its own.
ROW_PARSER_PEAK_PER_CHAR = 4.37


def test_parse_peak_memory_stays_near_the_row_parser():
    rows = [MEASUREMENT_HEADER]
    for g in range(1250):
        for tier in ("360p", "540p", "720p", "1080p"):
            for i in range(10):
                rows.append(f"gop{g:05d},{tier},{0.2 + 0.6 * i + g * 1e-6!r},"
                            f"{30 + 2.5 * i + (g % 7) * 0.125!r}")
    text = "\n".join(rows) + "\n"
    tracemalloc.start()
    try:
        mset = rl.parse_measurements(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mset) == 50_000
    assert peak <= 1.25 * ROW_PARSER_PEAK_PER_CHAR * len(text)
