import hashlib
import json

import numpy as np
import pytest

import rdladder as rl
from rdladder.errors import (
    ConflictError,
    ParseError,
    SchemaVersionError,
    ValidationError,
)
from rdladder.ingest import MEASUREMENT_HEADER, RDSample

from helpers import grouped_vectors, measurement_csv

# Golden checksum of the built-in model's canonical serialization; it must
# never drift across runs or refactors.
BUILTIN_SHA256 = "b4705c202dd7e0ce1347316d906d4d1fa61a5c6b40ba51edcb65d1da1a7a5a48"


class TestParse:
    def test_header_plus_one_row(self):
        text = f"{MEASUREMENT_HEADER}\ngop1,720p,1.5,33.25\n"
        mset = rl.parse_measurements(text, source="unit")
        assert len(mset) == 1
        ((key, samples),) = list(mset.groups())
        assert key == ("gop1", rl.tier_from_name("720p"))
        assert samples[0].bitrate == 1.5 and samples[0].psnr == 33.25

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
        ((_, samples),) = list(mset.groups())
        assert [s.bitrate for s in samples] == [1.0, 2.0, 3.0]

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
        assert first.samples == second.samples

    def test_grid_aligned_file_resamples_to_identity_and_assigns(self, paper_model, tables, t1080):
        model = paper_model.model(4, t1080)
        grid = paper_model.grid
        rows = [MEASUREMENT_HEADER] + [
            f"g,1080p,{b:.17g},{rl.eval_cubic(model, b):.17g}" for b in grid.bitrates
        ]
        mset = rl.parse_measurements("\n".join(rows) + "\n")
        samples = mset.samples[("g", t1080)]
        vec = rl.resample_to_grid(samples, grid)
        assert vec.psnr == pytest.approx(
            [rl.eval_cubic(model, b) for b in grid.bitrates], abs=1e-12
        )
        obs = rl.GopObservation("g", t1080, tuple((s.bitrate, s.psnr) for s in samples))
        (assignment,) = tables.assign([obs])
        assert assignment.cluster == 4


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
        trained = rl.train(by_tier, grid, k=6, seed=42)
        loaded = rl.load_model(rl.save_model(trained))
        for cluster in trained.clusters:
            lt = rl.build_ladder(trained, cluster, cfg)
            ll = rl.build_ladder(loaded, cluster, cfg)
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


def test_rdsample_validation(t720):
    with pytest.raises(ValidationError):
        RDSample("", t720, 1.0, 30.0)
    with pytest.raises(ValidationError):
        RDSample("g", t720, 0.0, 30.0)
    with pytest.raises(ValidationError):
        RDSample("g", t720, 1.0, 0.0)
    with pytest.raises(ValidationError):
        RDSample("g", t720, 1.0, 120.0)
