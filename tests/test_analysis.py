"""Spike-train metrics and raster export."""

import math

import pytest

from neurocore.analysis import (
    InsufficientSpikesError,
    SpikeTrain,
    cv_isi,
    errt,
    export_raster_csv,
    export_raster_svg,
)
from neurocore.network import SpikeRecord


def train(*times):
    return SpikeTrain(tuple(float(t) for t in times))


class TestSpikeTrain:
    def test_requires_strictly_increasing_times(self):
        with pytest.raises(ValueError):
            train(1.0, 1.0)

    def test_from_steps(self):
        t = SpikeTrain.from_steps([0, 8, 80])
        assert t.times == (0.0, 1.0, 10.0)


class TestErrt:
    def test_identical_trains(self):
        t = train(5, 15, 30)
        assert errt(t, t) == 0.0

    def test_ten_percent(self):
        reference = train(0, 10)
        test = train(0, 11)
        assert errt(reference, test) == pytest.approx(10.0)

    def test_scale_invariance(self):
        a, b = train(0, 10, 25), train(0, 12, 30)
        scaled_a = train(0, 20, 50)
        scaled_b = train(0, 24, 60)
        assert errt(a, b) == pytest.approx(errt(scaled_a, scaled_b))

    def test_insufficient_spikes(self):
        with pytest.raises(InsufficientSpikesError):
            errt(train(1.0), train(1, 2))
        with pytest.raises(InsufficientSpikesError):
            errt(train(1, 2), train(1.0))

    def test_only_first_two_spikes_count(self):
        reference = train(0, 10, 100)
        test = train(0, 10, 500)
        assert errt(reference, test) == 0.0

class TestCvIsi:
    def test_regular_train_has_zero_cv(self):
        t = train(*(10.0 * i for i in range(1, 30)))
        assert cv_isi(t) == pytest.approx(0.0)

    def test_too_few_spikes_is_infinite(self):
        assert math.isinf(cv_isi(train(1, 2)))


class TestRasterExport:
    def _record(self):
        record = SpikeRecord()
        record.append(0, (("A",), (0,)), [0, 2])
        record.append(5, (("B",), (0,)), [1])
        record.append(9, (("A",), (0,)), [3])
        return record

    def test_csv_roundtrip(self, tmp_path):
        record = self._record()
        path = export_raster_csv(record, tmp_path / "raster.csv")
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(int(step), pop, int(i)) for step, _, pop, i in rows] == record.events

    def test_empty_record_header_only(self, tmp_path):
        path = export_raster_csv(SpikeRecord(), tmp_path / "empty.csv")
        assert path.read_text() == "step,time_ms,population,neuron\n"

    def test_csv_schema(self, tmp_path):
        path = export_raster_csv(self._record(), tmp_path / "raster.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "step,time_ms,population,neuron"
        assert lines[1] == "0,0,A,0"
        assert lines[3] == "5,0.625,B,1"

    def test_svg_contains_bands_and_events(self, tmp_path):
        path = export_raster_svg(
            self._record(), tmp_path / "raster.svg", ["A", "B"], {"A": 4, "B": 2}
        )
        svg = path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") == 4
        assert ">A<" in svg and ">B<" in svg
        assert "time (ms)" in svg

    def test_svg_bands_are_the_given_populations_at_their_sizes(self, tmp_path):
        sizes = {"A": 8}
        svg = export_raster_svg(self._record(), tmp_path / "a.svg", ["A"], sizes).read_text()
        # only A's events are drawn; neuron 0 sits half a row above its band's foot
        assert svg.count("<circle") == 3 and ">B<" not in svg
        assert 'cy="99.0"' in svg  # 24 + 80 - 0.5 / 8 * 80
        assert sizes == {"A": 8}

    def test_empty_svg_has_axes_only(self, tmp_path):
        path = export_raster_svg(SpikeRecord(), tmp_path / "empty.svg", ["A"], {"A": 4})
        svg = path.read_text()
        assert "<circle" not in svg
        assert "<line" in svg
