"""Tests for result rendering and the repro-fig CLI."""

import inspect
import json

import pytest

from repro.common.config import ExperimentConfig
from repro.experiments.cli import main as cli_main
from repro.experiments.figures import ALL_FIGURES, filecount_table
from repro.experiments.report import FigureResult, Series


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("x", [1, 2], [1.0])


class TestFigureResult:
    def make(self):
        return FigureResult(
            fig_id="figX",
            title="Demo",
            xlabel="clients",
            ylabel="MB/s",
            series=[
                Series("BSFS", [1.0, 2.0], [100.0, 90.0]),
                Series("HDFS", [1.0, 2.0], [95.0, 91.0]),
            ],
            paper_claim="stays flat",
        )

    def test_to_text_contains_everything(self):
        text = self.make().to_text()
        assert "figX" in text and "Demo" in text
        assert "BSFS" in text and "HDFS" in text
        assert "100.0" in text and "91.0" in text
        assert "stays flat" in text

    def test_to_json_roundtrip(self):
        result = self.make()
        data = json.loads(json.dumps(result.to_dict()))
        assert data["fig_id"] == "figX"
        assert data["series"][0]["ys"] == [100.0, 90.0]

    def test_ascii_chart_shape(self):
        chart = self.make().to_ascii_chart(width=40, height=8)
        lines = chart.splitlines()
        assert lines[0].startswith("Demo")
        body = [l for l in lines if l.startswith("|")]
        assert len(body) == 8
        assert all(len(l) == 41 for l in body)
        # both series' glyphs appear
        flat = "".join(body)
        assert "*" in flat and "o" in flat
        # legend names the series
        assert "BSFS" in lines[-1] and "HDFS" in lines[-1]

    def test_ascii_chart_empty(self):
        empty = FigureResult("f", "t", "x", "y")
        assert empty.to_ascii_chart() == "(no data)"


class TestFilecountTable:
    def test_bsfs_always_one_file(self):
        result = filecount_table(reducer_counts=(1, 3))
        by_label = {s.label: s for s in result.series}
        assert by_label["HDFS output files"].ys == [1.0, 3.0]
        assert by_label["BSFS output files"].ys == [1.0, 1.0]
        # namespace footprint scales with reducers on HDFS, not on BSFS
        assert by_label["HDFS namespace files"].ys[1] > by_label[
            "BSFS namespace files"
        ].ys[1]


class TestCLI:
    def test_filecount_command(self, capsys, tmp_path):
        out_json = tmp_path / "results.json"
        rc = cli_main(["filecount", "--json", str(out_json)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "tab-filecount" in printed
        data = json.loads(out_json.read_text())
        assert data[0]["fig_id"] == "tab-filecount"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    def test_profile_dumps_pstats(self, capsys, tmp_path):
        import pstats

        out = tmp_path / "fig3.pstats"
        rc = cli_main(["fig3", "--profile", str(out)])
        assert rc == 0
        assert out.exists()
        # the dump must be loadable and non-trivial
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_is_a_usage_error(self, capsys, reps):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fig3", "--reps", reps])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--reps must be >= 1" in err
        assert "Traceback" not in err


class TestFigureArguments:
    FIGURES_WITH_SCALE = sorted(
        name
        for name, fn in ALL_FIGURES.items()
        if "scale" in inspect.signature(fn).parameters
    )

    def test_every_des_figure_takes_a_scale(self):
        assert self.FIGURES_WITH_SCALE == sorted(set(ALL_FIGURES) - {"filecount"})

    @pytest.mark.parametrize("with_config", [False, True])
    @pytest.mark.parametrize("name", FIGURES_WITH_SCALE)
    def test_unknown_scale_rejected(self, name, with_config):
        """A typo in *scale* must not silently run the quick sweep,
        whether or not the caller brought a config."""
        config = ExperimentConfig(repetitions=1) if with_config else None
        with pytest.raises(ValueError, match="unknown scale 'papr'"):
            ALL_FIGURES[name](scale="papr", config=config)
