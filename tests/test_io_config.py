"""CSV ingestion and strict JSON configuration."""

import json
import re

import numpy as np
import pytest

from propfit.config import RunConfig, load_config, load_schema, parse_config
from propfit.exceptions import ConfigError
from propfit.io import read_input_table


CSV = "curve,x,y\n1,0.0,1.0\n1,1.0,2.0\n1,2.0,3.0\n2,0.5,1.5\n"


def read_text(tmp_path, text: str):
    """``text`` written to a file as is, then read back as an input table."""
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return read_input_table(str(path))


class TestReadTable:
    def test_basic_two_curves(self, tmp_path):
        table = read_text(tmp_path, CSV)
        assert table.labels == ("1", "2")
        d1 = table.curves["1"]
        np.testing.assert_array_equal(d1.x, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(d1.y, [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match=re.escape("expected one curve, found 2: ('1', '2')")):
            table.single()

    def test_curve_column_optional(self, tmp_path):
        table = read_text(tmp_path, "x,y\n1,2\n3,4\n")
        assert table.labels == ("1",)

    def test_duplicate_x_rows_kept(self, tmp_path):
        table = read_text(tmp_path, "x,y\n1,2\n1,3\n")
        assert table.single().n == 2

    def test_crlf_accepted(self, tmp_path):
        table = read_text(tmp_path, "x,y\r\n1,2\r\n3,4\r\n")
        assert table.single().n == 2

    @pytest.mark.parametrize("text", [
        "",                           # no header
        "a,b\n1,2\n",                # wrong columns
        "x,y,z\n1,2,3\n",            # extra column
        "x,y\n1,abc\n",              # non-numeric
        "x,y\n1,inf\n",              # non-finite
        "x,y\n1\n",                  # ragged row
        "curve,x,y\n,1,2\n",         # empty label
    ])
    def test_strict_rejection(self, tmp_path, text):
        with pytest.raises(ConfigError):
            read_text(tmp_path, text)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_text(CSV, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        got, want = read_input_table(str(path)), read_text(tmp_path, CSV)
        assert got.labels == want.labels
        for label in want.labels:
            np.testing.assert_array_equal(got.curves[label].x, want.curves[label].x)
            np.testing.assert_array_equal(got.curves[label].y, want.curves[label].y)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.model == "saturating_exponential"
        assert cfg.methods == ("ml", "ql", "wls", "dwls")
        assert cfg.fit_options.max_iter == 100

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="invalid config"):
            parse_config({"modle": "constant"})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"fit": {"tol": 1e-8}})
        with pytest.raises(ConfigError):
            parse_config({"fit": {"damping": 1e-3}})

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"methods": ["ols"]})

    def test_sigma_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"sim": {"theta0": [1.0], "x1": [0, 1], "sigma": [0.9],
                                  "replicates": 5}})

    @pytest.mark.parametrize("bracket", [[2.0, 1.0], [1.0, 1.0], [float("nan"), 0.0],
                                         [-float("inf"), 0.0], [-5000.0, 0.0]])
    def test_bad_gamma_bracket_rejected(self, bracket):
        # The intersection scan widens by itself, so no bracket is a key.
        with pytest.raises(ConfigError, match=re.escape(
                "invalid config at (top level): Additional properties are not allowed "
                "('gamma_bracket' was unexpected)")):
            parse_config({"model": "partial_bleach", "gamma_bracket": bracket})

    @pytest.mark.parametrize("reject", [True, False])
    def test_reject_nonpositive_rejected(self, reject):
        # A draw with a response at or below zero is always redrawn, so
        # whether to reject it is no key.
        with pytest.raises(ConfigError, match=re.escape(
                "Additional properties are not allowed ('reject_nonpositive' was unexpected)")):
            parse_config({"sim": {"theta0": [1.0, 1.0, 1.0], "sigma": [0.01], "replicates": 1,
                                  "reject_nonpositive": reject}})

    def test_two_curve_design_built(self):
        cfg = parse_config({
            "model": "partial_bleach",
            "sim": {"theta0": [142853.0, 123.182, 393.065, 95717.8, 192.547, 756.62],
                    "x1": [0, 100, 200, 400, 600, 800, 1000],
                    "x2": [0, 100, 200, 400, 600, 800, 1000],
                    "sigma": [0.01], "replicates": 3, "seed": 1},
        })
        design = cfg.build_design()
        assert design.two_curve
        assert design.target_names[-1] == "gamma"

    def test_theta0_length_checked(self):
        cfg = parse_config({"model": "constant",
                            "sim": {"theta0": [1.0, 2.0], "x1": [0, 1, 2],
                                    "sigma": [0.01], "replicates": 2}})
        with pytest.raises(ConfigError, match="theta0"):
            cfg.build_design()

    def test_design_error_is_a_config_error(self):
        # A sim section the schema never saw: SimDesign's own check, as a ConfigError.
        cfg = RunConfig(model="constant", sim={"theta0": [1.0], "x1": [0, 1, 2],
                                               "sigma": [0.01], "replicates": 0})
        with pytest.raises(ConfigError, match=r"^need at least one replicate$"):
            cfg.build_design()

    def test_x2_only_for_two_curves(self):
        cfg = parse_config({"model": "constant",
                            "sim": {"theta0": [1.0], "x1": [0, 1, 2], "x2": [0, 1],
                                    "sigma": [0.01], "replicates": 2}})
        with pytest.raises(ConfigError, match="x2"):
            cfg.build_design()

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "constant", "methods": ["ql"]}))
        cfg = load_config(path)
        assert cfg.methods == ("ql",)

    def test_load_config_with_byte_order_mark(self, tmp_path):
        text = json.dumps({"model": "constant", "methods": ["ql", "ml"], "fit": {"max_iter": 7}})
        plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(bom) == load_config(plain)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_schemas_load(self):
        for name in ("config", "fit_report", "sim_report"):
            schema = load_schema(name)
            assert schema["type"] == "object"