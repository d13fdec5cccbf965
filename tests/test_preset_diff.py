"""The preset comparison tool's verdict on fixed sweep outputs."""

import importlib.util
import math
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

HEADER = "axis1_name,axis1_value,axis2_name,axis2_value,delta,u,g,f,phi,kappa,dim,n_mean,g2,lg_n,lg_g2,status\n"
ROW = "f,0.01,g,0.0,0,0.5,0,0.01,0.26,1,{dim},{n},0.5,-4,-0.3,{status}\n"

JSON = """{{
  "metadata": {{
    "preset": "fig1a",
    "timestamp": "{stamp}"
  }},
  "rows": [
    {{
      "dim": {dim},
      "n_mean": {n},
      "g2": null,
      "status": "ok"
    }}
  ]
}}
"""


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # for its import of paired_bench
    spec = importlib.util.spec_from_file_location("preset_diff", TOOLS / "preset_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_text(*rows):
    return HEADER + "".join(ROW.format(**row) for row in rows)


def test_identical_outputs(monkeypatch):
    tool = load_tool(monkeypatch)
    text = csv_text({"dim": 18, "n": 0.1, "status": "ok"}, {"dim": "NA", "n": "NA", "status": "failed"})
    assert tool.compare(text, text) is None


def test_last_bit_difference(monkeypatch):
    tool = load_tool(monkeypatch)
    n = 0.037920000000000005
    last_bit = math.nextafter(n, 1.0)
    ref = csv_text({"dim": 18, "n": repr(n), "status": "ok"})
    new = csv_text({"dim": 18, "n": repr(last_bit), "status": "ok"})
    diff = tool.compare(ref, new)
    assert diff["n_mean"] == (last_bit - n) / last_bit
    assert diff["g2"] == 0.0
    assert (diff["rows"], diff["dim"], diff["status"]) == ((1, 1), 0, 0)


def test_dim_and_status_mismatch(monkeypatch):
    tool = load_tool(monkeypatch)
    ref = csv_text({"dim": 18, "n": 0.1, "status": "ok"}, {"dim": 24, "n": 0.2, "status": "ok"})
    new = csv_text({"dim": 18, "n": 0.1, "status": "ok"}, {"dim": "NA", "n": "NA", "status": "failed"})
    diff = tool.compare(ref, new)
    assert (diff["dim"], diff["status"]) == (1, 1)
    assert diff["n_mean"] == math.inf  # defined on one side only
    dims = tool.compare(JSON.format(stamp="t", dim=18, n=0.1), JSON.format(stamp="t", dim=24, n=0.1))
    assert (dims["dim"], dims["n_mean"], dims["g2"]) == (1, 0.0, 0.0)


def test_json_timestamp_alone_is_ignored(monkeypatch):
    tool = load_tool(monkeypatch)
    ref = JSON.format(stamp="2026-01-01T00:00:00+00:00", dim=18, n=0.1)
    new = JSON.format(stamp="2026-01-02T12:34:56.789+00:00", dim=18, n=0.1)
    assert tool.compare(ref, new) is None
    assert tool.compare(ref, JSON.format(stamp="x", dim=18, n=0.2))["n_mean"] == 0.5
