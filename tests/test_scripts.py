"""scripts/weight_sweep.py runs end to end on a shrunken scenario."""

import importlib.util
from dataclasses import replace
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "weight_sweep.py"


def load_script():
    spec = importlib.util.spec_from_file_location("weight_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_weight_sweep_prints_one_row_per_preset(monkeypatch, capsys):
    sweep = load_script()
    monkeypatch.setattr(sweep, "BASE", replace(sweep.BASE, node_count=30, duration=2.0))
    monkeypatch.setattr(sweep, "SEEDS", (1,))
    sweep.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["preset", "delivery", "rt", "delay", "energy/pkt",
                              "first", "death"]
    assert [row[:32].rstrip() for row in rows] == list(sweep.PRESETS)
    for row in rows:
        delivery = row[32:].split()[0]
        assert delivery.endswith("%") and 0.0 <= float(delivery[:-1]) <= 100.0
