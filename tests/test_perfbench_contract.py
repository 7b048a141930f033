"""The names the benchmark attaches to.

perfbench/tracing.py wraps pipeline functions at the module and class
attributes the pipeline looks them up by (``qkdsim.runner.sift``,
``qkdsim.privacy.final_length``, ``OtpStore.consume`` and more), reads
counters off their arguments and results, and expects one traced stage
per ``stage = "..."`` name in runner.py. A renamed or moved name would
otherwise surface only when the benchmark runs.
"""

import re
from pathlib import Path

import pytest

from qkdsim import otp_store, privacy, reconcile, runner
from qkdsim.params import SystemParams

ROOT = Path(__file__).resolve().parents[1]
OWNERS = (runner, reconcile, privacy, otp_store.OtpStore)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    return tracing


def test_tracer_wraps_every_stage_and_restores_the_package(tracing, tmp_path):
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a wrapped name that is gone raises KeyError here
        tracer.begin_op(0)
        pad = bytes(range(256)) * 4
        with otp_store.OtpStore.create(tmp_path / "pad.otp", pad) as store:
            report = runner.run_once(SystemParams(), 0.3, bytes(32), otp=store)
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    assert report.succeeded and report.n_fin > 0
    seen = {span[tracing.NAME]: span[tracing.ATTRS] for span in tracer.spans}
    for names in tracing.STAGE_SPANS.values():
        assert set(names) <= set(seen)
    assert seen["sifting.sift"]["sifted_bits"] == report.n_rec
    assert seen["runner.run_once"]["channel_bytes"] > 0


def test_runner_stages_match_the_traced_stages(tracing):
    source = (ROOT / "src" / "qkdsim" / "runner.py").read_text()
    assert set(re.findall(r'\bstage = "(\w+)"', source)) == set(tracing.STAGE_SPANS)
