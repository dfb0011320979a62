"""Per-layer timings come from the traced set-up when no traced round
has them."""

from layers import per_layer_metrics
from spans import Span, Tracer


def tracer_with(*spans):
    tracer = Tracer()
    tracer.spans.extend(Span(sid, name, 0, dur, None, op=0)
                        for sid, (name, dur) in enumerate(spans))
    return tracer


def test_timing_falls_back_to_the_traced_setup(tmp_path):
    rounds = tracer_with(("classifier.classify", 2_000))
    setup = tracer_with(("classifier.step", 3_000_000), ("classifier.classify", 9_000))
    metrics = per_layer_metrics(rounds, 1, [], tmp_path / "none", 1.0, setup)
    step_ms, _, note = metrics["classifier.step_ms"]
    assert step_ms == 3.0 and note.endswith("(traced set-up)")
    # a timing the rounds have ignores the set-up
    classify_us, _, note = metrics["classifier.classify_us"]
    assert classify_us == 2.0 and "set-up" not in note
    # counts stay per traced round
    assert metrics["classifier.classify_calls"][0] == 1
    assert metrics["predictor.step_ms"][0] == 0.0



def test_rates_and_setup_times_use_the_rounds_host_speed_correction(monkeypatch):
    import reference
    from workloads import RoundResult, stage_rate
    monkeypatch.setattr(reference, "samples", [9.0, 0.024, 0.036, 0.030])
    # kernel ran 0.030 s in median against REFERENCE_S: the host ran slow
    assert reference.correction(1) == reference.REFERENCE_S / 0.030
    assert reference.correction(4) == 1.0
    rounds = [RoundResult(stage_s={"read": 4.0}, units={"read": 10}, correction=0.5),
              RoundResult(stage_s={"read": 2.0}, units={"read": 10}, correction=1.0)]
    assert stage_rate(rounds, "read", "read") == 20 / (4.0 * 0.5 + 2.0)
