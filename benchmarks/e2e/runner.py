"""Run one workload end to end and render what it measured."""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from . import replay, serve, spec
from .inputs import Size, build_ops, generate, online_samples_for
from .outcome import Outcome
from .spans import SpanRecorder, write_jsonl

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Span names whose single durations feed a percentile.
KEEP_DURATIONS = ("engine.buffer.flush",)


def run_workload(
    workload: str, seed: int, seconds: float, size: Size, traced: bool
) -> Outcome:
    """Generate the inputs, run one workload, write its spans."""
    if workload in replay.CONFIGS:
        config = replay.CONFIGS[workload]
        # The stream must outlast the window at the fastest rate expected.
        samples = online_samples_for(
            config.rate_ceiling * seconds, size, at_least=config.prefix_samples + 1
        )
        inputs = generate(size, samples)
        ops = build_ops(
            inputs,
            seed,
            updates_per_range=config.updates_per_range,
            range_area=config.range_area,
            updates_per_knn=config.updates_per_knn,
        )
        recorder = SpanRecorder(keep_durations=KEEP_DURATIONS) if traced else None
        outcome = replay.run(workload, inputs, ops, seconds, size, recorder)
        kept = recorder.kept if recorder is not None else []
    else:
        config = serve.CONFIGS[workload]
        samples = online_samples_for(
            serve.updates_needed(config, seconds), size, at_least=2
        )
        inputs = generate(size, samples)
        run_dir = OUT_DIR / f"run-{os.getpid()}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            outcome, kept = serve.run(
                workload, inputs, seed, seconds, size, run_dir, traced
            )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    if traced:
        write_jsonl(OUT_DIR / f"{workload}.spans.jsonl", kept)
    return outcome


def report(outcome: Outcome, seed: int, seconds: float, traced: bool) -> str:
    workload = next(w for w in spec.WORKLOADS if w.name == outcome.workload)
    lines = [
        f"== {workload.name}  seed {seed}  window {seconds:g} s  "
        f"({workload.loop} loop)",
        f"   {workload.shape}",
        "   end to end (untraced pass)",
    ]
    for metric in spec.END_TO_END:
        if metric.name not in outcome.end_to_end:
            continue
        # update_p99_ms -> the "update" latency family's sample count.
        family = metric.name.split("_")[0]
        note = f"   (n={outcome.samples[family]})" if metric.unit == "ms" else ""
        lines.append(
            f"     {metric.name:<28}{outcome.end_to_end[metric.name]:>14.6g} "
            f"{metric.unit}{note}"
        )
    if traced:
        lines.append("   per layer (traced pass; 0 = not on this workload's path)")
        for name, unit, _better in spec.PER_LAYER:
            if name in outcome.layers:
                lines.append(f"     {name:<36}{outcome.layers[name]:>14.6g} {unit}")
    verdict = "correct" if outcome.correct else "INCORRECT"
    lines.append(
        f"   checks: {outcome.attempted} ops attempted, {outcome.failed} failed -> {verdict}"
    )
    lines.extend(f"   problem: {problem}" for problem in outcome.problems)
    lines.extend(f"   note: {note}" for note in outcome.notes)
    return "\n".join(lines)
